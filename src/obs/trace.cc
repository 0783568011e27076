#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "obs/clock.h"

namespace ariesrh::obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Per-type display schema: event name plus labels for the used payload
/// fields (nullptr = field unused).
struct EventSchema {
  const char* name;
  const char* a;
  const char* b;
  const char* c;
};

const EventSchema& SchemaFor(TraceEventType type) {
  static const EventSchema kSchemas[] = {
      {"txn_begin", "txn", nullptr, nullptr},
      {"txn_commit", "txn", "lsn", nullptr},
      {"txn_abort", "txn", "lsn", nullptr},
      {"delegate", "from", "to", "objects"},
      {"log_append", "lsn", "bytes", "rec_type"},
      {"log_flush", "through_lsn", "records", nullptr},
      {"lock_grant", "txn", "object", "mode"},
      {"lock_conflict", "txn", "object", "mode"},
      {"recovery_pass_begin", "pass", "from_lsn", "to_lsn"},
      {"recovery_pass_end", "pass", "records", "applied"},
      {"undo_cluster_skip", "from_lsn", "to_lsn", "skipped"},
      {"checkpoint", "ckpt_end_lsn", "active_txns", "dirty_pages"},
      {"crash", "flushed_lsn", nullptr, nullptr},
  };
  return kSchemas[static_cast<size_t>(type)];
}

bool IsPassEvent(TraceEventType type) {
  return type == TraceEventType::kRecoveryPassBegin ||
         type == TraceEventType::kRecoveryPassEnd;
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  return SchemaFor(type).name;
}

const char* RecoveryPassKindName(RecoveryPassKind kind) {
  switch (kind) {
    case RecoveryPassKind::kAnalysis:
      return "analysis";
    case RecoveryPassKind::kRedo:
      return "redo";
    case RecoveryPassKind::kMergedForward:
      return "merged_forward";
    case RecoveryPassKind::kUndo:
      return "undo";
    case RecoveryPassKind::kEosRedo:
      return "eos_redo";
  }
  return "unknown";
}

EventTrace::EventTrace(size_t capacity)
    : slots_(RoundUpPow2(std::max<size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

void EventTrace::Emit(TraceEventType type, uint64_t a, uint64_t b,
                      uint64_t c) {
  const uint64_t n = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[n & mask_];
  // Unpublish before mutating so a concurrent reader never accepts a
  // half-written payload under the old seq.
  slot.ready.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts_ns.store(MonotonicNanos(), std::memory_order_relaxed);
  slot.type.store(static_cast<uint64_t>(type), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  slot.ready.store(n + 1, std::memory_order_release);
}

std::vector<TraceEvent> EventTrace::Snapshot(size_t last_n) const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t window = std::min<uint64_t>(
      {static_cast<uint64_t>(last_n), end, static_cast<uint64_t>(slots_.size())});
  std::vector<TraceEvent> out;
  out.reserve(window);
  for (uint64_t i = end - window; i < end; ++i) {
    const Slot& slot = slots_[i & mask_];
    if (slot.ready.load(std::memory_order_acquire) != i + 1) continue;
    TraceEvent event;
    event.seq = i + 1;
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    event.type = static_cast<TraceEventType>(
        slot.type.load(std::memory_order_relaxed));
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    event.c = slot.c.load(std::memory_order_relaxed);
    // Re-check publication after the copy: a writer that raced us zeroed
    // `ready` first, so an unchanged value means the copy is consistent.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.ready.load(std::memory_order_relaxed) != i + 1) continue;
    out.push_back(event);
  }
  return out;
}

std::string EventTrace::DumpText(size_t last_n) const {
  const std::vector<TraceEvent> events = Snapshot(last_n);
  std::ostringstream os;
  const uint64_t t0 = events.empty() ? 0 : events.front().ts_ns;
  for (const TraceEvent& event : events) {
    const EventSchema& schema = SchemaFor(event.type);
    os << "[" << event.seq << "] +" << (event.ts_ns - t0) / 1000 << "us "
       << schema.name;
    if (IsPassEvent(event.type)) {
      os << " pass=" << RecoveryPassKindName(
                            static_cast<RecoveryPassKind>(event.a));
      if (schema.b != nullptr) os << " " << schema.b << "=" << event.b;
      if (schema.c != nullptr) os << " " << schema.c << "=" << event.c;
    } else {
      if (schema.a != nullptr) os << " " << schema.a << "=" << event.a;
      if (schema.b != nullptr) os << " " << schema.b << "=" << event.b;
      if (schema.c != nullptr) os << " " << schema.c << "=" << event.c;
    }
    os << "\n";
  }
  return os.str();
}

std::string EventTrace::DumpJsonl(size_t last_n) const {
  const std::vector<TraceEvent> events = Snapshot(last_n);
  std::ostringstream os;
  for (const TraceEvent& event : events) {
    const EventSchema& schema = SchemaFor(event.type);
    os << "{\"seq\":" << event.seq << ",\"ts_ns\":" << event.ts_ns
       << ",\"type\":\"" << schema.name << "\"";
    if (schema.a != nullptr) os << ",\"" << schema.a << "\":" << event.a;
    if (schema.b != nullptr) os << ",\"" << schema.b << "\":" << event.b;
    if (schema.c != nullptr) os << ",\"" << schema.c << "\":" << event.c;
    os << "}\n";
  }
  return os.str();
}

void EventTrace::Reset() {
  for (Slot& slot : slots_) slot.ready.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_release);
}

}  // namespace ariesrh::obs
