// Event trace: a fixed-capacity, lock-free ring buffer of engine events —
// transaction begin/commit/abort, delegation, log append/flush, lock
// grant/conflict, recovery pass boundaries — with human-text and JSONL
// dumps. The last `capacity` events are always available for inspection
// (shell `trace` command, post-mortem in tests).
//
// Concurrency contract: Emit() is wait-free for any number of writers (one
// fetch_add claims a slot, plain stores fill it, a release store publishes
// it). Readers are lock-free and *best-effort*: a slot being overwritten
// concurrently is detected via its publication sequence and skipped rather
// than returned torn. Reset() requires external quiescence.

#ifndef ARIESRH_OBS_TRACE_H_
#define ARIESRH_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ariesrh::obs {

enum class TraceEventType : uint8_t {
  kTxnBegin = 0,    // a=txn
  kTxnCommit,       // a=txn, b=commit LSN
  kTxnAbort,        // a=txn, b=abort LSN
  kDelegate,        // a=delegator, b=delegatee, c=#objects
  kLogAppend,       // a=LSN, b=bytes, c=record type
  kLogFlush,        // a=through LSN, b=#records flushed
  kLockGrant,       // a=txn, b=object, c=mode
  kLockConflict,    // a=txn, b=object, c=mode (request returned kBusy)
  kRecoveryPassBegin,  // a=RecoveryPassKind, b=scan from LSN, c=scan to LSN
  kRecoveryPassEnd,    // a=RecoveryPassKind, b=records seen, c=work applied
  kUndoClusterSkip,    // a=from LSN, b=to LSN, c=records skipped
  kCheckpoint,         // a=CKPT_END LSN, b=#active txns, c=#dirty pages
  kCrash,              // a=flushed LSN at the crash — SimulateCrash
};

/// Recovery pass identifiers carried by kRecoveryPass{Begin,End}.
enum class RecoveryPassKind : uint64_t {
  kAnalysis = 0,
  kRedo = 1,
  kMergedForward = 2,  ///< merged analysis+redo sweep (paper §3.3)
  kUndo = 3,
  kEosRedo = 4,  ///< EOS engine's single forward sweep
};

const char* TraceEventTypeName(TraceEventType type);
const char* RecoveryPassKindName(RecoveryPassKind kind);

struct TraceEvent {
  uint64_t seq = 0;    ///< 1-based global emission index
  uint64_t ts_ns = 0;  ///< MonotonicNanos() at emission
  TraceEventType type = TraceEventType::kTxnBegin;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};

class EventTrace {
 public:
  /// `capacity` is rounded up to a power of two; the buffer retains the
  /// most recent `capacity` events.
  explicit EventTrace(size_t capacity = kDefaultCapacity);

  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  void Emit(TraceEventType type, uint64_t a = 0, uint64_t b = 0,
            uint64_t c = 0);

  /// Events emitted over the trace's lifetime (including overwritten ones).
  uint64_t total_emitted() const {
    return next_.load(std::memory_order_acquire);
  }
  size_t capacity() const { return slots_.size(); }

  /// The most recent `last_n` events, oldest first. Slots currently being
  /// overwritten by a concurrent Emit are skipped.
  std::vector<TraceEvent> Snapshot(size_t last_n = SIZE_MAX) const;

  /// Human-readable rendering, one event per line.
  std::string DumpText(size_t last_n = SIZE_MAX) const;

  /// JSON-lines rendering (one JSON object per line), machine-parseable.
  std::string DumpJsonl(size_t last_n = SIZE_MAX) const;

  /// Clears the buffer. Not safe against concurrent Emit.
  void Reset();

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  /// A seqlock slot. The payload words are relaxed atomics so a reader
  /// racing a writer reads torn values instead of racing on plain memory;
  /// the `ready` protocol tells it to drop them.
  struct Slot {
    /// 0 = never written; otherwise the seq of the published event. A
    /// writer zeroes it before filling the payload, so readers observing
    /// the expected seq (acquire) see a fully published payload.
    std::atomic<uint64_t> ready{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> type{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> c{0};
  };

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
};

/// Null-safe emission helper: components hold a possibly-null EventTrace*
/// (unattached Stats in unit tests have none).
inline void Emit(EventTrace* trace, TraceEventType type, uint64_t a = 0,
                 uint64_t b = 0, uint64_t c = 0) {
  if (trace != nullptr) trace->Emit(type, a, b, c);
}

}  // namespace ariesrh::obs

#endif  // ARIESRH_OBS_TRACE_H_
