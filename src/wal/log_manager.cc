#include "wal/log_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <thread>

#include "obs/trace.h"

namespace ariesrh {

namespace {

// Batch sizes, not latencies: small linear-ish bounds so the interesting
// range (1..64 commits per force) resolves exactly.
const std::vector<uint64_t>& BatchSizeBounds() {
  static const std::vector<uint64_t> bounds = {1,  2,  3,  4,  6,  8,
                                               12, 16, 24, 32, 48, 64};
  return bounds;
}

}  // namespace

LogManager::LogManager(SimulatedDisk* disk, Stats* stats)
    : disk_(disk),
      stats_(stats),
      next_lsn_(disk->stable_end_lsn() + 1),
      flushed_lsn_(disk->stable_end_lsn()),
      forced_lsn_(disk->stable_end_lsn()) {
  if (obs::MetricsRegistry* registry = stats->registry()) {
    flush_ns_ = registry->GetHistogram("ariesrh_log_flush_ns");
    batch_size_ = registry->GetHistogram("ariesrh_group_commit_batch",
                                         BatchSizeBounds());
    queue_depth_ = registry->GetGauge("ariesrh_log_flush_queue_depth");
  }
}

LogManager::~LogManager() { StopGroupCommit(); }

Lsn LogManager::Append(LogRecord rec) {
  // Reserve the LSN lock-free so serialization — the expensive part — the
  // (relaxed-atomic) byte accounting, and the trace emit all run outside
  // the lock. Concurrent workers appending records then contend only on
  // the slot insertion below.
  rec.lsn = next_lsn_.fetch_add(1, std::memory_order_acq_rel);
  TailEntry entry;
  entry.image = rec.Serialize();
  entry.filled = true;
  ++stats_->log_appends;
  stats_->log_bytes_appended += entry.image.size();
  obs::Emit(stats_->trace(), obs::TraceEventType::kLogAppend, rec.lsn,
            entry.image.size(), static_cast<uint64_t>(rec.type));
  const Lsn lsn = rec.lsn;
  entry.record = std::move(rec);
  std::unique_lock lock(mu_);
  // The tail is indexed by LSN; reserving before locking means slots can be
  // claimed out of order, leaving transient holes that Flush and Read skip.
  const size_t idx = static_cast<size_t>(
      lsn - flushed_lsn_.load(std::memory_order_relaxed) - 1);
  if (tail_.size() <= idx) tail_.resize(idx + 1);
  tail_[idx] = std::move(entry);
  return lsn;
}

Status LogManager::Flush(Lsn lsn) {
  // Already durable and its force's stall over: do not queue behind an
  // unrelated force. The group-commit flusher keeps the device busy, and a
  // page eviction waits here holding the buffer-pool latch.
  if (lsn <= forced_lsn_.load(std::memory_order_acquire)) return Status::OK();
  // One force at a time: force_mu_ is the "device channel". A caller whose
  // LSN was covered by the force it queued behind returns once that force's
  // stall is over.
  std::unique_lock force_lock(force_mu_);
  obs::ScopedLatencyTimer timer(flush_ns_);
  uint64_t stall_ns = 0;
  while (true) {
    std::vector<std::string> batch;
    std::unique_lock lock(mu_);
    const Lsn flushed = flushed_lsn_.load(std::memory_order_relaxed);
    // Clamp instead of asserting: a group-commit request can race with
    // DiscardTail, leaving a stale target beyond the (new) end of log.
    lsn = std::min(lsn, end_lsn());
    if (lsn == kInvalidLsn || lsn <= flushed) break;
    // Stop at the first unfilled slot: a concurrent appender still owns it
    // and the durable log must stay a contiguous prefix.
    Lsn durable = flushed;
    while (!tail_.empty() && tail_.front().filled &&
           tail_.front().record.lsn <= lsn) {
      durable = tail_.front().record.lsn;
      batch.push_back(std::move(tail_.front().image));
      tail_.pop_front();
    }
    if (!batch.empty()) {
      uint64_t force_stall_ns = 0;
      disk_->AppendLogRecords(batch, &force_stall_ns);
      stall_ns += force_stall_ns;
      flushed_lsn_.store(durable, std::memory_order_release);
      obs::Emit(stats_->trace(), obs::TraceEventType::kLogFlush, durable,
                batch.size());
    }
    if (durable >= lsn) break;
    // A hole below `lsn`: its appender has reserved the slot but not yet
    // filled it. Returning now would report `lsn` durable when it is not
    // (a commit acked and then lost to a crash), so let the appender —
    // which needs only mu_ — finish, then force the rest.
    lock.unlock();
    std::this_thread::yield();
  }
  // The simulated force stall is the device being busy: pay it holding only
  // the force mutex, so concurrent appenders (and readers) keep running —
  // exactly the overlap group commit exploits.
  if (stall_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
  }
  forced_lsn_.store(flushed_lsn_.load(std::memory_order_relaxed),
                    std::memory_order_release);
  return Status::OK();
}

Status LogManager::FlushAll() { return Flush(end_lsn()); }

LogManager::FlushTicket LogManager::RequestFlush(Lsn lsn) {
  std::unique_lock lock(flush_mu_);
  FlushTicket ticket{lsn, discard_floors_.size(), 0};
  // A stopping flusher takes no new requests: the ticket falls back to a
  // direct force instead of failing a commit nothing is crashing.
  if (!flusher_running_.load(std::memory_order_acquire) || stop_flusher_) {
    return ticket;
  }
  ticket.epoch = flusher_epoch_;
  if (lsn > acked_lsn_) {
    requested_lsn_ = std::max(requested_lsn_, lsn);
    ++pending_requests_;
    flush_cv_.notify_one();
  }
  return ticket;
}

bool LogManager::LostToDiscard(const FlushTicket& ticket) const {
  return ticket.generation < discard_floors_.size() &&
         ticket.lsn > discard_floors_[ticket.generation];
}

Status LogManager::AwaitFlush(const FlushTicket& ticket) {
  const Status discarded = Status::IllegalState(
      "log tail discarded before the record became durable");
  if (ticket.epoch == 0) {
    const Status status = Flush(ticket.lsn);
    std::unique_lock lock(flush_mu_);
    return LostToDiscard(ticket) ? discarded : status;
  }
  std::unique_lock lock(flush_mu_);
  if (queue_depth_ != nullptr) queue_depth_->Add(1);
  acked_cv_.wait(lock, [&] {
    return acked_lsn_ >= ticket.lsn ||
           discard_floors_.size() != ticket.generation || stop_flusher_ ||
           flusher_epoch_ != ticket.epoch || !flusher_status_.ok();
  });
  if (queue_depth_ != nullptr) queue_depth_->Add(-1);
  // A discard resets acked_lsn_ and lets LSNs be reused, so it decides first.
  if (discard_floors_.size() != ticket.generation) {
    return LostToDiscard(ticket) ? discarded : Status::OK();
  }
  if (flusher_epoch_ == ticket.epoch && !flusher_status_.ok()) {
    return flusher_status_;
  }
  if (acked_lsn_ >= ticket.lsn) return Status::OK();
  return Status::IllegalState("log flusher stopped during commit flush");
}

void LogManager::StartGroupCommit(const GroupCommitConfig& config) {
  std::unique_lock lock(flush_mu_);
  if (flusher_running_.load(std::memory_order_acquire)) return;
  stop_flusher_ = false;
  flusher_status_ = Status::OK();
  acked_lsn_ = flushed_lsn();
  requested_lsn_ = acked_lsn_;
  pending_requests_ = 0;
  ++flusher_epoch_;
  flusher_running_.store(true, std::memory_order_release);
  flusher_ = std::thread([this, config] { FlusherLoop(config); });
}

void LogManager::StopGroupCommit() {
  {
    std::unique_lock lock(flush_mu_);
    if (!flusher_running_.load(std::memory_order_acquire)) return;
    stop_flusher_ = true;
    flush_cv_.notify_all();
    acked_cv_.notify_all();
  }
  flusher_.join();
  flusher_running_.store(false, std::memory_order_release);
}

void LogManager::FlusherLoop(GroupCommitConfig config) {
  std::unique_lock lock(flush_mu_);
  while (true) {
    flush_cv_.wait(lock, [&] {
      return stop_flusher_ || requested_lsn_ > acked_lsn_;
    });
    if (stop_flusher_) break;
    if (config.window_us > 0) {
      // Coalescing window: give concurrent committers a beat to pile on.
      // Requests arriving during the force itself batch into the next one
      // regardless, so the window only matters for sparse commit traffic.
      // Wake early the moment a full batch is queued — sleeping out the
      // rest of the window would only add latency to a force that cannot
      // coalesce further.
      const auto window = std::chrono::microseconds(config.window_us);
      flush_cv_.wait_for(lock, window, [&] {
        return stop_flusher_ || (config.target_batch > 0 &&
                                 pending_requests_ >= config.target_batch);
      });
      if (stop_flusher_) break;
    }
    const Lsn target = requested_lsn_;
    const uint64_t batch = pending_requests_;
    pending_requests_ = 0;
    lock.unlock();
    const Status status = Flush(target);  // one device force for the batch
    lock.lock();
    ++stats_->log_group_forces;
    if (batch_size_ != nullptr && batch > 0) batch_size_->Observe(batch);
    if (status.ok()) {
      // DiscardTail may have truncated underneath the force; never ack past
      // what is actually durable.
      acked_lsn_ = std::max(acked_lsn_, std::min(target, flushed_lsn()));
    } else {
      flusher_status_ = status;  // surfaced to every parked committer
    }
    acked_cv_.notify_all();
    if (!flusher_status_.ok()) break;
  }
  flusher_running_.store(false, std::memory_order_release);
}

Result<LogRecord> LogManager::Read(Lsn lsn) const {
  std::string image;
  uint64_t stall_ns = 0;
  {
    std::shared_lock lock(mu_);
    const Lsn flushed = flushed_lsn_.load(std::memory_order_relaxed);
    if (lsn == kInvalidLsn || lsn == 0 ||
        lsn >= next_lsn_.load(std::memory_order_relaxed)) {
      return Status::NotFound("LSN " + std::to_string(lsn) + " out of range");
    }
    if (lsn > flushed) {
      // Volatile tail read: no stable I/O. A reserved-but-unfilled slot is
      // still owned by a concurrent appender: report kBusy so the caller
      // retries once the appender has published it — never a torn record.
      const size_t idx = static_cast<size_t>(lsn - flushed - 1);
      if (idx >= tail_.size() || !tail_[idx].filled) {
        return Status::Busy("LSN " + std::to_string(lsn) +
                            " is still being appended");
      }
      assert(tail_[idx].record.lsn == lsn);
      return tail_[idx].record;
    }
    ARIESRH_ASSIGN_OR_RETURN(image, disk_->ReadLogRecord(lsn, &stall_ns));
  }
  // The simulated seek and the deserialization (CRC + decode) both run
  // outside the lock so concurrent recovery workers overlap them — the
  // whole point of parallel restart.
  if (stall_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
  }
  return LogRecord::Deserialize(image);
}

Status LogManager::Rewrite(Lsn lsn, LogRecord rec) {
  std::unique_lock lock(mu_);
  const Lsn flushed = flushed_lsn_.load(std::memory_order_relaxed);
  if (lsn == kInvalidLsn || lsn == 0 ||
      lsn >= next_lsn_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("rewrite of LSN out of range");
  }
  if (rec.lsn != lsn) {
    return Status::InvalidArgument("rewrite must preserve the record LSN");
  }
  if (lsn > flushed) {
    TailEntry& entry = tail_.at(lsn - flushed - 1);
    entry.image = rec.Serialize();
    entry.record = std::move(rec);
    return Status::OK();
  }
  return disk_->RewriteLogRecord(lsn, rec.Serialize());
}

uint64_t LogManager::ArchivePrefix(Lsn keep_from) {
  // The prefix drop edits the same stable-log vector a force appends to, so
  // it takes the force channel and then the exclusive lock, like a force.
  std::unique_lock force_lock(force_mu_);
  std::unique_lock lock(mu_);
  return disk_->ArchiveLogPrefix(keep_from);
}

Lsn LogManager::first_retained_lsn() const {
  std::shared_lock lock(mu_);
  return disk_->first_retained_lsn();
}

void LogManager::DiscardTail() {
  // Serialize after any in-flight force: whatever that force made durable
  // stays durable, everything still volatile evaporates.
  std::unique_lock force_lock(force_mu_);
  {
    std::unique_lock lock(mu_);
    tail_.clear();
    next_lsn_.store(flushed_lsn_.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  }
  // Fail the tickets of records that just ceased to exist.
  std::unique_lock lock(flush_mu_);
  discard_floors_.push_back(flushed_lsn());
  requested_lsn_ = std::min(requested_lsn_, flushed_lsn());
  acked_lsn_ = std::max(acked_lsn_, flushed_lsn());
  acked_cv_.notify_all();
}

LogCursor::LogCursor(const LogManager& log, Lsn from, Lsn to,
                     Direction direction)
    : log_(log),
      forward_(direction == Direction::kForward),
      next_(forward_ ? from : to),
      left_(from <= to ? to - from + 1 : 0) {}

LogCursor::~LogCursor() { Publish(); }

Status LogCursor::Fill() {
  bytes_.clear();
  ends_.clear();
  taken_ = 0;
  batch_count_ = 0;
  const uint64_t want = std::min(left_, kBatchRecords);
  std::shared_lock lock(log_.mu_);
  const Lsn flushed = log_.flushed_lsn_.load(std::memory_order_relaxed);
  if (next_ == kInvalidLsn || next_ == 0 ||
      next_ >= log_.next_lsn_.load(std::memory_order_relaxed)) {
    return Status::NotFound("LSN " + std::to_string(next_) + " out of range");
  }
  // A batch lies wholly in the durable prefix or wholly in the tail. `want`
  // never exceeds the records left in the range, so neither bound below
  // underflows.
  Lsn lo = forward_ ? next_ : next_ - (want - 1);
  Lsn hi = forward_ ? next_ + (want - 1) : next_;
  if (next_ <= flushed) {
    const Lsn retained = log_.disk_->first_retained_lsn();
    if (next_ < retained) {
      return Status::NotFound("LSN " + std::to_string(next_) +
                              " was archived");
    }
    lo = std::max(lo, retained);
    hi = std::min(hi, flushed);
    log_.disk_->ReadLogRun(lo, hi, &bytes_, &ends_);
    batch_durable_ = true;
  } else {
    // Volatile tail: the batch stops at a reserved-but-unfilled slot, whose
    // appender still owns it — Read's kBusy, never a torn record.
    lo = std::max(lo, flushed + 1);
    hi = std::min(hi, log_.end_lsn());
    const auto filled = [&](Lsn lsn) {
      const size_t idx = static_cast<size_t>(lsn - flushed - 1);
      return idx < log_.tail_.size() && log_.tail_[idx].filled;
    };
    if (!filled(next_)) {
      return Status::Busy("LSN " + std::to_string(next_) +
                          " is still being appended");
    }
    if (forward_) {
      for (Lsn lsn = next_ + 1; lsn <= hi; ++lsn) {
        if (!filled(lsn)) hi = lsn - 1;
      }
    } else {
      for (Lsn lsn = next_ - 1; lsn >= lo; --lsn) {
        if (!filled(lsn)) lo = lsn + 1;
      }
    }
    for (Lsn lsn = lo; lsn <= hi; ++lsn) {
      bytes_.append(log_.tail_[lsn - flushed - 1].image);
      ends_.push_back(static_cast<uint32_t>(bytes_.size()));
    }
    batch_durable_ = false;
  }
  batch_first_ = lo;
  batch_count_ = hi - lo + 1;
  return Status::OK();
}

bool LogCursor::Next() {
  if (left_ == 0 || !status_.ok()) {
    Publish();
    return false;
  }
  if (taken_ == batch_count_) {
    Publish();
    status_ = Fill();
    if (!status_.ok()) {
      lsn_ = next_;
      return false;
    }
  }
  const uint64_t i = forward_ ? taken_ : batch_count_ - 1 - taken_;
  ++taken_;
  --left_;
  lsn_ = batch_first_ + i;
  next_ = forward_ ? lsn_ + 1 : lsn_ - 1;
  const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
  const uint32_t size = ends_[i] - begin;
  if (batch_durable_) {
    // The point read's accounting, record by record (see the class
    // comment): classified now, against whatever was read last.
    bytes_read_ += size;
    if (log_.disk_->NoteLogRead(lsn_)) {
      ++seq_reads_;
    } else {
      ++random_reads_;
      const uint64_t stall = log_.disk_->log_random_read_stall_ns();
      if (stall > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
      }
    }
  }
  status_ = LogRecord::DecodeInto(bytes_.data() + begin, size, &record_);
  if (!status_.ok()) {
    status_ = Status::Corruption("LSN " + std::to_string(lsn_) + ": " +
                                 status_.message());
    Publish();
    return false;
  }
  ++records_;
  return true;
}

void LogCursor::Publish() {
  Stats* stats = log_.disk_->stats();
  if (seq_reads_ > 0) stats->log_seq_reads += seq_reads_;
  if (random_reads_ > 0) stats->log_random_reads += random_reads_;
  if (bytes_read_ > 0) stats->log_bytes_read += bytes_read_;
  if (count_into_ != nullptr && records_ > 0) *count_into_ += records_;
  seq_reads_ = random_reads_ = bytes_read_ = records_ = 0;
}

}  // namespace ariesrh
