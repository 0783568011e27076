// Log manager: LSN assignment, the volatile log tail, group flush to the
// simulated stable log, and record reads that transparently span the durable
// prefix and the volatile tail.
//
// During normal execution the only stable-log operation ARIES/RH performs is
// appending (and flushing) records. RewriteRecord exists solely for the
// history-rewriting baselines of Section 3.2 and is never called by RH.
//
// Thread safety: every operation is safe under concurrent callers. Forward
// processing runs transactions on a worker pool (workload/scheduler.h) and
// parallel restart recovery (recovery/parallel.h) reads durable records from
// redo workers while undo workers append CLRs. Append reserves its LSN
// lock-free and serializes outside the tail lock; Read takes a shared lock so
// any number of readers proceed simultaneously; end_lsn()/flushed_lsn() are
// lock-free. Physical forces serialize on a dedicated force mutex, ordered
// before the tail lock, and the simulated device stall of a force is paid
// outside the tail lock so appenders keep running while the device is busy.
//
// Group commit: StartGroupCommit spawns a dedicated flusher thread that owns
// all commit-driven forces. A committer appends its COMMIT record, calls
// FlushWait, and parks; the flusher coalesces every pending request into one
// batched force (waiting up to the configured window for stragglers), then
// wakes the whole batch. N committers therefore pay ~1 device force instead
// of N, and a commit is still durable before FlushWait returns — the WAL
// rule and the durability contract are unchanged, only the force count
// drops. See docs/GROUP_COMMIT.md for the protocol walkthrough.

#ifndef ARIESRH_WAL_LOG_MANAGER_H_
#define ARIESRH_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "storage/simulated_disk.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace ariesrh {

class LogManager {
 public:
  /// Group-commit flusher configuration (see docs/GROUP_COMMIT.md).
  struct GroupCommitConfig {
    /// Fixed coalescing window in microseconds; 0 forces immediately.
    /// Ignored when `adaptive` is set.
    uint64_t window_us = 0;
    /// Adaptive windowing: the flusher sizes the window from an EWMA of
    /// commit inter-arrival times — long enough for ~`target_batch`
    /// committers to pile on, capped at `max_window_us`, zero when no
    /// concurrent commit traffic has been observed.
    bool adaptive = false;
    uint64_t max_window_us = 1000;
    /// Full-batch early wake (both policies): once this many requests are
    /// queued the flusher forces immediately instead of sleeping out the
    /// rest of the window. 0 disables the early wake.
    uint64_t target_batch = 8;
  };

  /// Attaches to a disk; the durable prefix (if any) defines the next LSN.
  /// `stats` must outlive the manager.
  LogManager(SimulatedDisk* disk, Stats* stats);

  /// Stops the group-commit flusher, if running.
  ~LogManager();

  /// Appends a record to the volatile tail, assigning and returning its LSN.
  /// Safe to call from concurrent workers.
  Lsn Append(LogRecord rec);

  /// Makes the log durable up to and including `lsn` (no-op if already
  /// durable). Implements both commit forcing and the WAL rule. Concurrent
  /// forces serialize; a caller whose LSN was covered by another thread's
  /// force returns without touching the device.
  Status Flush(Lsn lsn);

  /// Flushes the entire tail.
  Status FlushAll();

  /// Group-commit flush: with the flusher running, enqueues a request for
  /// `lsn` and parks until a batched force covers it; without a flusher this
  /// degrades to a direct Flush. Returns only once the record is durable
  /// (or the tail was discarded / the flusher stopped underneath the wait,
  /// which reports IllegalState — the crash path).
  Status FlushWait(Lsn lsn);

  /// Spawns the dedicated flusher thread (idempotent).
  void StartGroupCommit(const GroupCommitConfig& config);

  /// Legacy fixed-window form: window `window_us`, default early wake.
  void StartGroupCommit(uint64_t window_us) {
    GroupCommitConfig config;
    config.window_us = window_us;
    StartGroupCommit(config);
  }

  /// Stops and joins the flusher thread, waking any parked committers with
  /// IllegalState (idempotent; called by the destructor).
  void StopGroupCommit();

  bool group_commit_running() const {
    return flusher_running_.load(std::memory_order_acquire);
  }

  /// Reads a record by LSN, from the tail if not yet durable. Concurrent
  /// readers proceed in parallel; record deserialization happens outside
  /// the lock. Reading a tail slot whose concurrent appender has reserved
  /// but not yet filled it returns kBusy (retry), never a torn record.
  Result<LogRecord> Read(Lsn lsn) const;

  /// Overwrites an existing record in place (baselines only). Durable
  /// records incur a stable random write; tail records are patched in
  /// memory. The caller must preserve the record's LSN.
  Status Rewrite(Lsn lsn, LogRecord rec);

  /// LSN of the most recently appended record; 0 if the log is empty.
  Lsn end_lsn() const {
    return next_lsn_.load(std::memory_order_acquire) - 1;
  }

  /// LSN up to which the log is durable; 0 if nothing is durable.
  Lsn flushed_lsn() const {
    return flushed_lsn_.load(std::memory_order_acquire);
  }

  /// First LSN still present on the underlying stable log (older records
  /// were archived); kFirstLsn until the prefix is ever archived. Lets log
  /// consumers (dumps, reenactment) bound their scans instead of probing
  /// the archived prefix record by record.
  Lsn first_retained_lsn() const;

  /// Drops the stable log's records before `keep_from` (see
  /// SimulatedDisk::ArchiveLogPrefix); returns how many were dropped. Safe
  /// against concurrent appends, forces and reads.
  uint64_t ArchivePrefix(Lsn keep_from);

  /// Crash: discards the volatile tail. The durable prefix is untouched.
  /// Safe against an in-flight Flush (serializes after it) and wakes any
  /// parked FlushWait committers whose records were discarded.
  void DiscardTail();

 private:
  struct TailEntry {
    LogRecord record;
    std::string image;    // serialized at append time for byte accounting
    bool filled = false;  // false while a concurrent appender owns the slot
  };

  void FlusherLoop(GroupCommitConfig config);

  /// Adaptive window for the batch being assembled, in microseconds
  /// (flush_mu_ held): enough of the observed inter-arrival gap for
  /// `target_batch` total requests, capped; 0 with no arrival history.
  uint64_t AdaptiveWindowUs(const GroupCommitConfig& config) const;

  SimulatedDisk* disk_;
  Stats* stats_;
  obs::Histogram* flush_ns_ = nullptr;   ///< null when Stats is unattached
  obs::Histogram* batch_size_ = nullptr; ///< group-commit batch sizes
  obs::Gauge* queue_depth_ = nullptr;    ///< committers parked in FlushWait

  /// Serializes physical forces (and DiscardTail). Ordered before mu_; the
  /// simulated device stall is paid holding only this, so appenders and
  /// readers proceed while the "device" is busy.
  std::mutex force_mu_;
  mutable std::shared_mutex mu_;  ///< guards tail_ and the disk's log
  std::atomic<Lsn> next_lsn_;
  std::atomic<Lsn> flushed_lsn_;
  std::deque<TailEntry> tail_;  // records (flushed_lsn_, next_lsn_)

  // --- group-commit flusher state (guarded by flush_mu_) ---
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;  ///< wakes the flusher
  std::condition_variable acked_cv_;  ///< wakes parked committers
  Lsn requested_lsn_ = 0;             ///< highest LSN any committer wants
  Lsn acked_lsn_ = 0;                 ///< highest LSN a batched force covered
  uint64_t pending_requests_ = 0;     ///< requests since the last force
  uint64_t tail_generation_ = 0;      ///< bumped by DiscardTail
  /// Adaptive policy only: arrival-rate tracking for AdaptiveWindowUs.
  /// The EWMA samples only *intra-burst* gaps (a request arriving while
  /// others are already pending), so a lone committer — no concurrency to
  /// coalesce with — never opens a window and keeps immediate-force latency.
  bool track_arrivals_ = false;
  uint64_t last_arrival_ns_ = 0;      ///< steady-clock stamp of last request
  uint64_t ewma_interarrival_ns_ = 0; ///< 0 until the first intra-burst gap
  bool stop_flusher_ = false;
  Status flusher_status_ = Status::OK();
  std::atomic<bool> flusher_running_{false};
  std::thread flusher_;
};

}  // namespace ariesrh

#endif  // ARIESRH_WAL_LOG_MANAGER_H_
