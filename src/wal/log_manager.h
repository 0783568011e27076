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
// lock-free and serializes outside the tail lock; readers take a shared lock
// so any number of them proceed simultaneously; end_lsn()/flushed_lsn() are
// lock-free. Physical forces serialize on a dedicated force mutex, ordered
// before the tail lock, and the simulated device stall of a force is paid
// outside the tail lock so appenders keep running while the device is busy.
//
// Two read paths, one lock discipline: a reader holds the shared lock only
// while it copies record images out, and pays the simulated seek and the
// decode (CRC + parse) after releasing it.
//   * Read(lsn), the point read: one lock hold, one image copy and one
//     decode into a fresh record per call. For reads that jump — the master
//     and CKPT_END lookups, chain-following undo, the scope-cluster sweep,
//     the rewrite baselines.
//   * LogCursor, the sequential read: walks a range known up front, forward
//     or backward, one lock hold and one byte copy per batch of records,
//     decoding each into one reused record. For every sweep — the restart
//     forward pass, the full-scan undo baseline, reenactment's scans, the
//     log dump. Its accounting equals a Read per record (see LogCursor).
//
// Group commit: StartGroupCommit spawns a dedicated flusher thread that owns
// all commit-driven forces. A committer appends its COMMIT record, requests a
// flush (RequestFlush), and parks on the ticket (AwaitFlush); the flusher
// coalesces every pending request into one batched force, then wakes the
// whole batch. N committers therefore pay ~1 device force instead of N, and
// a commit is still durable before AwaitFlush returns — the WAL rule and the
// durability contract are unchanged, only the force count drops. Splitting
// request from await lets one caller have forces in flight on several logs
// at once (the cross-shard vote round). See docs/GROUP_COMMIT.md.

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

class LogCursor;

class LogManager {
 public:
  /// Group-commit flusher configuration (see docs/GROUP_COMMIT.md).
  struct GroupCommitConfig {
    /// Fixed coalescing window in microseconds; 0 forces as soon as the
    /// device is free (a batch is whatever queued during the last force).
    uint64_t window_us = 0;
    /// Full-batch early wake: once this many requests are queued the
    /// flusher forces immediately instead of sleeping out the rest of the
    /// window. 0 disables the early wake.
    uint64_t target_batch = 8;
  };

  /// A flush request in flight: RequestFlush hands it out, AwaitFlush
  /// redeems it.
  struct FlushTicket {
    Lsn lsn = kInvalidLsn;
    uint64_t generation = 0;  ///< tail generation at request time
    uint64_t epoch = 0;       ///< flusher run it was queued on; 0 = none
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
  /// force returns without touching the device, once that force's stall is
  /// over — at once if it already was.
  Status Flush(Lsn lsn);

  /// Flushes the entire tail.
  Status FlushAll();

  /// Group-commit flush, first half: with the flusher running, queues a
  /// request for `lsn` and returns at once; without one the ticket defers a
  /// direct Flush to AwaitFlush.
  FlushTicket RequestFlush(Lsn lsn);

  /// Second half: returns once the ticket's record is durable, or
  /// IllegalState if the tail was discarded or the flusher stopped before a
  /// force covered it (the crash path). OK iff the record is durable.
  Status AwaitFlush(const FlushTicket& ticket);

  /// RequestFlush and AwaitFlush in a row: the commit path's durability wait.
  Status FlushWait(Lsn lsn) { return AwaitFlush(RequestFlush(lsn)); }

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
  /// Safe against an in-flight Flush (serializes after it) and fails every
  /// outstanding ticket whose record was discarded.
  void DiscardTail();

 private:
  friend class LogCursor;

  struct TailEntry {
    LogRecord record;
    std::string image;    // serialized at append time for byte accounting
    bool filled = false;  // false while a concurrent appender owns the slot
  };

  void FlusherLoop(GroupCommitConfig config);

  /// True when a DiscardTail since the ticket's request dropped its record
  /// before any force covered it (flush_mu_ held).
  bool LostToDiscard(const FlushTicket& ticket) const;

  SimulatedDisk* disk_;
  Stats* stats_;
  obs::Histogram* flush_ns_ = nullptr;   ///< null when Stats is unattached
  obs::Histogram* batch_size_ = nullptr; ///< group-commit batch sizes
  obs::Gauge* queue_depth_ = nullptr;    ///< committers parked in AwaitFlush

  /// Serializes physical forces (and DiscardTail). Ordered before mu_; the
  /// simulated device stall is paid holding only this, so appenders and
  /// readers proceed while the "device" is busy.
  std::mutex force_mu_;
  mutable std::shared_mutex mu_;  ///< guards tail_ and the disk's log
  std::atomic<Lsn> next_lsn_;
  std::atomic<Lsn> flushed_lsn_;
  /// flushed_lsn_ as of the last force whose device stall has ended.
  std::atomic<Lsn> forced_lsn_;
  std::deque<TailEntry> tail_;  // records (flushed_lsn_, next_lsn_)

  // --- group-commit flusher state (guarded by flush_mu_) ---
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;  ///< wakes the flusher
  std::condition_variable acked_cv_;  ///< wakes parked committers
  Lsn requested_lsn_ = 0;             ///< highest LSN any committer wants
  Lsn acked_lsn_ = 0;                 ///< highest LSN a batched force covered
  uint64_t pending_requests_ = 0;     ///< requests since the last force
  /// flushed_lsn() at each DiscardTail; its size is the tail generation. A
  /// record requested in generation g survived iff its LSN is at most
  /// discard_floors_[g] — later LSNs were discarded and may be reused.
  std::vector<Lsn> discard_floors_;
  uint64_t flusher_epoch_ = 0;        ///< bumped by StartGroupCommit
  bool stop_flusher_ = false;
  Status flusher_status_ = Status::OK();
  std::atomic<bool> flusher_running_{false};
  std::thread flusher_;
};

/// A sequential reader over the log range [from, to], forward or backward,
/// spanning the durable prefix and the volatile tail like Read.
///
/// Each batch of up to kBatchRecords records costs one hold of the log's
/// shared lock, during which the images are copied into one reused buffer
/// (SimulatedDisk::ReadLogRun for durable records); Next() then decodes
/// them one at a time, outside the lock, into one reused record.
///
/// Accounting equals one Read per record consumed, never per record
/// buffered: each durable record Next() hands out is classified sequential
/// or random against the disk's last read position at that moment, exactly
/// as Read classifies it, so reads interleaved between two Next() calls
/// (the rewrite baseline's chain walks) are seen as they would be; a random
/// one pays the seek stall in Next(). The counts themselves (log_seq_reads,
/// log_random_reads, log_bytes_read and the CountRecordsInto counter) are
/// added once per batch, and the rest when the cursor ends or is destroyed,
/// so a caller that stops early has counted exactly what it consumed.
///
/// Not thread-safe; any number of cursors and Read callers may run
/// concurrently on one LogManager.
class LogCursor {
 public:
  enum class Direction : uint8_t { kForward, kBackward };

  /// A cursor over [from, to]; a backward cursor starts at `to`. An empty
  /// range (from > to) yields nothing.
  LogCursor(const LogManager& log, Lsn from, Lsn to,
            Direction direction = Direction::kForward);
  /// Publishes the counts of the records consumed so far.
  ~LogCursor();

  LogCursor(const LogCursor&) = delete;
  LogCursor& operator=(const LogCursor&) = delete;

  /// Decodes the next record of the range into record(). Returns false once
  /// the range is exhausted or a read failed; status() then says which, and
  /// lsn() names the record that failed. The errors are Read's — NotFound
  /// (archived or out of range), Busy (a tail slot still being appended) —
  /// plus Corruption naming the LSN whose image does not decode.
  bool Next();

  /// The record Next() last decoded; overwritten by the next call.
  const LogRecord& record() const { return record_; }
  /// LSN of the record Next() last produced or failed on.
  Lsn lsn() const { return lsn_; }
  const Status& status() const { return status_; }

  /// Also counts every record Next() decodes into `counter` (a pass's
  /// records-scanned stat), published with the read counts.
  void CountRecordsInto(StatCounter* counter) { count_into_ = counter; }

 private:
  static constexpr uint64_t kBatchRecords = 64;

  /// Copies the next batch's images, holding the shared lock only for that.
  Status Fill();
  /// Adds the counts accumulated since the last call to the stats cells.
  void Publish();

  const LogManager& log_;
  const bool forward_;
  Lsn next_;        ///< next LSN to produce
  uint64_t left_;   ///< records of the range not yet produced
  Lsn lsn_ = kInvalidLsn;
  Status status_;
  LogRecord record_;

  // The current batch: records [batch_first_, batch_first_ + batch_count_),
  // record i's image ending at ends_[i] in bytes_.
  std::string bytes_;
  std::vector<uint32_t> ends_;
  Lsn batch_first_ = kInvalidLsn;
  uint64_t batch_count_ = 0;
  uint64_t taken_ = 0;         ///< records of the batch already produced
  bool batch_durable_ = false; ///< durable records are disk reads; tail ones are not

  // Counts not yet published.
  uint64_t seq_reads_ = 0;
  uint64_t random_reads_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t records_ = 0;
  StatCounter* count_into_ = nullptr;
};

}  // namespace ariesrh

#endif  // ARIESRH_WAL_LOG_MANAGER_H_
