// Instant restart (Options::recovery_mode = kInstant): the engine opens for
// business right after the analysis sweep, and the two expensive restart
// passes run lazily (docs/INSTANT_RESTART.md).
//
//   * Redo on demand: the shared restart plan (RecoveryManager::BuildPlan)
//     collects the parsed redo plan keyed by page, and OnDemandRedo adopts
//     it as its pending index. The buffer pool consults the index on every fetch and replays that
//     page's log suffix before anyone sees the frame; logical table
//     records are indexed per heap bucket and drained by the table heap
//     the same way. A page nobody touches is paid for only by the
//     background drain at the very end.
//
//   * Undo in the background: the plan's loser-scope cluster groups go to
//     the undo executor kFull uses (UndoGroups), one backward log stream on
//     a background thread while the engine serves new transactions; groups
//     resolve in stream order, each as the stream passes its oldest scope.
//     The scope index is what makes this safe — RecoveryGate blocks exactly
//     the transactions whose footprints intersect a still-unresolved loser
//     cluster; everything else proceeds immediately. This is the RH-native
//     advantage: page-chain schemes need per-page recovery bits, RH already
//     knows every object a loser still covers.
//
// RecoveryHandle is the caller's view of the whole restart: progress,
// per-pass stats, Await(), and the terminal Outcome. Every shard reports to
// it — under kFull before Database::StartRecovery() returns, under kInstant
// when its background pass drains.

#ifndef ARIESRH_RECOVERY_ONDEMAND_H_
#define ARIESRH_RECOVERY_ONDEMAND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coord/coordinator_log.h"
#include "core/options.h"
#include "obs/metrics.h"
#include "recovery/analysis.h"
#include "recovery/recovery_manager.h"
#include "recovery/redo.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

/// The per-page redo index of one shard's parsed redo plan. Thread-safe;
/// the no-pending fast path is one relaxed atomic load, so a fully-drained
/// index costs fetches nothing.
class OnDemandRedo {
 public:
  /// Adopts the analysis sweep's page-keyed redo plan as the pending index.
  /// `remaining_external` (optional) is a progress cell (e.g. the
  /// RecoveryHandle's) decremented once per drained page/bucket.
  OnDemandRedo(RedoPlan plan, Stats* stats,
               std::atomic<int64_t>* remaining_external = nullptr);

  /// Replays `id`'s pending plain-page records onto `page` (page-LSN
  /// checked, exactly what PartitionedRedo would have applied). Called by
  /// the buffer pool under its latch, right after the frame materializes.
  /// Returns the first LSN actually applied (the frame's rec_lsn), or
  /// kInvalidLsn when nothing was pending.
  Lsn DrainPage(PageId id, Page* page);

  /// Removes and returns a table bucket's pending logical entries (in LSN
  /// order) for the table heap to replay under its own latch. `bucket_id`
  /// is RedoBucketOf's partition key (kHeapPageBase + bucket).
  std::vector<RedoEntry> TakeBucket(PageId bucket_id);

  /// Page and bucket ids still pending, in id order: plain pages first,
  /// then the heap buckets (RedoBucketOf's partition keys). The background
  /// drain fetches each plain page to trigger DrainPage and drains each
  /// bucket through the heap.
  std::vector<PageId> PendingPages() const;

  uint64_t records_applied() const {
    return records_applied_.load(std::memory_order_relaxed);
  }

 private:
  /// Removes and returns `id`'s pending entries; empty when none are.
  std::vector<RedoEntry> Take(PageId id);
  /// Progress accounting for one drained page or bucket.
  void CountDrained(uint64_t applied);

  Stats* stats_;
  std::atomic<int64_t>* remaining_external_;
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::vector<RedoEntry>> pending_;
  std::atomic<size_t> remaining_{0};
  std::atomic<uint64_t> records_applied_{0};
};

/// Blocks foreground transactions whose object footprints intersect a
/// still-unresolved loser cluster group. Objects outside every loser scope
/// pass through on one relaxed atomic load.
class RecoveryGate {
 public:
  /// Indexes the cluster groups' objects. Call once, before any waiter.
  /// `wait_ns` (optional, "ariesrh_gate_wait_ns") observes how long each
  /// wait that actually blocks lasts; a wait that passes does not count.
  void Arm(const std::vector<UndoGroup>& groups,
           obs::Histogram* wait_ns = nullptr);

  /// Blocks until every group covering `ob` is resolved. Returns the close
  /// status if the gate was closed (failed/cancelled restart) first.
  Status WaitForObject(ObjectId ob);

  /// Blocks until every group is resolved (scans, checkpoints).
  Status WaitForAll();

  /// Lifts the gate for one group's objects (its sweep completed).
  void MarkResolved(size_t group);

  /// Wakes every waiter with `status` (background pass failed or the engine
  /// is shutting down); unresolved objects stay blocked-with-error.
  void Close(Status status);

  size_t unresolved_groups() const {
    return unresolved_.load(std::memory_order_acquire);
  }

 private:
  /// cv_.wait(lock, done), timed into wait_ns_ when `done` is false at
  /// first (mu_ held).
  template <typename Pred>
  void Block(std::unique_lock<std::mutex>& lock, Pred done);

  obs::Histogram* wait_ns_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ObjectId, std::vector<size_t>> by_object_;
  std::vector<char> resolved_;
  std::atomic<size_t> unresolved_{0};
  bool closed_ = false;
  Status close_status_ = Status::OK();
};

/// The caller's view of one restart: progress while it runs, the merged
/// RecoveryManager::Outcome once it completes. Every shard's Restart reports
/// its completion (or failure) here: under kFull before StartRecovery()
/// returns, so the handle is already done then; under kInstant from the
/// shard's background pass. Shared between the Database facade, the shards'
/// background threads, and any number of Await()ers.
class RecoveryHandle {
 public:
  using Outcome = RecoveryManager::Outcome;

  /// A handle for a restart with nothing to do (fresh opens).
  static std::shared_ptr<RecoveryHandle> Terminal(RecoveryMode mode,
                                                  Outcome outcome);

  /// A live handle awaiting `shards` completions.
  static std::shared_ptr<RecoveryHandle> Pending(RecoveryMode mode,
                                                 size_t shards);

  /// Blocks until every shard completed; returns the merged Outcome, or the
  /// first failure any shard reported.
  Result<Outcome> Await();

  bool done() const;
  bool failed() const;
  RecoveryMode mode() const { return mode_; }

  /// --- progress (live under kInstant) ---
  size_t shards_pending() const;
  /// Unresolved loser cluster groups across all shards.
  int64_t undo_backlog() const {
    return undo_backlog_.load(std::memory_order_relaxed);
  }
  /// Pages/buckets with pending on-demand redo across all shards.
  int64_t redo_pages_pending() const {
    return redo_pages_.load(std::memory_order_relaxed);
  }

  /// --- engine-side reporting ---
  void ShardDone(const Outcome& outcome);
  void ShardFailed(const Status& status);
  void AddUndoBacklog(int64_t delta) {
    undo_backlog_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::atomic<int64_t>* redo_pages_cell() { return &redo_pages_; }

 private:
  RecoveryHandle(RecoveryMode mode, size_t pending)
      : mode_(mode), pending_(pending) {}

  void MergeLocked(const Outcome& outcome);

  const RecoveryMode mode_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
  bool any_merged_ = false;
  Outcome merged_;
  Status status_ = Status::OK();
  std::atomic<int64_t> undo_backlog_{0};
  std::atomic<int64_t> redo_pages_{0};
};

/// One shard's instant restart: the synchronous front half (the shared
/// restart plan, then arming the redo index and the gate) and the
/// background half (the shared undo executor, lifting the gate group by
/// group, then the final redo drain). Owned by the EngineShard between
/// its Restart and the next SimulateCrash.
class InstantRestart {
 public:
  /// `backlog_gauge` (optional) is the shard's "ariesrh_undo_backlog"
  /// gauge, kept at the live unresolved-group count. `hook` (optional) runs
  /// at the background undo's "recovery:undo" points (RecoveryManager).
  InstantRestart(const Options& options, SimulatedDisk* disk, LogManager* log,
                 BufferPool* pool, Stats* stats, table::TableHeap* heap,
                 obs::Gauge* backlog_gauge, TestHook hook);
  ~InstantRestart();

  InstantRestart(const InstantRestart&) = delete;
  InstantRestart& operator=(const InstantRestart&) = delete;

  /// The synchronous front half. On success the shard may open: the redo
  /// index and gate are armed (pool/heap resolve hooks installed), the
  /// background thread is running, and `*next_txn_id` carries the id seed.
  /// `on_complete` runs on the background thread after a successful drain,
  /// before the handle learns of completion (checkpoint-after-recovery,
  /// daemon start).
  Status Start(const coord::Resolution* resolution,
               std::shared_ptr<RecoveryHandle> handle, TxnId* next_txn_id,
               std::function<void()> on_complete);

  /// Foreground gates (see RecoveryGate). After the background pass
  /// finished, both return its terminal status — a failed instant restart
  /// poisons every gated entry point.
  Status WaitForObject(ObjectId ob);
  Status WaitForAll();

  /// Blocks until the background pass finished; its terminal status.
  Status Await();

  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Stops the background pass: wakes every gate waiter with `reason`,
  /// requests cancellation, joins the worker (idempotent). The handle, if
  /// still pending, learns of the failure.
  void Cancel(const Status& reason);

 private:
  void BackgroundPass();
  Status DrainRemainingRedo();
  void Finish(Status status);
  void SetBacklogGauge();

  const Options options_;
  LogManager* log_;
  BufferPool* pool_;
  Stats* stats_;
  table::TableHeap* heap_;
  obs::Gauge* backlog_gauge_;

  RecoveryManager recovery_;
  RecoveryManager::Plan plan_;

  std::unique_ptr<OnDemandRedo> ondemand_;
  RecoveryGate gate_;
  std::shared_ptr<RecoveryHandle> handle_;
  std::function<void()> on_complete_;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> done_{false};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Status status_ = Status::OK();
  std::thread worker_;
};

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_ONDEMAND_H_
