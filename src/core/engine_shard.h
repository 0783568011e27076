// EngineShard: one complete engine — the unit the Database facade routes
// to.
//
// A shard owns its own simulated stable storage plus all volatile
// components (log manager, buffer pool, lock manager, transaction manager,
// checkpoint daemon) and the operations that act on them as a whole:
// checkpoints, archiving, backups, images, the instant-restart gates, and
// the crash/recover harness. It has no transactional API of its own: the
// facade routes every transactional call, at every shard count, to the
// shard's TxnManager (txn_manager()), gated by WaitForObjectRecovery while
// an instant restart is in flight. A 1-shard Database is one EngineShard
// behind that routed path; with num_shards > 1 the facade adds the
// coordinator log and the cross-shard protocols (docs/SHARDING.md).

#ifndef ARIESRH_CORE_ENGINE_SHARD_H_
#define ARIESRH_CORE_ENGINE_SHARD_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coord/coordinator_log.h"
#include "core/options.h"
#include "lock/lock_manager.h"
#include "obs/observability.h"
#include "recovery/ondemand.h"
#include "recovery/recovery_manager.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"
#include "table/table_heap.h"
#include "txn/txn_manager.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/test_hook.h"
#include "util/types.h"
#include "wal/log_manager.h"

namespace ariesrh {

class CheckpointDaemon;

class EngineShard {
 public:
  /// `obs` is the engine-wide observability bundle (shared across shards;
  /// must outlive the shard). `shard_index`/`shard_count` select the
  /// shard's metric labels (metric_labels()). Options must already be
  /// validated — the facade owns Validate().
  EngineShard(const Options& options, obs::Observability* obs,
              size_t shard_index, size_t shard_count);
  ~EngineShard();

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Forces the whole shard log to stable storage.
  Status Sync();

  /// Takes a fuzzy checkpoint (see Database::Checkpoint for the contract).
  /// Prepared (in-doubt) transactions are part of the snapshot, carrying
  /// their csn, so a restart that lands on this checkpoint still consults
  /// the coordinator about them. Between CKPT_BEGIN and the dirty-page-table
  /// snapshot it applies ARIES' penultimate-checkpoint rule: every pool page
  /// and every heap bucket chain dirty since before the previous
  /// checkpoint's CKPT_BEGIN is written back, so the redo point trails at
  /// most one checkpoint behind and ArchiveLog can drop what lies before
  /// it. The same snapshot reaps the terminated transactions nothing needs
  /// any more (TxnManager::CheckpointSnapshot).
  Status Checkpoint();

  /// Persists the shard's stable state (pages + durable log + master
  /// record) to a file; reopen with Database::Open.
  Status SaveTo(const std::string& path);

  /// Replaces the shard's stable storage with a persisted image and drops
  /// into the needs-recovery state (Database::Open's loading step).
  Status LoadDiskFrom(const std::string& path);

  /// A media-recovery backup: a sharp snapshot of the stable pages plus the
  /// log position and checkpoint it reflects.
  struct BackupImage {
    PageImages pages;
    Lsn master_record = 0;
    Lsn backup_end_lsn = 0;  ///< log was durable through here at backup time
    /// Serialized images of the log records the backup's checkpoint replays
    /// from: [window_start .. master_record], where window_start is the
    /// earlier of the checkpoint's redo point and its CKPT_BEGIN (the
    /// analysis anchor). A standby seeded from this backup installs them so
    /// its mid-stream log covers the whole fuzzy window
    /// (replication/log_shipping.h) — a backup without the window could not
    /// be recovered, exactly as a base backup in classical ARIES must
    /// include the log from the begin-checkpoint record on.
    Lsn window_start = 0;
    std::vector<std::string> log_window;
  };

  /// Takes a backup: flushes all dirty pages, checkpoints, and snapshots
  /// the stable pages.
  Result<BackupImage> Backup();

  /// Installs a backup's pages and master record after a media failure.
  Status RestoreFromBackup(const BackupImage& backup);

  /// Archives the no-longer-needed log prefix (see Database::ArchiveLog).
  /// Prepared transactions pin the log exactly like active ones — their
  /// fate is undecided, so their chains must survive a restart.
  Result<uint64_t> ArchiveLog(Lsn retain_from = kInvalidLsn);

  // --- crash / recovery harness ---

  /// Discards every volatile structure; only stable storage survives.
  void SimulateCrash();

  /// Restart recovery per Options::recovery_mode, reported on `handle`.
  /// kFull runs every pass before returning (ARIES/RH's merged sweep, then
  /// undo) and reports the shard's Outcome; kInstant runs analysis, arms
  /// on-demand redo and the recovery gate, and opens the shard while
  /// loser-cluster undo and the final redo drain run in the background,
  /// which report completion or failure. `resolution` (sharded engines)
  /// carries the coordinator's durable verdicts for in-doubt transactions and
  /// cross-shard delegation legs; nullptr is the unsharded engine's path. On
  /// error the shard is back in the crashed state and has reported nothing:
  /// the caller reports the failure.
  Status Restart(const coord::Resolution* resolution,
                 std::shared_ptr<RecoveryHandle> handle);

  /// Blocks until `ob` is outside every unresolved loser cluster (no-op
  /// after restart completes, or when no instant restart is in flight).
  /// Returns the background pass's terminal status if it failed.
  Status WaitForObjectRecovery(ObjectId ob);

  /// Blocks until every loser cluster resolved (scans).
  Status WaitForAllRecovery();

  /// Blocks until the whole background pass drained (checkpoints, backups,
  /// archiving — operations that need the stable state caught up).
  Status AwaitInstantRecovery();

  // --- inspection ---

  Result<int64_t> ReadCommitted(ObjectId ob);

  /// Committed point read straight from the heap (the facade's
  /// TableGetCommitted), gated on the key's rid during instant restart.
  Result<std::optional<std::string>> TableGetCommitted(const std::string& key);

  const Stats& stats() const { return stats_; }
  /// The label list of this shard's metric series — its Stats and its
  /// live-log and undo-backlog gauges: `shard="<i>"` in a sharded engine,
  /// empty (the unlabelled series) in a 1-shard one.
  const std::string& metric_labels() const { return labels_; }

  const Options& options() const { return options_; }

  TxnManager* txn_manager() { return txn_manager_.get(); }
  table::TableHeap* table_heap() { return heap_.get(); }
  LogManager* log_manager() { return log_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  LockManager* lock_manager() { return locks_.get(); }
  SimulatedDisk* disk() { return disk_.get(); }
  CheckpointDaemon* checkpoint_daemon() { return daemon_.get(); }

  /// Installs the hook this shard's checkpoints and restarts run at their
  /// named points (Database::set_test_hook lists them); nullptr removes it.
  /// It survives SimulateCrash. A restart keeps the hook it started with.
  void set_test_hook(TestHook hook);

 private:
  /// "database crashed; call StartRecovery() first" when crashed.
  Status EnsureUsable() const;
  void BuildVolatileComponents();
  /// The penultimate-checkpoint bound for the next checkpoint: the
  /// CKPT_BEGIN of the last completed one. Known in memory once this shard
  /// took a checkpoint; after a restart (or an image load) it is seeded from
  /// the master record. kFirstLsn, which no recovery LSN is below, when
  /// there is no checkpoint yet.
  Result<Lsn> PreviousCheckpointBegin();
  /// Refreshes the live-log gauge (end of log minus archived prefix).
  void UpdateLogLiveGauge();

  Options options_;
  obs::Observability* obs_;  // shared, engine-wide; outlives the shard
  const std::string labels_;
  Stats stats_;  // this shard's counters: the series labelled labels_
  /// Refreshed by checkpoints, archives and completed restarts.
  obs::Gauge* log_live_gauge_ = nullptr;
  std::unique_ptr<SimulatedDisk> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<table::TableHeap> heap_;
  std::unique_ptr<TxnManager> txn_manager_;
  bool crashed_ = false;

  /// Serializes checkpoint/archive admin operations (daemon vs. shell vs.
  /// tests): interleaved CKPT_BEGIN/CKPT_END pairs would cross-link their
  /// fuzzy windows, and archive must not race the master-record update.
  std::mutex admin_mu_;
  obs::Histogram* checkpoint_ns_ = nullptr;
  /// Written under admin_mu_, which checkpoints (the daemon's too) hold
  /// while they run it. Restart copies it unlocked, so it is not installed
  /// while a restart starts.
  TestHook test_hook_;
  /// CKPT_BEGIN of the last checkpoint this shard completed since it was
  /// built or restarted; kInvalidLsn = not known yet (seed from the master
  /// record). Guarded by admin_mu_.
  Lsn last_ckpt_begin_ = kInvalidLsn;
  /// Live between an instant Restart and the next SimulateCrash; its
  /// background thread touches log_/pool_/heap_, so it is declared after
  /// them (destroyed — and joined — first).
  std::unique_ptr<InstantRestart> instant_;
  /// Declared last: destroyed first, so the daemon thread is joined before
  /// any component it drives goes away.
  std::unique_ptr<CheckpointDaemon> daemon_;
};

}  // namespace ariesrh

#endif  // ARIESRH_CORE_ENGINE_SHARD_H_
