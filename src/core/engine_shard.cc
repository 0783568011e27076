#include "core/engine_shard.h"

#include <algorithm>
#include <utility>

#include "core/checkpoint_daemon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/checkpoint.h"
#include "wal/log_record.h"

namespace ariesrh {

EngineShard::EngineShard(const Options& options, obs::Observability* obs,
                         size_t shard_index, size_t shard_count)
    : options_(options),
      obs_(obs),
      labels_(shard_count > 1
                  ? "shard=\"" + std::to_string(shard_index) + "\""
                  : "") {
  stats_.AttachObservability(obs_, labels_);
  checkpoint_ns_ = obs_->registry.GetHistogram("ariesrh_checkpoint_ns");
  // Looked up once: an instant restart's completion refreshes the gauge on
  // its background thread while a checkpoint may refresh it on another.
  log_live_gauge_ =
      obs_->registry.GetGauge("ariesrh_log_live_records", labels_);
  disk_ = std::make_unique<SimulatedDisk>(&stats_);
  disk_->set_log_random_read_stall_ns(options_.sim_log_random_read_ns);
  disk_->set_log_force_stall_ns(options_.sim_log_force_ns);
  BuildVolatileComponents();
}

EngineShard::~EngineShard() = default;

void EngineShard::BuildVolatileComponents() {
  // A (re)built shard learns its penultimate-checkpoint bound from the
  // master record again: a restart, an image load and a backup restore all
  // come through here.
  last_ckpt_begin_ = kInvalidLsn;
  log_ = std::make_unique<LogManager>(disk_.get(), &stats_);
  pool_ = std::make_unique<BufferPool>(
      disk_.get(), options_.buffer_pool_pages,
      [this](Lsn lsn) { return log_->Flush(lsn); }, &stats_);
  locks_ = std::make_unique<LockManager>(&stats_);
  // The heap's frames are volatile like the pool's; its stable pages live in
  // the same simulated disk. A fresh build starts empty and loads each
  // bucket's stable chain the first time something touches the bucket.
  heap_ = std::make_unique<table::TableHeap>(
      disk_.get(), &stats_, [this](Lsn lsn) { return log_->Flush(lsn); });
  txn_manager_ = std::make_unique<TxnManager>(options_, log_.get(),
                                              pool_.get(), locks_.get(),
                                              &stats_, heap_.get());
  // The flusher is volatile like everything else here: SimulateCrash tears
  // it down with the log manager and Restart() builds a fresh one.
  if (options_.group_commit) {
    LogManager::GroupCommitConfig gc;
    gc.window_us = options_.group_commit_window_us;  // 0 under kAdaptive
    gc.target_batch = options_.group_commit_target_batch;
    log_->StartGroupCommit(gc);
  }
  // So is the checkpoint daemon — but it only starts once the shard is
  // usable: mid-recovery (crashed_ still set) its checkpoints would bounce
  // off EnsureUsable, so Restart() starts it once restart completes.
  if (options_.checkpoint_interval_records > 0 ||
      options_.checkpoint_interval_ms > 0) {
    daemon_ = std::make_unique<CheckpointDaemon>(
        this, options_.checkpoint_interval_records,
        options_.checkpoint_interval_ms, options_.auto_archive);
    if (!crashed_) daemon_->Start();
  }
}

void EngineShard::UpdateLogLiveGauge() {
  const Lsn end = log_->end_lsn();
  const Lsn first = log_->first_retained_lsn();
  log_live_gauge_->Set(end >= first ? static_cast<int64_t>(end - first + 1)
                                    : 0);
}

Status EngineShard::EnsureUsable() const {
  if (crashed_) {
    return Status::IllegalState(
        "database crashed; call StartRecovery() first");
  }
  return Status::OK();
}

Status EngineShard::Sync() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  return log_->FlushAll();
}

Status EngineShard::Checkpoint() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // A checkpoint's snapshot must not capture a half-recovered shard: its
  // dirty page table would miss pages whose redo is still pending on
  // demand, and its transaction table knows nothing of the losers the
  // background sweep is still rolling back.
  ARIESRH_RETURN_IF_ERROR(AwaitInstantRecovery());
  std::lock_guard admin(admin_mu_);
  obs::ScopedLatencyTimer timer(checkpoint_ns_);

  LogRecord begin;
  begin.type = LogRecordType::kCkptBegin;
  // The CKPT_BEGIN LSN is this checkpoint's identity: it anchors the fuzzy
  // window [begin_lsn, end_lsn] that recovery's analysis re-scans, so it
  // must ride in the CKPT_END payload rather than be discarded.
  const Lsn begin_lsn = log_->Append(std::move(begin));
  ARIESRH_RETURN_IF_ERROR(RunTestPoint(&test_hook_, "checkpoint:after-begin"));

  // The penultimate-checkpoint rule: a page dirty since before the previous
  // checkpoint's CKPT_BEGIN goes out now, so the dirty page table below —
  // and with it the redo point — never reaches back past that checkpoint.
  // Pages dirtied more recently stay in the cache (NO-FORCE). Making the log
  // durable through its current end first covers, under the WAL rule, every
  // page not updated since, so the latched write-backs below rarely force;
  // under group commit that wait rides the flusher's next batch instead of
  // adding a force. Heap chains go one bucket per latch hold. The first
  // checkpoint has no predecessor, so nothing is older.
  ARIESRH_ASSIGN_OR_RETURN(const Lsn older_than, PreviousCheckpointBegin());
  if (older_than != kFirstLsn) {
    uint64_t written = 0;
    Status wrote = log_->FlushWait(log_->end_lsn());
    if (wrote.ok()) wrote = pool_->FlushOlderThan(older_than, &written);
    if (wrote.ok()) {
      wrote = heap_->WriteBackOlderThan(older_than, &test_hook_, &written);
    }
    stats_.checkpoint_pages_written += written;  // what reached the disk
    ARIESRH_RETURN_IF_ERROR(wrote);
  }

  CheckpointData data;
  data.ckpt_begin_lsn = begin_lsn;
  data.next_txn_id = txn_manager_->next_txn_id();
  // A fenced, latched snapshot, not the live table: workers keep running
  // while the fuzzy checkpoint serializes its view. Whatever they append
  // between begin_lsn and the CKPT_END append is the window analysis
  // reconciles against this snapshot. Prepared (in-doubt) transactions are
  // snapshotted too — their fate is the coordinator's, not recovery's, so
  // losing them from a checkpoint would silently presume-abort a round the
  // coordinator may have committed. Under the same fence the snapshot reaps
  // the terminated transactions whose END is durable.
  for (const auto& [id, tx] :
       txn_manager_->CheckpointSnapshot(log_->flushed_lsn())) {
    CheckpointData::TxnSnapshot snap;
    snap.id = id;
    snap.first_lsn = tx.first_lsn;
    snap.last_lsn = tx.last_lsn;
    snap.prepared_csn = tx.prepared_csn;
    snap.ob_list = tx.ob_list;
    data.active_txns.push_back(std::move(snap));
  }
  data.dirty_pages = pool_->DirtyPageTable();
  // Heap pages share the dirty page table (their id space is disjoint), so
  // RedoStart reaches every unflushed table write too.
  for (const auto& [page_id, rec_lsn] : heap_->DirtyPageTable()) {
    data.dirty_pages[page_id] = rec_lsn;
  }
  ARIESRH_RETURN_IF_ERROR(
      RunTestPoint(&test_hook_, "checkpoint:after-snapshot"));

  LogRecord end;
  end.type = LogRecordType::kCkptEnd;
  end.ckpt_payload = data.Serialize();
  const Lsn end_lsn = log_->Append(std::move(end));
  ARIESRH_RETURN_IF_ERROR(log_->Flush(end_lsn));
  disk_->SetMasterRecord(end_lsn);
  last_ckpt_begin_ = begin_lsn;
  ++stats_.checkpoints_taken;
  UpdateLogLiveGauge();
  obs::Emit(&obs_->trace, obs::TraceEventType::kCheckpoint, end_lsn,
            data.active_txns.size(), data.dirty_pages.size());
  return Status::OK();
}

void EngineShard::set_test_hook(TestHook hook) {
  std::lock_guard admin(admin_mu_);
  test_hook_ = std::move(hook);
}

Result<Lsn> EngineShard::PreviousCheckpointBegin() {
  if (last_ckpt_begin_ != kInvalidLsn) return last_ckpt_begin_;
  CheckpointData ckpt;
  ARIESRH_ASSIGN_OR_RETURN(
      const Lsn master,
      RecoveryManager::LocateCheckpoint(options_, disk_.get(), log_.get(),
                                        &ckpt));
  if (master == 0) return kFirstLsn;  // no checkpoint: nothing is older
  // A legacy payload has no CKPT_BEGIN; its CKPT_END bounds the window.
  last_ckpt_begin_ = ckpt.ckpt_begin_lsn != 0 ? ckpt.ckpt_begin_lsn : master;
  return last_ckpt_begin_;
}

Status EngineShard::SaveTo(const std::string& path) {
  // Persist exactly the stable state; a crashed shard can be saved too
  // (that is precisely what its disk holds).
  return disk_->SaveTo(path);
}

Status EngineShard::LoadDiskFrom(const std::string& path) {
  ARIESRH_ASSIGN_OR_RETURN(*disk_, SimulatedDisk::LoadFrom(path, &stats_));
  // The stall knobs are open-time properties, not part of the image.
  disk_->set_log_random_read_stall_ns(options_.sim_log_random_read_ns);
  disk_->set_log_force_stall_ns(options_.sim_log_force_ns);
  return Status::OK();
}

Result<EngineShard::BackupImage> EngineShard::Backup() {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // A backup clones the stable pages, so every pending on-demand redo (and
  // the background undo's CLRs) must land first.
  ARIESRH_RETURN_IF_ERROR(AwaitInstantRecovery());
  // Sharp backup: every logged update reaches the stable pages first, and a
  // checkpoint records the tables/redo point the restore will start from.
  ARIESRH_RETURN_IF_ERROR(pool_->FlushAll());
  ARIESRH_RETURN_IF_ERROR(heap_->FlushAll());
  ARIESRH_RETURN_IF_ERROR(Checkpoint());
  BackupImage backup;
  backup.pages = disk_->ClonePages();
  backup.master_record = disk_->master_record();
  backup.backup_end_lsn = log_->flushed_lsn();
  // The replay window: everything the backup's checkpoint makes recovery
  // read again. Analysis anchors at CKPT_BEGIN and redo at the checkpoint's
  // redo point; the backup must carry the log from the earlier of the two,
  // or a standby seeded mid-stream could never be recovered.
  ARIESRH_ASSIGN_OR_RETURN(LogRecord end_rec, log_->Read(backup.master_record));
  ARIESRH_ASSIGN_OR_RETURN(CheckpointData ckpt,
                           CheckpointData::Deserialize(end_rec.ckpt_payload));
  backup.window_start = std::min(ckpt.RedoStart(backup.master_record),
                                 ckpt.AnalysisStart(backup.master_record));
  // Through a cursor, under the log's lock: the flusher may be appending
  // to the stable log meanwhile.
  LogCursor cursor(*log_, backup.window_start, backup.master_record);
  while (cursor.Step()) backup.log_window.emplace_back(cursor.image());
  ARIESRH_RETURN_IF_ERROR(cursor.status());
  return backup;
}

Status EngineShard::RestoreFromBackup(const BackupImage& backup) {
  if (!crashed_) {
    return Status::IllegalState(
        "restore only applies after a (media) failure");
  }
  if (backup.master_record == 0) {
    return Status::InvalidArgument("backup image has no checkpoint");
  }
  // Rolling the backup forward requires the log from its checkpoint on.
  if (disk_->first_retained_lsn() > backup.master_record) {
    return Status::IllegalState(
        "log needed to roll the backup forward was archived");
  }
  disk_->RestorePages(backup.pages);
  disk_->SetMasterRecord(backup.master_record);
  return Status::OK();
}

Result<uint64_t> EngineShard::ArchiveLog(Lsn retain_from) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // The pending redo plan and the background undo both still read the log
  // suffix; archiving under them could drop records they need.
  ARIESRH_RETURN_IF_ERROR(AwaitInstantRecovery());
  if (options_.delegation_mode != DelegationMode::kRH &&
      options_.delegation_mode != DelegationMode::kDisabled) {
    return Status::NotSupported(
        "log archiving requires checkpoint-based recovery (kRH/kDisabled)");
  }
  std::lock_guard admin(admin_mu_);
  const Lsn master = disk_->master_record();
  if (master == 0 || master > log_->flushed_lsn()) {
    return Status::IllegalState("take a checkpoint before archiving");
  }
  ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log_->Read(master));
  if (rec.type != LogRecordType::kCkptEnd) {
    return Status::Corruption("master record does not point at CKPT_END");
  }
  ARIESRH_ASSIGN_OR_RETURN(CheckpointData ckpt,
                           CheckpointData::Deserialize(rec.ckpt_payload));

  // Everything recovery could ever need again must stay: the checkpoint
  // from its CKPT_BEGIN on (analysis re-scans the fuzzy window), its redo
  // point, every live transaction's chain, every update covered by a live
  // scope (delegated responsibility pins history), and the caller's
  // explicit pin (e.g. a standby's unshipped suffix). RedoStart covers the
  // CKPT_BEGIN anchor by construction. Prepared transactions count as live:
  // their fate is the coordinator's, so their chains must survive restart.
  // The transaction walk uses the fenced snapshot, so no delegation
  // mid-transfer can hide a scope from this bound.
  Lsn safe = std::min(master, ckpt.RedoStart(master));
  for (const auto& [id, tx] : txn_manager_->SnapshotTransactions()) {
    if (tx.state != TxnState::kActive && tx.state != TxnState::kPrepared) {
      continue;
    }
    safe = std::min(safe, tx.first_lsn);
    for (const auto& [ob, entry] : tx.ob_list) {
      for (const Scope& scope : entry.scopes) {
        safe = std::min(safe, scope.first);
      }
    }
  }
  if (retain_from != kInvalidLsn) safe = std::min(safe, retain_from);
  const uint64_t archived = log_->ArchivePrefix(safe);
  stats_.archived_records += archived;
  UpdateLogLiveGauge();
  return archived;
}

void EngineShard::SimulateCrash() {
  // An in-flight instant restart goes first: Cancel joins its background
  // worker, so nothing concurrently drives the components (or starts the
  // daemon via on_complete) once the teardown below begins. This is also
  // the crash-mid-background-undo model — CLRs are idempotent through the
  // compensated set, so the next restart repeats whatever was cut short.
  if (instant_ != nullptr) {
    instant_->Cancel(Status::Aborted("crash during instant restart"));
  }
  // The daemon goes next — its thread drives the components about to be
  // discarded, so it must be joined before any of them is reset.
  daemon_.reset();
  instant_.reset();
  // Everything volatile disappears; the simulated disk survives — and so
  // does the observability bundle, by design: the trace is how a crash is
  // observed after the fact.
  obs::Emit(&obs_->trace, obs::TraceEventType::kCrash,
            log_ != nullptr ? log_->flushed_lsn() : 0);
  log_.reset();
  pool_.reset();
  locks_.reset();
  txn_manager_.reset();
  heap_.reset();
  crashed_ = true;
}

Status EngineShard::Restart(const coord::Resolution* resolution,
                            std::shared_ptr<RecoveryHandle> handle) {
  if (!crashed_) {
    return Status::IllegalState("StartRecovery() without a preceding crash");
  }
  auto restart = [&]() -> Status {
    ARIESRH_RETURN_IF_ERROR(RecoveryManager::TruncateTornTail(disk_.get()));
    BuildVolatileComponents();
    if (options_.recovery_mode == RecoveryMode::kInstant) {
      instant_ = std::make_unique<InstantRestart>(
          options_, disk_.get(), log_.get(), pool_.get(), &stats_, heap_.get(),
          obs_->registry.GetGauge("ariesrh_undo_backlog", labels_),
          test_hook_);
      // Flipped before Start spawns the background worker: on a very fast
      // drain, on_complete's checkpoint would otherwise race this write (and
      // bounce off EnsureUsable). Nothing else can reach the shard yet — the
      // facade publishes it only after this returns.
      crashed_ = false;
      TxnId next_txn_id = 0;
      ARIESRH_RETURN_IF_ERROR(instant_->Start(
          resolution, std::move(handle), &next_txn_id, [this] {
            // Runs on the background thread once both lazy passes drained:
            // the shard is fully recovered, so its gauge reads the restarted
            // log and its daemon starts now.
            UpdateLogLiveGauge();
            if (daemon_ != nullptr) daemon_->Start();
          }));
      txn_manager_->SetNextTxnId(next_txn_id);
      return Status::OK();
    }
    // kFull: every pass runs here, before the shard opens.
    RecoveryManager recovery(options_, disk_.get(), log_.get(), pool_.get(),
                             &stats_, heap_.get(), test_hook_);
    ARIESRH_ASSIGN_OR_RETURN(RecoveryManager::Outcome outcome,
                             recovery.Recover(resolution));
    txn_manager_->SetNextTxnId(outcome.next_txn_id);
    crashed_ = false;
    UpdateLogLiveGauge();
    if (daemon_ != nullptr) daemon_->Start();
    handle->ShardDone(outcome);
    return Status::OK();
  };
  Status status = restart();
  // A shard that never opened backs out to the crashed state, so another
  // restart still applies. The caller reports the failure.
  if (!status.ok()) SimulateCrash();
  return status;
}

Status EngineShard::WaitForObjectRecovery(ObjectId ob) {
  if (instant_ == nullptr) return Status::OK();
  return instant_->WaitForObject(ob);
}

Status EngineShard::WaitForAllRecovery() {
  if (instant_ == nullptr) return Status::OK();
  return instant_->WaitForAll();
}

Status EngineShard::AwaitInstantRecovery() {
  if (instant_ == nullptr) return Status::OK();
  return instant_->Await();
}

Result<int64_t> EngineShard::ReadCommitted(ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  // Gated like the transactional read: a committed read must not observe a
  // loser value the background sweep has not yet rolled back.
  ARIESRH_RETURN_IF_ERROR(WaitForObjectRecovery(ob));
  // WithPage, not Fetch: the oracle read is allowed while workers run, and
  // their fetches may evict this page the moment the pool latch drops.
  int64_t value = 0;
  ARIESRH_RETURN_IF_ERROR(pool_->WithPage(PageOf(ob), [&](Page* page) -> Lsn {
    value = page->Get(SlotOf(ob));
    return kInvalidLsn;  // not modified
  }));
  return value;
}

Result<std::optional<std::string>> EngineShard::TableGetCommitted(
    const std::string& key) {
  ARIESRH_RETURN_IF_ERROR(EnsureUsable());
  ARIESRH_RETURN_IF_ERROR(WaitForObjectRecovery(table::TableRid(key)));
  return heap_->Read(key);
}

}  // namespace ariesrh
