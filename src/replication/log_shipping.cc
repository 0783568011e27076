#include "replication/log_shipping.h"

#include <string>
#include <vector>

namespace ariesrh::replication {

StandbyReplica::StandbyReplica(Options options)
    : db_(std::make_unique<Database>(options)) {
  // A standby is permanently "crashed": it has no volatile state, only the
  // stable storage the shipping fills. Promotion is literally recovery.
  db_->SimulateCrash();
  shipped_.assign(db_->num_shards(), 0);
}

Status StandbyReplica::SeedFromBackup(const Database::BackupImage& backup) {
  if (db_->num_shards() != 1) {
    return Status::NotSupported(
        "backup seeding covers single-shard engines only");
  }
  if (shipped_[0] != 0) {
    return Status::IllegalState("seed before the first sync");
  }
  if (backup.log_window.empty() || backup.master_record == 0 ||
      backup.window_start == 0) {
    return Status::InvalidArgument(
        "backup image lacks the checkpoint's log window");
  }
  ARIESRH_RETURN_IF_ERROR(db_->RestoreFromBackup(backup));
  // Pages reflect the log through the backup point. The standby's log
  // starts mid-stream: it holds the backup checkpoint's replay window
  // [window_start .. master_record] — CKPT_BEGIN through CKPT_END plus any
  // earlier redo-point records — positioned at its original LSNs, so
  // promotion's begin-anchored analysis and redo find every record they
  // scan. Shipping resumes after the backup point.
  SimulatedDisk* disk = db_->shard(0)->disk();
  ARIESRH_RETURN_IF_ERROR(disk->SetLogBase(backup.window_start - 1));
  disk->AppendLogRecords(backup.log_window);
  // Resume shipping right after the checkpoint; anything between it and the
  // backup end is re-shipped and re-applied idempotently (page LSN checks).
  shipped_[0] = backup.master_record;
  return Status::OK();
}

Status StandbyReplica::SyncFrom(const Database& primary) {
  Database& source_db = const_cast<Database&>(primary);  // read-only access
  if (source_db.num_shards() != db_->num_shards()) {
    return Status::InvalidArgument(
        "primary and standby shard counts differ");
  }
  for (size_t i = 0; i < db_->num_shards(); ++i) {
    // Through the source's LogManager, under its lock: the primary may be
    // forcing (appending to the stable log) and archiving meanwhile.
    const LogManager& source = *source_db.shard(i)->log_manager();
    const Lsn durable = source.flushed_lsn();
    if (source.first_retained_lsn() > shipped_[i] + 1) {
      return Status::IllegalState(
          "primary archived log the standby still needs; reseed from backup");
    }
    std::vector<std::string> batch;
    LogCursor cursor(source, shipped_[i] + 1, durable);
    while (cursor.Step()) batch.emplace_back(cursor.image());
    ARIESRH_RETURN_IF_ERROR(cursor.status());
    if (!batch.empty()) {
      db_->shard(i)->disk()->AppendLogRecords(batch);
      shipped_[i] = durable;
    }
  }
  // The coordinator's durable decisions ship too (ship-once, like the shard
  // logs): a promoted standby resolves its in-doubt cross-shard rounds from
  // this copy exactly as the primary's restart would.
  if (source_db.coordinator_log() != nullptr) {
    const std::vector<std::string> images =
        source_db.coordinator_log()->StableImagesFrom(coord_shipped_);
    if (!images.empty()) {
      ARIESRH_RETURN_IF_ERROR(
          db_->coordinator_log()->AppendStableImages(images));
      coord_shipped_ += images.size();
    }
  }
  // The primary's master record deliberately does NOT travel. A checkpoint
  // promises "pages the dirty-page snapshot calls clean already reflect
  // everything before RedoStart" — a promise about the *primary's* pages.
  // This standby's pages reflect at most its seed backup (nothing at all if
  // log-only), so anchoring promotion at a later shipped checkpoint would
  // make redo skip updates these pages never received. Only the seed
  // backup's own checkpoint (installed by SeedFromBackup, whose pages we
  // did restore) is a sound anchor; otherwise promotion replays from the
  // log head, which is always correct.
  return Status::OK();
}

Result<std::unique_ptr<Database>> StandbyReplica::Promote() && {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<RecoveryHandle> handle,
                           db_->StartRecovery());
  ARIESRH_RETURN_IF_ERROR(handle->Await().status());
  return std::move(db_);
}

Result<reenact::Reenactor> StandbyReplica::Reenact() const {
  std::vector<SimulatedDisk*> disks;
  disks.reserve(db_->num_shards());
  for (size_t i = 0; i < db_->num_shards(); ++i) {
    disks.push_back(db_->shard(i)->disk());
  }
  coord::Resolution resolution;
  if (db_->coordinator_log() != nullptr) {
    resolution = db_->coordinator_log()->resolution();
  }
  return reenact::Reenactor::OpenQuiescentDisks(db_->options(), disks,
                                                std::move(resolution));
}

}  // namespace ariesrh::replication
