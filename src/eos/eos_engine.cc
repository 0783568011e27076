#include "eos/eos_engine.h"

#include <algorithm>
#include <map>

#include "obs/trace.h"
#include "storage/page.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace ariesrh::eos {

namespace {

// A global-log commit unit: txn id + the filtered private log, CRC-guarded.
std::string SerializeCommitUnit(TxnId txn,
                                const std::vector<PrivateLogEntry>& entries) {
  std::string out;
  PutVarint64(&out, txn);
  PrivateLog::SerializeEntries(entries, &out);
  PutFixed32(&out, crc32c::Mask(crc32c::Value(out)));
  return out;
}

Status DeserializeCommitUnit(std::string_view image, TxnId* txn,
                             std::vector<PrivateLogEntry>* entries) {
  if (image.size() < 5) return Status::Corruption("commit unit too short");
  const size_t body_len = image.size() - 4;
  Decoder crc_dec(image.data() + body_len, 4);
  uint32_t stored = 0;
  ARIESRH_RETURN_IF_ERROR(crc_dec.GetFixed32(&stored));
  if (crc32c::Unmask(stored) != crc32c::Value(image.data(), body_len)) {
    return Status::Corruption("commit unit CRC mismatch");
  }
  Decoder dec(image.data(), body_len);
  ARIESRH_RETURN_IF_ERROR(dec.GetVarint64(txn));
  const std::string body(image.data(), body_len);
  size_t offset = body_len - dec.remaining();
  ARIESRH_RETURN_IF_ERROR(
      PrivateLog::DeserializeEntries(body, &offset, entries));
  if (offset != body_len) {
    return Status::Corruption("trailing bytes in commit unit");
  }
  return Status::OK();
}

}  // namespace

EosEngine::EosEngine() {
  stats_.AttachObservability(&obs_);
  disk_ = std::make_unique<SimulatedDisk>(&stats_);
}

Result<EosEngine::Txn*> EosEngine::FindActive(TxnId txn) {
  if (crashed_) {
    return Status::IllegalState("engine crashed; call Recover() first");
  }
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " is not active");
  }
  return &it->second;
}

Result<TxnId> EosEngine::Begin() {
  if (crashed_) {
    return Status::IllegalState("engine crashed; call Recover() first");
  }
  const TxnId id = next_txn_id_++;
  txns_[id].id = id;
  ++stats_.txns_begun;
  obs::Emit(&obs_.trace, obs::TraceEventType::kTxnBegin, id);
  return id;
}

Result<int64_t> EosEngine::Read(TxnId txn, ObjectId ob) {
  ARIESRH_ASSIGN_OR_RETURN(Txn * tx, FindActive(txn));
  ARIESRH_RETURN_IF_ERROR(locks_.Acquire(txn, ob, LockMode::kShared));
  if (auto own = tx->log.LiveValue(ob)) return *own;
  auto it = db_.find(ob);
  return it == db_.end() ? 0 : it->second;
}

Status EosEngine::Write(TxnId txn, ObjectId ob, int64_t value) {
  ARIESRH_ASSIGN_OR_RETURN(Txn * tx, FindActive(txn));
  ARIESRH_RETURN_IF_ERROR(locks_.Acquire(txn, ob, LockMode::kExclusive));
  tx->log.AppendWrite(ob, value);
  return Status::OK();
}

Status EosEngine::Delegate(TxnId from, TxnId to,
                           const std::vector<ObjectId>& objects) {
  if (from == to) return Status::InvalidArgument("cannot delegate to self");
  ARIESRH_ASSIGN_OR_RETURN(Txn * tor, FindActive(from));
  ARIESRH_ASSIGN_OR_RETURN(Txn * tee, FindActive(to));

  for (ObjectId ob : objects) {
    if (!tor->log.Covers(ob)) {
      return Status::InvalidArgument(
          "delegator has no live updates on object " + std::to_string(ob));
    }
  }
  for (ObjectId ob : objects) {
    std::optional<int64_t> image = tor->log.DelegateAway(ob);
    // Covers() above guarantees a live value existed.
    tee->log.AppendDelegatedImage(ob, *image, from);
    locks_.Transfer(from, to, ob);
  }
  ++stats_.delegations;
  stats_.scopes_transferred += objects.size();
  obs::Emit(&obs_.trace, obs::TraceEventType::kDelegate, from, to,
            objects.size());
  return Status::OK();
}

Status EosEngine::DelegateAll(TxnId from, TxnId to) {
  ARIESRH_ASSIGN_OR_RETURN(Txn * tor, FindActive(from));
  std::vector<ObjectId> objects = tor->log.LiveObjects();
  if (objects.empty()) return Status::OK();
  return Delegate(from, to, objects);
}

Status EosEngine::Permit(TxnId owner, TxnId grantee, ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(FindActive(owner).status());
  ARIESRH_RETURN_IF_ERROR(FindActive(grantee).status());
  locks_.Permit(owner, grantee, ob);
  return Status::OK();
}

Status EosEngine::Commit(TxnId txn) {
  ARIESRH_ASSIGN_OR_RETURN(Txn * tx, FindActive(txn));
  const std::vector<PrivateLogEntry> entries = tx->log.FilteredEntries();

  // Force the commit unit into the global log, then install the changes.
  std::string unit = SerializeCommitUnit(txn, entries);
  ++stats_.log_appends;
  stats_.log_bytes_appended += unit.size();
  disk_->AppendLogRecord(unit);
  disk_->ForceLog();

  ARIESRH_RETURN_IF_ERROR(ApplyEntries(entries));
  locks_.ReleaseAll(txn);
  txns_.erase(txn);
  ++stats_.txns_committed;
  obs::Emit(&obs_.trace, obs::TraceEventType::kTxnCommit, txn,
            disk_->stable_end_lsn());
  return Status::OK();
}

Status EosEngine::Abort(TxnId txn) {
  ARIESRH_ASSIGN_OR_RETURN(Txn * tx, FindActive(txn));
  (void)tx;  // the private log simply disappears — NO-UNDO
  locks_.ReleaseAll(txn);
  txns_.erase(txn);
  ++stats_.txns_aborted;
  obs::Emit(&obs_.trace, obs::TraceEventType::kTxnAbort, txn);
  return Status::OK();
}

Status EosEngine::ApplyEntries(const std::vector<PrivateLogEntry>& entries) {
  for (const PrivateLogEntry& entry : entries) {
    // Both kinds install a full object image: the transaction's own write,
    // or the state received at delegation time.
    db_[entry.object] = entry.value;
  }
  return Status::OK();
}

Status EosEngine::Checkpoint() {
  if (crashed_) {
    return Status::IllegalState("engine crashed; call Recover() first");
  }
  // Pack the committed state into stable page images.
  std::map<PageId, Page> pages;
  for (const auto& [ob, value] : db_) {
    auto [it, inserted] = pages.try_emplace(PageOf(ob), PageOf(ob));
    it->second.Set(SlotOf(ob), value);
  }
  for (const auto& [id, page] : pages) {
    ARIESRH_RETURN_IF_ERROR(disk_->WritePage(id, page.Serialize()));
  }
  // The snapshot reflects the global log up to its current durable end.
  disk_->SetMasterRecord(disk_->stable_end_lsn());
  return Status::OK();
}

void EosEngine::SimulateCrash() {
  obs::Emit(&obs_.trace, obs::TraceEventType::kCrash,
            disk_->stable_end_lsn());
  db_.clear();
  txns_.clear();
  locks_.Reset();
  crashed_ = true;
}

Status EosEngine::Recover() {
  if (!crashed_) {
    return Status::IllegalState("Recover() without a preceding crash");
  }
  ++stats_.recovery_passes;

  // Restore the last checkpoint image, if one exists; only the log suffix
  // after it needs replaying.
  const Lsn snapshot_through = disk_->master_record();
  if (snapshot_through > 0) {
    for (PageId id : disk_->StablePageIds()) {
      ARIESRH_ASSIGN_OR_RETURN(const PageImage image, disk_->ReadPage(id));
      ARIESRH_ASSIGN_OR_RETURN(Page page, Page::Deserialize(*image));
      for (uint32_t slot = 0; slot < kObjectsPerPage; ++slot) {
        const int64_t value = page.Get(slot);
        if (value != 0) {
          db_[static_cast<ObjectId>(id) * kObjectsPerPage + slot] = value;
        }
      }
    }
  }

  obs::Emit(&obs_.trace, obs::TraceEventType::kRecoveryPassBegin,
            static_cast<uint64_t>(obs::RecoveryPassKind::kEosRedo),
            snapshot_through + 1, disk_->stable_end_lsn());
  const uint64_t redos_before = stats_.recovery_redos;
  uint64_t pass_records = 0;
  TxnId max_txn = 0;
  // Run reads of up to 64 commit units, each unit accounted as it is
  // replayed.
  const Lsn end = disk_->stable_end_lsn();
  std::string bytes;
  std::vector<uint32_t> ends;
  for (Lsn lo = snapshot_through + 1; lo <= end; lo += ends.size()) {
    bytes.clear();
    ends.clear();
    disk_->ReadLogRun(lo, std::min<Lsn>(end, lo + 63), &bytes, &ends);
    for (size_t i = 0; i < ends.size(); ++i) {
      const uint32_t from = i == 0 ? 0 : ends[i - 1];
      const std::string_view image(bytes.data() + from, ends[i] - from);
      disk_->CountLogRead(lo + i, image.size());
      ++stats_.recovery_forward_records;
      ++pass_records;
      TxnId txn = kInvalidTxn;
      std::vector<PrivateLogEntry> entries;
      ARIESRH_RETURN_IF_ERROR(DeserializeCommitUnit(image, &txn, &entries));
      stats_.recovery_redos += entries.size();
      ARIESRH_RETURN_IF_ERROR(ApplyEntries(entries));
      max_txn = std::max(max_txn, txn);
    }
  }
  obs::Emit(&obs_.trace, obs::TraceEventType::kRecoveryPassEnd,
            static_cast<uint64_t>(obs::RecoveryPassKind::kEosRedo),
            pass_records, stats_.recovery_redos - redos_before);
  next_txn_id_ = std::max(next_txn_id_, max_txn + 1);
  crashed_ = false;
  return Status::OK();
}

Result<int64_t> EosEngine::ReadCommitted(ObjectId ob) const {
  if (crashed_) {
    return Status::IllegalState("engine crashed; call Recover() first");
  }
  auto it = db_.find(ob);
  return it == db_.end() ? 0 : it->second;
}

}  // namespace ariesrh::eos
