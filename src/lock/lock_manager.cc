#include "lock/lock_manager.h"

#include <algorithm>
#include <vector>

#include "obs/trace.h"

namespace ariesrh {

const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kShared:
      return "S";
    case LockMode::kIncrement:
      return "I";
    case LockMode::kExclusive:
      return "X";
  }
  return "?";
}

bool LockModesCompatible(LockMode a, LockMode b) {
  if (a == LockMode::kExclusive || b == LockMode::kExclusive) return false;
  // S-S and I-I are compatible; S-I is not (an increment changes the value a
  // reader depends on).
  return a == b;
}

LockManager::Holder* LockManager::ObjectLocks::FindHolder(TxnId txn) {
  for (Holder& h : holders) {
    if (h.txn == txn) return &h;
  }
  return nullptr;
}

const LockManager::Holder* LockManager::ObjectLocks::FindHolder(
    TxnId txn) const {
  for (const Holder& h : holders) {
    if (h.txn == txn) return &h;
  }
  return nullptr;
}

bool LockManager::ObjectLocks::HasPermit(TxnId owner, TxnId grantee) const {
  for (const PermitPair& p : permits) {
    if (p.owner == owner && p.grantee == grantee) return true;
  }
  return false;
}

Status LockManager::Acquire(TxnId txn, ObjectId ob, LockMode mode,
                            CommitDependencyList* elr_deps) {
  Shard& shard = ShardFor(ob);
  std::lock_guard lock(shard.mu);
  ObjectLocks& locks = shard.table[ob];
  Holder* self = locks.FindHolder(txn);
  if (self != nullptr && self->mode >= mode) {
    return Status::OK();  // already held in an equal or stronger mode
  }
  // Dependencies go to a scratch list first: a kBusy result must not leave
  // partial entries in the caller's accumulator.
  CommitDependencyList picked_up;
  if (ConflictsIgnoringPermits(locks, txn, mode,
                               elr_deps != nullptr ? &picked_up : nullptr)) {
    if (stats_ != nullptr) {
      ++stats_->lock_conflicts;
      obs::Emit(stats_->trace(), obs::TraceEventType::kLockConflict, txn, ob,
                static_cast<uint64_t>(mode));
    }
    return Status::Busy("lock conflict on object " + std::to_string(ob) +
                        " requested " + LockModeName(mode));
  }
  if (self != nullptr) {
    self->mode = mode;  // upgrade
  } else {
    locks.holders.push_back(Holder{txn, mode, false, kInvalidLsn});
    shard.held[txn].push_back(ob);
  }
  if (elr_deps != nullptr) {
    elr_deps->insert(elr_deps->end(), picked_up.begin(), picked_up.end());
  }
  if (stats_ != nullptr) {
    ++stats_->lock_acquires;
    obs::Emit(stats_->trace(), obs::TraceEventType::kLockGrant, txn, ob,
              static_cast<uint64_t>(mode));
  }
  return Status::OK();
}

bool LockManager::ConflictsIgnoringPermits(
    const ObjectLocks& locks, TxnId requester, LockMode mode,
    CommitDependencyList* elr_deps) const {
  for (const Holder& holder : locks.holders) {
    if (holder.txn == requester) continue;
    if (LockModesCompatible(holder.mode, mode)) continue;
    if (locks.HasPermit(holder.txn, requester)) continue;
    if (holder.early_released && elr_deps != nullptr) {
      // The holder's COMMIT record is already appended; instead of blocking,
      // the requester orders its own commit after the holder's.
      elr_deps->push_back(CommitDependency{holder.txn, holder.commit_lsn});
      continue;
    }
    return true;
  }
  return false;
}

void LockManager::MarkEarlyReleased(TxnId txn, Lsn commit_lsn) {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    auto held = shard.held.find(txn);
    if (held == shard.held.end()) continue;
    for (ObjectId ob : held->second) {
      auto locks = shard.table.find(ob);
      if (locks == shard.table.end()) continue;
      if (Holder* h = locks->second.FindHolder(txn)) {
        h->early_released = true;
        h->commit_lsn = commit_lsn;
      }
    }
  }
}

void LockManager::ReleaseAll(TxnId txn) {
  // One shard at a time; each shard's table and held index stay mutually
  // consistent under its own mutex.
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    auto held = shard.held.find(txn);
    if (held == shard.held.end()) continue;
    for (ObjectId ob : held->second) {
      auto locks = shard.table.find(ob);
      if (locks == shard.table.end()) continue;
      std::erase_if(locks->second.holders,
                    [txn](const Holder& h) { return h.txn == txn; });
      // Permits granted by a terminated owner are moot; drop them.
      std::erase_if(locks->second.permits,
                    [txn](const PermitPair& p) { return p.owner == txn; });
      if (locks->second.holders.empty() && locks->second.permits.empty()) {
        shard.table.erase(locks);
      }
    }
    shard.held.erase(held);
  }
}

void LockManager::DropFromHeld(Shard& shard, TxnId txn, ObjectId ob) {
  auto held = shard.held.find(txn);
  if (held == shard.held.end()) return;
  std::vector<ObjectId>& obs = held->second;
  auto it = std::find(obs.begin(), obs.end(), ob);
  if (it != obs.end()) obs.erase(it);
  if (obs.empty()) shard.held.erase(held);
}

void LockManager::Release(TxnId txn, ObjectId ob) {
  Shard& shard = ShardFor(ob);
  std::lock_guard lock(shard.mu);
  auto locks = shard.table.find(ob);
  if (locks != shard.table.end()) {
    std::erase_if(locks->second.holders,
                  [txn](const Holder& h) { return h.txn == txn; });
    if (locks->second.holders.empty() && locks->second.permits.empty()) {
      shard.table.erase(locks);
    }
  }
  DropFromHeld(shard, txn, ob);
}

void LockManager::Transfer(TxnId from, TxnId to, ObjectId ob) {
  Shard& shard = ShardFor(ob);
  std::lock_guard lock(shard.mu);
  auto locks = shard.table.find(ob);
  if (locks == shard.table.end()) return;
  std::vector<Holder>& holders = locks->second.holders;
  auto source = std::find_if(holders.begin(), holders.end(),
                             [from](const Holder& h) { return h.txn == from; });
  if (source == holders.end()) return;
  if (stats_ != nullptr) ++stats_->lock_transfers;
  const LockMode mode = source->mode;
  holders.erase(source);
  DropFromHeld(shard, from, ob);

  if (Holder* target = locks->second.FindHolder(to)) {
    target->mode = std::max(target->mode, mode);
  } else {
    holders.push_back(Holder{to, mode, false, kInvalidLsn});
    shard.held[to].push_back(ob);
  }
}

void LockManager::Permit(TxnId owner, TxnId grantee, ObjectId ob) {
  Shard& shard = ShardFor(ob);
  std::lock_guard lock(shard.mu);
  ObjectLocks& locks = shard.table[ob];
  if (!locks.HasPermit(owner, grantee)) {
    locks.permits.push_back(PermitPair{owner, grantee});
  }
  if (stats_ != nullptr) ++stats_->lock_permits;
}

bool LockManager::Holds(TxnId txn, ObjectId ob, LockMode mode) const {
  const Shard& shard = ShardFor(ob);
  std::lock_guard lock(shard.mu);
  auto locks = shard.table.find(ob);
  if (locks == shard.table.end()) return false;
  const Holder* holder = locks->second.FindHolder(txn);
  return holder != nullptr && !holder->early_released && holder->mode >= mode;
}

std::map<ObjectId, LockMode> LockManager::HeldLocks(TxnId txn) const {
  std::map<ObjectId, LockMode> out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    auto held = shard.held.find(txn);
    if (held == shard.held.end()) continue;
    for (ObjectId ob : held->second) {
      auto locks = shard.table.find(ob);
      if (locks == shard.table.end()) continue;
      if (const Holder* holder = locks->second.FindHolder(txn)) {
        out[ob] = holder->mode;
      }
    }
  }
  return out;
}

void LockManager::Reset() {
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    shard.table.clear();
    shard.held.clear();
  }
}

}  // namespace ariesrh
