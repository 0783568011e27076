#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_set>

#include "obs/trace.h"
#include "recovery/redo.h"
#include "recovery/rewrite_baselines.h"
#include "recovery/undo_conventional.h"
#include "recovery/undo_rh.h"

namespace ariesrh {
namespace {

// Commit, abort, prepare and delegation all refuse a transaction whose
// commit or abort has already begun.
Status RefuseTerminating(const Transaction& tx) {
  if (!tx.terminating) return Status::OK();
  return Status::IllegalState("transaction " + std::to_string(tx.id) +
                              " is committing or aborting");
}

}  // namespace

TxnManager::TxnManager(const Options& options, LogManager* log,
                       BufferPool* pool, LockManager* locks, Stats* stats,
                       table::TableHeap* heap)
    : options_(options),
      log_(log),
      pool_(pool),
      locks_(locks),
      stats_(stats),
      heap_(heap) {
  if (obs::MetricsRegistry* registry = stats->registry()) {
    commit_ns_ = registry->GetHistogram("ariesrh_txn_commit_ns");
    commit_latency_ns_ = registry->GetHistogram("ariesrh_commit_latency_ns");
    table_scan_len_ = registry->GetHistogram(
        "ariesrh_table_scan_len", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  }
}

Status TxnManager::AcquireLock(TxnId txn, ObjectId ob, LockMode mode) {
  if (!options_.early_lock_release) {
    return locks_->Acquire(txn, ob, mode);
  }
  LockManager::CommitDependencyList elr_deps;
  ARIESRH_RETURN_IF_ERROR(locks_->Acquire(txn, ob, mode, &elr_deps));
  for (const LockManager::CommitDependency& dep : elr_deps) {
    std::lock_guard deps_lock(deps_mu_);
    // A cycle rejection cannot happen here — the dependency is already past
    // its COMMIT append and takes no further dependencies — but if the graph
    // ever refuses, failing the operation is the conservative side: the lock
    // is held, the transaction will abort and release it.
    ARIESRH_RETURN_IF_ERROR(
        deps_.AddCommitDurable(txn, dep.on, dep.commit_lsn));
  }
  return Status::OK();
}

Result<TxnId> TxnManager::BeginWithId(TxnId id) {
  auto tx = std::make_shared<Transaction>();
  tx->id = id;
  tx->first_lsn = tx->last_lsn = log_->Append(LogRecord::MakeBegin(id));
  {
    std::unique_lock table_lock(table_mu_);
    const bool fresh = txns_.emplace(id, std::move(tx)).second;
    assert(fresh && "transaction enlisted twice on one shard");
    (void)fresh;
    // Every writer of the counter holds the table lock, so it only grows:
    // it stays past every id begun here, which a checkpoint records and
    // restart seeds the facade from.
    if (id >= next_txn_id()) {
      next_txn_id_.store(id + 1, std::memory_order_relaxed);
    }
  }
  ++stats_->txns_begun;
  obs::Emit(stats_->trace(), obs::TraceEventType::kTxnBegin, id);
  return id;
}

Result<std::shared_ptr<Transaction>> TxnManager::FindActive(TxnId txn) {
  std::shared_lock table_lock(table_mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " does not exist");
  }
  if (it->second->state != TxnState::kActive) {
    return Status::IllegalState("transaction " + std::to_string(txn) +
                                " is " + TxnStateName(it->second->state));
  }
  // The reference outlives the table lock: another session may terminate
  // the transaction and a checkpoint reap it meanwhile, and the caller's
  // latch and state re-checks must still land on live memory.
  return it->second;
}

Result<std::shared_ptr<Transaction>> TxnManager::FindPrepared(TxnId txn) {
  std::shared_lock table_lock(table_mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::NotFound("transaction " + std::to_string(txn) +
                            " does not exist");
  }
  if (it->second->state != TxnState::kPrepared) {
    return Status::IllegalState("transaction " + std::to_string(txn) +
                                " is " + TxnStateName(it->second->state) +
                                ", not prepared");
  }
  return it->second;
}

const Transaction* TxnManager::Find(TxnId txn) const {
  std::shared_lock table_lock(table_mu_);
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

std::optional<TxnState> TxnManager::StateOf(TxnId txn) const {
  std::shared_lock table_lock(table_mu_);
  auto it = txns_.find(txn);
  if (it != txns_.end()) return it->second->state.load();
  if (reaped_aborted_.contains(txn)) return TxnState::kAborted;
  // Every id from first_txn_id_ on was begun here, so one missing from the
  // table and not aborted is a reaped committed transaction. Older ids
  // (from before a restart) and ids never handed out are unknown.
  if (txn >= first_txn_id_ && txn < next_txn_id()) return TxnState::kCommitted;
  return std::nullopt;
}

bool TxnManager::IsActive(TxnId txn) const {
  return StateOf(txn) == TxnState::kActive;
}

void TxnManager::SetNextTxnId(TxnId next) {
  std::unique_lock table_lock(table_mu_);
  next_txn_id_.store(next, std::memory_order_relaxed);
  first_txn_id_ = next;
}

std::vector<ObjectId> TxnManager::ObjectsOf(TxnId txn) const {
  std::shared_ptr<const Transaction> tx;
  {
    std::shared_lock table_lock(table_mu_);
    auto it = txns_.find(txn);
    if (it == txns_.end()) return {};
    tx = it->second;
  }
  std::lock_guard latch(tx->latch);
  std::vector<ObjectId> objects;
  objects.reserve(tx->ob_list.size());
  for (const auto& [ob, entry] : tx->ob_list) objects.push_back(ob);
  return objects;
}

Result<int64_t> TxnManager::Read(TxnId txn, ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(FindActive(txn).status());
  ARIESRH_RETURN_IF_ERROR(AcquireLock(txn, ob, LockMode::kShared));
  // WithPage, not Fetch: a concurrent worker's fetch may evict the page the
  // moment the pool latch drops, so read the slot under it.
  int64_t value = 0;
  ARIESRH_RETURN_IF_ERROR(pool_->WithPage(PageOf(ob), [&](Page* page) -> Lsn {
    value = page->Get(SlotOf(ob));
    return kInvalidLsn;  // not modified
  }));
  return value;
}

Status TxnManager::Set(TxnId txn, ObjectId ob, int64_t value) {
  return DoUpdate(txn, ob, UpdateKind::kSet, LockMode::kExclusive, value);
}

Status TxnManager::Add(TxnId txn, ObjectId ob, int64_t delta) {
  return DoUpdate(txn, ob, UpdateKind::kAdd, LockMode::kIncrement, delta);
}

Status TxnManager::DoUpdate(TxnId txn, ObjectId ob, UpdateKind kind,
                            LockMode lock_mode, int64_t value_or_delta) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));
  ARIESRH_RETURN_IF_ERROR(AcquireLock(txn, ob, lock_mode));

  // The latch spans read-chain-head .. adjust-scopes so a concurrent
  // delegation involving this transaction cannot splice the backward chain
  // or move scopes mid-update. Lock order: latch, then pool latch (WithPage),
  // then the log.
  std::lock_guard latch(tx->latch);
  const uint32_t slot = SlotOf(ob);
  const int64_t after = value_or_delta;  // kSet: new value; kAdd: delta
  Lsn lsn = kInvalidLsn;
  ARIESRH_RETURN_IF_ERROR(pool_->WithPage(PageOf(ob), [&](Page* page) -> Lsn {
    // Before-image read, log append, and in-place application are one
    // critical section under the pool latch: concurrent updates to other
    // objects on the same page serialize here, and the page cannot be
    // evicted between the read and the write.
    const int64_t before = page->Get(slot);
    lsn = log_->Append(
        LogRecord::MakeUpdate(txn, tx->last_lsn, ob, kind, before, after));
    if (kind == UpdateKind::kSet) {
      page->Set(slot, after);
    } else {
      page->Add(slot, after);
    }
    page->set_page_lsn(lsn);
    return lsn;  // marks the page dirty with this record's LSN
  }));
  tx->last_lsn = lsn;

  // ADJUST SCOPES (Section 3.5, update step 1). Conventional DBSs already
  // keep a per-transaction Object List (paper Section 3.4); kDisabled
  // maintains that plain list so the "no delegation, no overhead" claim is
  // measured against the structure ARIES/RH actually augments.
  if (TrackScopes()) {
    ObjectEntry& entry = tx->ob_list[ob];
    entry.ExtendOrOpen(txn, lsn);
    if (kind == UpdateKind::kSet) entry.has_set_update = true;
  } else {
    tx->ob_list.try_emplace(ob);
  }
  return Status::OK();
}

Status TxnManager::CheckTableOp(const std::string& key) const {
  if (heap_ == nullptr) {
    return Status::IllegalState("this engine has no table heap attached");
  }
  // The rewriting baselines physically splice backward chains record by
  // record; they know nothing of the logical TBL_* types, so accepting a
  // table write under them would plant records their recovery corrupts.
  if (options_.delegation_mode != DelegationMode::kRH &&
      options_.delegation_mode != DelegationMode::kDisabled) {
    return Status::NotSupported(
        "table operations require delegation_mode rh or disabled; the "
        "rewriting baselines cannot interpret logical table records");
  }
  if (key.empty()) {
    return Status::InvalidArgument("table key must not be empty");
  }
  if (key.size() > table::kMaxKeyBytes) {
    return Status::InvalidArgument(
        "table key exceeds " + std::to_string(table::kMaxKeyBytes) +
        " bytes");
  }
  return Status::OK();
}

Status TxnManager::DoTableWrite(
    TxnId txn, ObjectId rid,
    const std::function<Result<Lsn>(Transaction* tx,
                                    const std::optional<std::string>&,
                                    table::RecordMutation*)>& fn,
    const std::string& key) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));
  ARIESRH_RETURN_IF_ERROR(
      AcquireLock(txn, TableLockIdOf(rid), LockMode::kExclusive));

  // Same shape as DoUpdate: the latch spans read-chain-head .. adjust-scopes
  // so a delegation involving this transaction cannot splice the chain or
  // move scopes mid-write. The heap latch (inside WithRecord) plays the
  // pool-latch role: before-image read, log append, and application are one
  // critical section.
  std::lock_guard latch(tx->latch);
  Lsn lsn = kInvalidLsn;
  ARIESRH_ASSIGN_OR_RETURN(
      lsn, heap_->WithRecord(
               key, [&](const std::optional<std::string>& current,
                        table::RecordMutation* mut) -> Result<Lsn> {
                 return fn(tx.get(), current, mut);
               }));
  tx->last_lsn = lsn;

  // ADJUST SCOPES, keyed by record identity: every table write is Set-like
  // (its undo restores a physical before image), so coverage must never be
  // split across responsibilities.
  if (TrackScopes()) {
    ObjectEntry& entry = tx->ob_list[rid];
    entry.ExtendOrOpen(txn, lsn);
    entry.has_set_update = true;
  } else {
    tx->ob_list.try_emplace(rid);
  }
  return Status::OK();
}

Result<std::optional<std::string>> TxnManager::TableGet(TxnId txn,
                                                        const std::string& key,
                                                        bool for_update) {
  ARIESRH_RETURN_IF_ERROR(CheckTableOp(key));
  ARIESRH_RETURN_IF_ERROR(FindActive(txn).status());
  const ObjectId rid = table::TableRid(key);
  ARIESRH_RETURN_IF_ERROR(AcquireLock(
      txn, TableLockIdOf(rid),
      for_update ? LockMode::kExclusive : LockMode::kShared));
  ++stats_->table_ops;
  ++stats_->table_gets;
  return heap_->Read(key);
}

Status TxnManager::TablePut(TxnId txn, const std::string& key,
                            const std::string& value) {
  ARIESRH_RETURN_IF_ERROR(CheckTableOp(key));
  if (value.size() > options_.table_max_value_bytes) {
    return Status::InvalidArgument(
        "table value exceeds table_max_value_bytes (" +
        std::to_string(options_.table_max_value_bytes) + ")");
  }
  const ObjectId rid = table::TableRid(key);
  ARIESRH_RETURN_IF_ERROR(DoTableWrite(
      txn, rid,
      [&](Transaction* tx, const std::optional<std::string>& current,
          table::RecordMutation* mut) -> Result<Lsn> {
        mut->op = table::RecordOp::kUpsert;
        mut->value = value;
        return log_->Append(
            current.has_value()
                ? LogRecord::MakeTableUpdate(txn, tx->last_lsn, rid, key,
                                             *current, value)
                : LogRecord::MakeTableInsert(txn, tx->last_lsn, rid, key,
                                             value));
      },
      key));
  ++stats_->table_ops;
  ++stats_->table_puts;
  return Status::OK();
}

Status TxnManager::TableDelete(TxnId txn, const std::string& key) {
  ARIESRH_RETURN_IF_ERROR(CheckTableOp(key));
  const ObjectId rid = table::TableRid(key);
  ARIESRH_RETURN_IF_ERROR(DoTableWrite(
      txn, rid,
      [&](Transaction* tx, const std::optional<std::string>& current,
          table::RecordMutation* mut) -> Result<Lsn> {
        if (!current.has_value()) {
          return Status::NotFound("no record under key \"" + key + "\"");
        }
        mut->op = table::RecordOp::kRemove;
        return log_->Append(LogRecord::MakeTableDelete(txn, tx->last_lsn, rid,
                                                       key, *current));
      },
      key));
  ++stats_->table_ops;
  ++stats_->table_deletes;
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>> TxnManager::TableScan(
    TxnId txn, const std::string& start_key, size_t limit) {
  if (heap_ == nullptr) {
    return Status::IllegalState("this engine has no table heap attached");
  }
  ARIESRH_RETURN_IF_ERROR(FindActive(txn).status());
  // The heap snapshot is atomic (one latch acquisition); each record is
  // then stabilized under a shared lock and re-read, so the result reflects
  // only lock-protected state. A key deleted between snapshot and lock
  // simply drops out.
  std::vector<std::pair<std::string, std::string>> out;
  for (auto& [key, value] : heap_->Scan(start_key, limit)) {
    ARIESRH_RETURN_IF_ERROR(AcquireLock(
        txn, TableLockIdOf(table::TableRid(key)), LockMode::kShared));
    if (std::optional<std::string> current = heap_->Read(key)) {
      out.emplace_back(key, std::move(*current));
    }
  }
  ++stats_->table_ops;
  ++stats_->table_scans;
  if (table_scan_len_ != nullptr) table_scan_len_->Observe(out.size());
  return out;
}

Status TxnManager::Permit(TxnId owner, TxnId grantee, ObjectId ob) {
  ARIESRH_RETURN_IF_ERROR(FindActive(owner).status());
  ARIESRH_RETURN_IF_ERROR(FindActive(grantee).status());
  locks_->Permit(owner, grantee, ob);
  return Status::OK();
}

Result<Lsn> TxnManager::Savepoint(TxnId txn) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));
  std::lock_guard latch(tx->latch);
  return tx->last_lsn;
}

Status TxnManager::RollbackTo(TxnId txn, Lsn savepoint) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));
  // The latch spans the whole rollback: scopes and the chain head are in
  // flux, so delegations and snapshots must wait it out.
  std::lock_guard latch(tx->latch);
  if (savepoint == kInvalidLsn || savepoint < tx->first_lsn) {
    return Status::InvalidArgument("savepoint predates the transaction");
  }
  if (savepoint >= tx->last_lsn) return Status::OK();  // nothing newer
  if (options_.delegation_mode == DelegationMode::kLazyRewrite &&
      tx->touched_by_delegation) {
    // The lazy baseline's recovery surgery moves this transaction's records
    // between chains, which would invalidate the CLR undo-next pointers a
    // partial rollback is about to create.
    return Status::NotSupported(
        "lazy-rewrite baseline cannot partially roll back a transaction "
        "involved in delegation");
  }
  ARIESRH_RETURN_IF_ERROR(RollBack(tx.get(), savepoint));
  tx->did_partial_rollback = true;
  return Status::OK();
}

Status TxnManager::Commit(TxnId txn) {
  const auto commit_requested = std::chrono::steady_clock::now();
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));

  std::vector<DependencyGraph::Prerequisite> prerequisites;
  {
    std::lock_guard deps_lock(deps_mu_);
    prerequisites = deps_.CommitPrerequisites(txn);
  }
  for (const DependencyGraph::Prerequisite& p : prerequisites) {
    // Every edge here is an ELR (kCommitDurable) edge: the dependency being
    // mid-commit (still kActive, parked in its durability wait) is the
    // expected state — it does NOT block. What gates this commit is its
    // COMMIT record's durability, which our own force implies (it sits
    // earlier in the same log); re-checked after the flush below. Only a
    // dependency that LOST its commit record (the ELR crash path marks it
    // kAborted) dooms us.
    if (StateOf(p.on) == TxnState::kAborted) {
      const Status abort_status = Abort(txn);
      // On the crash path the rollback itself may fail (records
      // discarded); either way this commit must not report success.
      (void)abort_status;
      return Status::Aborted("commit dependency " + std::to_string(p.on) +
                             " lost its commit record before it became "
                             "durable");
    }
  }

  // COMMIT OPERATIONS / WRITE COMMIT RECORD / FLUSH LOG (Section 3.5).
  // With neither forcing nor group commit the flush is deferred entirely:
  // the record rides out with the next forced flush.
  obs::ScopedLatencyTimer timer(commit_ns_);
  Lsn commit_lsn = kInvalidLsn;
  {
    std::lock_guard latch(tx->latch);
    ARIESRH_RETURN_IF_ERROR(RefuseTerminating(*tx));
    tx->terminating = true;  // from here no delegation may touch the chain
    commit_lsn = log_->Append(LogRecord::MakeCommit(txn, tx->last_lsn));
    tx->last_lsn = tx->commit_lsn = commit_lsn;
  }
  // Early lock release: the COMMIT record is appended, so this
  // transaction's fate is sealed in the log order — any acquirer of these
  // locks logs (and therefore commits) strictly after us. Release before
  // the force so the locks are free for the full duration of the
  // durability wait; acquirers pick up kCommitDurable edges.
  if (options_.early_lock_release) {
    locks_->MarkEarlyReleased(txn, commit_lsn);
  }
  // The durability wait happens OUTSIDE the latch: under group commit this
  // parks until the flusher's batched force covers the record, and nothing
  // about this transaction may block checkpoints or other sessions
  // meanwhile (`terminating` already fences delegation).
  Status durable = Status::OK();
  if (options_.group_commit) {
    durable = log_->FlushWait(commit_lsn);
  } else if (options_.force_commits) {
    durable = log_->Flush(commit_lsn);
  }
  if (durable.ok() && options_.early_lock_release) {
    // Defensive re-check: every kCommitDurable prerequisite's COMMIT record
    // must be durable by now. Our own force covers any LSN below ours in
    // this log, so this only fails if the tail was discarded between the
    // prerequisite scan and our append — the crash path.
    for (const DependencyGraph::Prerequisite& p : prerequisites) {
      if (p.commit_lsn != kInvalidLsn && p.commit_lsn > log_->flushed_lsn()) {
        durable = Status::IllegalState(
            "commit dependency " + std::to_string(p.on) +
            "'s commit record was lost to a tail discard");
        break;
      }
    }
  }
  if (!durable.ok()) {
    if (options_.early_lock_release) {
      // The locks are already released and others may have built on them:
      // abort here and cascade (volatile only — the log is in its crash
      // state).
      return FailEarlyReleasedCommit(tx.get(), durable);
    }
    return durable;
  }
  if (commit_latency_ns_ != nullptr) {
    commit_latency_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - commit_requested)
            .count()));
  }
  {
    std::lock_guard latch(tx->latch);
    tx->last_lsn = log_->Append(LogRecord::MakeEnd(txn, tx->last_lsn));
    tx->state = TxnState::kCommitted;
    tx->ob_list.clear();
  }
  Terminate(txn, TxnState::kCommitted, commit_lsn);
  return Status::OK();
}

void TxnManager::Terminate(TxnId txn, TxnState outcome, Lsn lsn) {
  locks_->ReleaseAll(txn);
  {
    std::lock_guard deps_lock(deps_mu_);
    deps_.RemoveTxn(txn);
  }
  if (outcome == TxnState::kCommitted) {
    ++stats_->txns_committed;
    obs::Emit(stats_->trace(), obs::TraceEventType::kTxnCommit, txn, lsn);
  } else {
    ++stats_->txns_aborted;
    obs::Emit(stats_->trace(), obs::TraceEventType::kTxnAbort, txn, lsn);
  }
}

Status TxnManager::FailEarlyReleasedCommit(Transaction* tx,
                                           const Status& cause) {
  // The COMMIT record never became durable (tail discard or flusher stop —
  // the crash path) and the locks were already marked released. No log
  // writes happen here: the log is in whatever state the crash left it and
  // restart recovery rebuilds from it; what must happen NOW, in volatile
  // state, is (a) this transaction stops looking committed-in-progress and
  // (b) everyone who acquired one of the released locks is doomed with it.
  {
    std::lock_guard latch(tx->latch);
    tx->state = TxnState::kAborted;
    tx->ob_list.clear();
  }
  // Capture who must abort with us before Terminate drops the edges.
  std::vector<TxnId> dependents;
  {
    std::lock_guard deps_lock(deps_mu_);
    dependents = deps_.AbortDependents(tx->id);
  }
  Terminate(tx->id, TxnState::kAborted, tx->last_lsn);
  for (TxnId dependent : dependents) {
    if (!IsActive(dependent)) continue;
    // Best effort: a clean cascade abort (with CLRs) if the log still
    // accepts writes. If it fails — records discarded underneath the
    // rollback, or the dependent is itself parked in a failing commit —
    // the dependent is left terminating and can never report commit;
    // restart recovery resolves it as a loser.
    const Status status = Abort(dependent);
    (void)status;
  }
  return cause;
}

Status TxnManager::Abort(TxnId txn) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));
  {
    std::lock_guard latch(tx->latch);
    ARIESRH_RETURN_IF_ERROR(RefuseTerminating(*tx));
    tx->terminating = true;
    // ABORT record marks rollback-in-progress, then undo, then END — all
    // under the latch: the chain head and scopes are in flux throughout.
    tx->last_lsn = log_->Append(LogRecord::MakeAbort(txn, tx->last_lsn));
    ARIESRH_RETURN_IF_ERROR(RollBack(tx.get(), /*savepoint=*/0));
    tx->last_lsn = log_->Append(LogRecord::MakeEnd(txn, tx->last_lsn));
    tx->state = TxnState::kAborted;
    tx->ob_list.clear();
  }
  Terminate(txn, TxnState::kAborted, tx->last_lsn);
  return Status::OK();
}

Result<Lsn> TxnManager::Prepare(TxnId txn, uint64_t csn) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindActive(txn));
  Lsn prepare_lsn = kInvalidLsn;
  {
    std::lock_guard latch(tx->latch);
    ARIESRH_RETURN_IF_ERROR(RefuseTerminating(*tx));
    prepare_lsn = log_->Append(LogRecord::MakePrepare(txn, tx->last_lsn, csn));
    tx->last_lsn = prepare_lsn;
    tx->prepared_csn = csn;
    tx->state = TxnState::kPrepared;
  }
  return prepare_lsn;
}

Status TxnManager::FinishCommit(TxnId txn) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<Transaction> tx, FindPrepared(txn));
  obs::ScopedLatencyTimer timer(commit_ns_);
  Lsn commit_lsn = kInvalidLsn;
  {
    std::lock_guard latch(tx->latch);
    tx->terminating = true;
    commit_lsn = log_->Append(LogRecord::MakeCommit(txn, tx->last_lsn));
    tx->last_lsn = log_->Append(LogRecord::MakeEnd(txn, commit_lsn));
    tx->state = TxnState::kCommitted;
    tx->prepared_csn = 0;
    tx->ob_list.clear();
  }
  // No force: the round's commit point was the coordinator's durable
  // COMMIT. If these records are lost to a crash, recovery finds the
  // transaction in doubt and re-commits it from the coordinator log.
  Terminate(txn, TxnState::kCommitted, commit_lsn);
  return Status::OK();
}

Status TxnManager::GuardDelegation(TxnId from, TxnId to,
                                   DelegationGuard* guard) {
  if (options_.delegation_mode == DelegationMode::kDisabled) {
    return Status::NotSupported("delegation disabled in this configuration");
  }
  if (from == to) {
    return Status::InvalidArgument("cannot delegate to self");
  }
  ARIESRH_ASSIGN_OR_RETURN(guard->tor_, FindActive(from));
  ARIESRH_ASSIGN_OR_RETURN(guard->tee_, FindActive(to));
  // The fence makes the two-party transfer atomic w.r.t. a concurrent
  // fuzzy-checkpoint snapshot: the snapshot must not copy the delegator
  // pre-transfer and the delegatee post-transfer (or vice versa) — recovery
  // and log archiving would then see a scope in neither or both Ob_Lists.
  // Then both latches in ascending TxnId order: a fixed order, because the
  // facade holds guards on several shards at once.
  guard->fence_ = std::shared_lock(ckpt_fence_);
  const bool tor_first = from < to;
  guard->first_ =
      std::unique_lock((tor_first ? guard->tor_ : guard->tee_)->latch);
  guard->second_ =
      std::unique_lock((tor_first ? guard->tee_ : guard->tor_)->latch);
  // Every precondition re-validates underneath the latches: the FindActive
  // answers above could be stale the moment they were given.
  for (const Transaction* tx : {guard->tor_.get(), guard->tee_.get()}) {
    if (tx->state != TxnState::kActive) {
      return Status::IllegalState("transaction " + std::to_string(tx->id) +
                                  " is " + TxnStateName(tx->state));
    }
    ARIESRH_RETURN_IF_ERROR(RefuseTerminating(*tx));
  }
  return Status::OK();
}

Status TxnManager::CheckDelegation(const DelegationGuard& guard,
                                   const DelegationSpec& spec) const {
  const Transaction& tor = *guard.tor_;
  const Transaction& tee = *guard.tee_;
  switch (spec.granularity) {
    case DelegationSpec::Granularity::kAllObjects:
      return Status::InvalidArgument(
          "an all-objects delegation reaches a shard as its object list");
    case DelegationSpec::Granularity::kObjectList:
      // WELL-FORMED? (Section 3.5, delegate step 1): the delegator must be
      // the responsible transaction for every delegated object.
      for (ObjectId ob : spec.objects) {
        if (!tor.IsResponsibleFor(ob)) {
          return Status::InvalidArgument(
              "delegator is not responsible for object " + std::to_string(ob));
        }
      }
      break;
    case DelegationSpec::Granularity::kOperationRange: {
      if (options_.delegation_mode != DelegationMode::kRH) {
        return Status::NotSupported(
            "operation-granularity delegation requires ARIES/RH (mode " +
            std::string(DelegationModeName(options_.delegation_mode)) + ")");
      }
      if (spec.first == kInvalidLsn || spec.last == kInvalidLsn ||
          spec.first > spec.last) {
        return Status::InvalidArgument("malformed delegation range");
      }
      auto it = tor.ob_list.find(spec.object);
      if (it == tor.ob_list.end()) {
        return Status::InvalidArgument(
            "delegator is not responsible for object " +
            std::to_string(spec.object));
      }
      bool intersects = false;
      bool retains_coverage = false;
      for (const Scope& scope : it->second.scopes) {
        if (scope.last >= spec.first && scope.first <= spec.last) {
          intersects = true;
        }
        if (scope.first < spec.first || scope.last > spec.last) {
          retains_coverage = true;
        }
      }
      if (!intersects) {
        return Status::InvalidArgument(
            "delegator is not responsible for any update in the range");
      }
      // Splitting coverage that contains a non-commuting Set across two
      // responsibility domains is unsound: Set undo restores a physical
      // before image and would trample the other party's (possibly
      // committed) work. Whole transfers are always fine; splits require
      // all-commuting coverage.
      if (retains_coverage && it->second.has_set_update) {
        return Status::InvalidArgument(
            "cannot split Set (non-commuting) coverage across "
            "responsibilities; delegate the whole object instead");
      }
      break;
    }
  }
  // The rewriting baselines splice records between backward chains, which
  // invalidates CLR undo-next pointers created by partial rollbacks — the
  // correctness hazard of mutating the log that Section 3.2 warns about.
  // They must refuse the combination; RH, which never moves records, takes
  // it in stride.
  if (options_.delegation_mode != DelegationMode::kRH &&
      (tor.did_partial_rollback || tee.did_partial_rollback)) {
    return Status::IllegalState(
        "history-rewriting baselines cannot delegate across a partial "
        "rollback");
  }
  return Status::OK();
}

Result<Lsn> TxnManager::ApplyDelegation(const DelegationGuard& guard,
                                        const DelegationSpec& spec,
                                        uint64_t csn) {
  Transaction* tor = guard.tor_.get();
  Transaction* tee = guard.tee_.get();
  const bool ranged =
      spec.granularity == DelegationSpec::Granularity::kOperationRange;
  Lsn lsn = kInvalidLsn;
  if (options_.delegation_mode == DelegationMode::kEager) {
    // Figure 1 applied eagerly: physically rewrite the log now. No DELEGATE
    // record is written — the rewrite *is* the delegation. (Object lists
    // only: CheckDelegation refuses ranges outside kRH.)
    std::unordered_map<TxnId, Lsn> heads = {{tor->id, tor->last_lsn},
                                            {tee->id, tee->last_lsn}};
    std::set<ObjectId> ob_set(spec.objects.begin(), spec.objects.end());
    ARIESRH_RETURN_IF_ERROR(
        RewriteHistory(log_, stats_, tor->id, tee->id, ob_set, &heads));
    tor->last_lsn = heads[tor->id];
    tee->last_lsn = heads[tee->id];
  } else {
    // PREPARE + WRITE DELEGATION LOG RECORD (steps 2 and 4): the record
    // links into both backward chains and becomes the head of each. (Built
    // in place as Append's argument: the delegation hot path pays no
    // record move.)
    lsn = log_->Append([&] {
      LogRecord rec =
          ranged ? LogRecord::MakeDelegateRange(tor->id, tee->id,
                                                tor->last_lsn, tee->last_lsn,
                                                spec.object, spec.first,
                                                spec.last)
                 : LogRecord::MakeDelegate(tor->id, tee->id, tor->last_lsn,
                                           tee->last_lsn, spec.objects);
      rec.csn = csn;
      return rec;
    }());
    tor->last_lsn = lsn;
    tee->last_lsn = lsn;
    ++stats_->delegations;
    obs::Emit(stats_->trace(), obs::TraceEventType::kDelegate, tor->id,
              tee->id, lsn);
  }

  // TRANSFER RESPONSIBILITY (step 3): move scopes between Ob_Lists, and
  // the lock of every object the delegator no longer answers for.
  // CheckDelegation saw the delegator hold every object it delegates.
  assert(ranged ? tor->ob_list.contains(spec.object)
                : std::all_of(spec.objects.begin(), spec.objects.end(),
                              [tor](ObjectId ob) {
                                return tor->ob_list.contains(ob);
                              }));
  const std::pair<Lsn, Lsn> range(spec.first, spec.last);
  ErasedObjects released;
  const size_t moved =
      ranged ? TransferObjects(&tor->ob_list, &tee->ob_list, tor->id,
                               {&spec.object, 1}, {&range, 1}, &released)
             : TransferObjects(&tor->ob_list, &tee->ob_list, tor->id,
                               spec.objects, {}, &released);
  for (ObjectId ob : released) locks_->Transfer(tor->id, tee->id, ob);
  // kEager's rewrite already counted the records it moved.
  if (options_.delegation_mode != DelegationMode::kEager) {
    stats_->scopes_transferred += moved;
  }
  tor->touched_by_delegation = true;
  tee->touched_by_delegation = true;
  return lsn;
}

Status TxnManager::RollBack(Transaction* tx, Lsn savepoint) {
  std::unordered_map<TxnId, Lsn> bc_heads = {{tx->id, tx->last_lsn}};
  LoggingUndoSink sink(log_, pool_, stats_, heap_);
  // kRH and kLazyRewrite undo via the scope sweep; kDisabled has no scopes
  // and kEager keeps its chains physically correct, so both use chain undo.
  const bool scope_undo =
      options_.delegation_mode == DelegationMode::kRH ||
      options_.delegation_mode == DelegationMode::kLazyRewrite;
  if (scope_undo) {
    // ABORT OPERATIONS (Section 3.5): undo every update in the scopes of
    // this transaction's Ob_List — exactly its Op_List, regardless of who
    // invoked the updates — via the backward cluster sweep, each scope
    // clipped to (savepoint, last].
    std::vector<ScopeUndoTarget> targets;
    Lsn sweep_from = 0;
    for (const auto& [ob, entry] : tx->ob_list) {
      for (const Scope& scope : entry.scopes) {
        if (scope.last <= savepoint) continue;
        Scope clipped = scope;
        clipped.first = std::max(clipped.first, savepoint + 1);
        targets.push_back(ScopeUndoTarget{tx->id, ob, clipped});
        sweep_from = std::max(sweep_from, clipped.last);
      }
    }
    ARIESRH_RETURN_IF_ERROR(ScopeSweepUndo(targets, /*compensated=*/{},
                                           sweep_from, log_, stats_, &sink,
                                           &bc_heads));
    // A partial rollback's stored scopes shrink to what is still live (a
    // whole one's caller drops the Ob_List).
    if (savepoint != 0) {
      for (auto entry_it = tx->ob_list.begin();
           entry_it != tx->ob_list.end();) {
        ObjectEntry::ScopeList& scopes = entry_it->second.scopes;
        scopes.EraseIf(
            [savepoint](const Scope& s) { return s.first > savepoint; });
        for (Scope& scope : scopes) {
          scope.last = std::min(scope.last, savepoint);
        }
        entry_it = scopes.empty() ? tx->ob_list.erase(entry_it)
                                  : std::next(entry_it);
      }
    }
  } else {
    // Conventional ARIES rollback: walk the backward chain down to the
    // savepoint. The plain Object List entries stay as they are: they are a
    // conservative superset used only as a delegation precondition, and
    // chain undo does not consult them.
    ARIESRH_RETURN_IF_ERROR(
        ChainUndo(log_, stats_, &sink, &bc_heads, /*down_to=*/savepoint));
  }
  tx->last_lsn = bc_heads[tx->id];
  return Status::OK();
}

Result<TxnId> TxnManager::ResponsibleTxn(TxnId invoker, ObjectId ob,
                                         Lsn lsn) const {
  std::shared_lock table_lock(table_mu_);
  for (const auto& [id, tx] : txns_) {
    if (tx->state != TxnState::kActive) continue;
    std::lock_guard latch(tx->latch);
    auto entry = tx->ob_list.find(ob);
    if (entry == tx->ob_list.end()) continue;
    for (const Scope& scope : entry->second.scopes) {
      if (scope.Covers(invoker, lsn)) return id;
    }
  }
  return Status::NotFound("no live transaction responsible for that update");
}

std::map<TxnId, Transaction> TxnManager::SnapshotTransactions() const {
  std::map<TxnId, Transaction> snapshot;
  // Exclusive fence: no delegation's two-party transfer may straddle the
  // table copy (single-transaction record/scope changes may — the fuzzy
  // window re-scan reconciles those per record). Lock order: fence, then
  // table_mu_, then per-transaction latches.
  std::unique_lock fence(ckpt_fence_);
  std::shared_lock table_lock(table_mu_);
  for (const auto& [id, tx] : txns_) {
    std::lock_guard latch(tx->latch);
    snapshot.emplace(id, *tx);  // Transaction's copy is a plain field copy
  }
  return snapshot;
}

std::map<TxnId, Transaction> TxnManager::CheckpointSnapshot(Lsn durable_lsn) {
  std::map<TxnId, Transaction> live;
  // SnapshotTransactions' fence, plus the table lock exclusively for the
  // reap. A session still holding a reaped control block keeps it alive
  // through its own reference.
  std::unique_lock fence(ckpt_fence_);
  std::unique_lock table_lock(table_mu_);
  uint64_t reaped = 0;
  for (auto it = txns_.begin(); it != txns_.end();) {
    const Transaction& tx = *it->second;
    bool reapable = false;
    {
      std::lock_guard latch(tx.latch);
      const TxnState state = tx.state;
      // Prepared transactions are live (in doubt), not terminated.
      reapable = (state == TxnState::kCommitted ||
                  state == TxnState::kAborted) &&
                 tx.ob_list.empty() && tx.prepared_csn == 0 &&
                 tx.last_lsn <= durable_lsn;
      // A committer parked for its force has its COMMIT in the log already:
      // restart must read it as committed, whichever side of CKPT_BEGIN the
      // record fell (the window re-scan finds it if it is after).
      const bool live_txn = (state == TxnState::kActive &&
                             tx.commit_lsn == kInvalidLsn) ||
                            state == TxnState::kPrepared;
      if (live_txn) live.emplace(it->first, tx);
    }
    if (!reapable) {
      ++it;
      continue;
    }
    if (tx.state == TxnState::kAborted) reaped_aborted_.insert(it->first);
    it = txns_.erase(it);
    ++reaped;
  }
  stats_->txns_reaped += reaped;
  return live;
}

}  // namespace ariesrh
