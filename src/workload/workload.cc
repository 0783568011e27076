#include "workload/workload.h"

namespace ariesrh::workload {

WorkloadDriver::WorkloadDriver(Database* db, WorkloadOptions options)
    : db_(db), options_(options), rng_(options.seed) {}

ObjectId WorkloadDriver::PickObject() {
  return options_.skewed_access ? rng_.Skewed(options_.objects)
                                : rng_.Uniform(options_.objects);
}

size_t WorkloadDriver::PickActiveIndex() {
  return rng_.Uniform(active_.size());
}

Status WorkloadDriver::Step() {
  ++steps_;
  if (options_.checkpoint_every > 0 &&
      steps_ % options_.checkpoint_every == 0) {
    ARIESRH_RETURN_IF_ERROR(db_->Checkpoint());
  }

  const uint32_t total = options_.begin_weight + options_.update_weight +
                         options_.delegate_weight + options_.commit_weight +
                         options_.abort_weight + options_.savepoint_weight;
  if (total == 0) return Status::InvalidArgument("all weights are zero");
  uint32_t dice = static_cast<uint32_t>(rng_.Uniform(total));

  if (active_.empty()) return StepBegin();
  if (dice < options_.begin_weight) {
    if (active_.size() >= options_.max_active) return StepUpdate();
    return StepBegin();
  }
  dice -= options_.begin_weight;
  if (dice < options_.update_weight) return StepUpdate();
  dice -= options_.update_weight;
  if (dice < options_.delegate_weight) return StepDelegate();
  dice -= options_.delegate_weight;
  if (dice < options_.commit_weight) return StepResolve(/*commit=*/true);
  dice -= options_.commit_weight;
  if (dice < options_.abort_weight) return StepResolve(/*commit=*/false);
  return StepSavepoint();
}

Status WorkloadDriver::Run(int n) {
  for (int i = 0; i < n; ++i) {
    ARIESRH_RETURN_IF_ERROR(Step());
  }
  return Status::OK();
}

Status WorkloadDriver::StepBegin() {
  ARIESRH_ASSIGN_OR_RETURN(TxnId txn, db_->Begin());
  oracle_.Begin(txn);
  active_.push_back(ActiveTxn{txn, kInvalidLsn});
  return Status::OK();
}

Status WorkloadDriver::StepUpdate() {
  ActiveTxn& tx = active_[PickActiveIndex()];
  const ObjectId ob = PickObject();
  // The update record's LSN, on the shard the object lives on.
  auto last_lsn = [&] {
    return db_->shard(db_->ShardOf(ob))->txn_manager()->Find(tx.id)->last_lsn;
  };
  if (rng_.Percent(options_.set_pct)) {
    const int64_t value = rng_.UniformRange(-1000, 1000);
    Status status = db_->Set(tx.id, ob, value);
    if (status.IsBusy()) return Status::OK();  // lock conflict: skip
    ARIESRH_RETURN_IF_ERROR(status);
    oracle_.Update(tx.id, ob, UpdateKind::kSet, value, last_lsn());
  } else {
    const int64_t delta = rng_.UniformRange(-50, 50);
    Status status = db_->Add(tx.id, ob, delta);
    if (status.IsBusy()) return Status::OK();
    ARIESRH_RETURN_IF_ERROR(status);
    oracle_.Update(tx.id, ob, UpdateKind::kAdd, delta, last_lsn());
  }
  ++updates_;
  return Status::OK();
}

Status WorkloadDriver::StepDelegate() {
  if (active_.size() < 2) return StepUpdate();
  const size_t from_index = PickActiveIndex();
  size_t to_index = PickActiveIndex();
  if (from_index == to_index) return Status::OK();
  ActiveTxn& from = active_[from_index];
  ActiveTxn& to = active_[to_index];

  // The delegator's objects are sampled from its view on shard 0; at one
  // shard that is all of them.
  const Transaction* tx = db_->shard(0)->txn_manager()->Find(from.id);
  if (tx == nullptr || tx->ob_list.empty()) return Status::OK();

  // A quarter of delegations try operation granularity: hand over a single
  // update (the delegator's own most recent one on some object).
  if (rng_.Percent(25)) {
    for (const auto& [ob, entry] : tx->ob_list) {
      for (const Scope& scope : entry.scopes) {
        if (scope.invoker != from.id) continue;
        // Copy out of the node before delegating: handing over the object's
        // last covered update erases this very ob_list entry.
        const ObjectId target = ob;
        const Lsn lsn = scope.last;
        Status status =
            db_->Delegate(from.id, to.id,
                          DelegationSpec::Operations(target, lsn, lsn));
        if (status.code() == StatusCode::kNotSupported) {
          break;  // non-RH mode: fall through to whole-object delegation
        }
        if (status.ok()) {
          oracle_.DelegateRange(from.id, to.id, target, lsn, lsn);
          ++delegations_;
        }
        return Status::OK();
      }
    }
  }

  std::vector<ObjectId> objects;
  for (const auto& [ob, entry] : tx->ob_list) {
    if (rng_.Percent(50)) objects.push_back(ob);
  }
  if (objects.empty()) objects.push_back(tx->ob_list.begin()->first);

  Status status = db_->Delegate(from.id, to.id, DelegationSpec::Objects(objects));
  if (status.IsIllegalState() || status.code() == StatusCode::kNotSupported) {
    return Status::OK();  // baseline restriction (e.g. after rollback)
  }
  ARIESRH_RETURN_IF_ERROR(status);
  oracle_.Delegate(from.id, to.id, objects);
  ++delegations_;
  return Status::OK();
}

Status WorkloadDriver::StepResolve(bool commit) {
  const size_t index = PickActiveIndex();
  const TxnId txn = active_[index].id;
  if (commit) {
    Status status = db_->Commit(txn);
    if (status.IsBusy()) return Status::OK();  // commit dependency pending
    if (status.IsAborted()) {
      // Strong-commit cascade aborted it instead.
      oracle_.Abort(txn);
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(index));
      ++aborts_;
      return Status::OK();
    }
    ARIESRH_RETURN_IF_ERROR(status);
    oracle_.Commit(txn);
    ++commits_;
  } else {
    ARIESRH_RETURN_IF_ERROR(db_->Abort(txn));
    oracle_.Abort(txn);
    ++aborts_;
  }
  active_.erase(active_.begin() + static_cast<ptrdiff_t>(index));
  return Status::OK();
}

Status WorkloadDriver::StepSavepoint() {
  ActiveTxn& tx = active_[PickActiveIndex()];
  if (tx.savepoint == kInvalidLsn) {
    ARIESRH_ASSIGN_OR_RETURN(Lsn sp, db_->Savepoint(tx.id));
    tx.savepoint = sp;
    return Status::OK();
  }
  // A savepoint is pending: roll back to it.
  Status status = db_->RollbackTo(tx.id, tx.savepoint);
  if (status.code() == StatusCode::kNotSupported) {
    tx.savepoint = kInvalidLsn;  // lazy-rewrite after delegation: skip
    return Status::OK();
  }
  ARIESRH_RETURN_IF_ERROR(status);
  oracle_.RollbackTo(tx.id, tx.savepoint);
  tx.savepoint = kInvalidLsn;
  ++rollbacks_;
  return Status::OK();
}

Status WorkloadDriver::Verify() {
  for (const auto& [ob, expected] : oracle_.ExpectedValues()) {
    ARIESRH_ASSIGN_OR_RETURN(int64_t got, db_->ReadCommitted(ob));
    if (got != expected) {
      return Status::IllegalState(
          "object " + std::to_string(ob) + " is " + std::to_string(got) +
          ", oracle expects " + std::to_string(expected) + " (seed " +
          std::to_string(options_.seed) + ")");
    }
  }
  return Status::OK();
}

void WorkloadDriver::CrashOnly() {
  db_->SimulateCrash();
  oracle_.Crash();
  active_.clear();
}

Status WorkloadDriver::CrashRecoverVerify() {
  CrashOnly();
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<RecoveryHandle> handle,
                           db_->StartRecovery());
  ARIESRH_RETURN_IF_ERROR(handle->Await().status());
  return Verify();
}

}  // namespace ariesrh::workload
