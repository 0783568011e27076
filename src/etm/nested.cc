#include "etm/nested.h"

namespace ariesrh::etm {

Result<TxnId> NestedTransactions::BeginRoot() { return db_->Begin(); }

Result<TxnId> NestedTransactions::BeginChild(TxnId parent) {
  ARIESRH_ASSIGN_OR_RETURN(TxnId child, db_->Begin());
  parent_[child] = parent;

  // Failure atomicity downward: the parent's abort obliterates the child.
  ARIESRH_RETURN_IF_ERROR(
      db_->FormDependency(DependencyType::kAbort, child, parent));

  // Visibility: the child may access what its ancestors currently hold, on
  // whichever shard they hold it.
  for (TxnId ancestor = parent; ancestor != kInvalidTxn;
       ancestor = ParentOf(ancestor)) {
    for (size_t s = 0; s < db_->num_shards(); ++s) {
      for (const auto& [ob, mode] :
           db_->shard(s)->lock_manager()->HeldLocks(ancestor)) {
        ARIESRH_RETURN_IF_ERROR(db_->Permit(ancestor, child, ob));
      }
    }
  }
  return child;
}

Status NestedTransactions::Commit(TxnId txn) {
  const TxnId parent = ParentOf(txn);
  if (parent != kInvalidTxn) {
    // Upward inheritance: all the changes the child is responsible for are
    // delegated to its parent when the child commits (Section 2.2).
    ARIESRH_RETURN_IF_ERROR(db_->Delegate(txn, parent, DelegationSpec::All()));
  }
  ARIESRH_RETURN_IF_ERROR(db_->Commit(txn));
  parent_.erase(txn);
  return Status::OK();
}

Status NestedTransactions::Abort(TxnId txn) {
  // The engine's abort dependencies cascade into live descendants.
  ARIESRH_RETURN_IF_ERROR(db_->Abort(txn));
  parent_.erase(txn);
  return Status::OK();
}

Status NestedTransactions::PermitFromAncestors(TxnId child, ObjectId ob) {
  for (TxnId ancestor = ParentOf(child); ancestor != kInvalidTxn;
       ancestor = ParentOf(ancestor)) {
    ARIESRH_RETURN_IF_ERROR(db_->Permit(ancestor, child, ob));
  }
  return Status::OK();
}

TxnId NestedTransactions::ParentOf(TxnId txn) const {
  auto it = parent_.find(txn);
  return it == parent_.end() ? kInvalidTxn : it->second;
}

}  // namespace ariesrh::etm
