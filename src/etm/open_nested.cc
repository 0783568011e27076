#include "etm/open_nested.h"

namespace ariesrh::etm {

Result<OpenNestedTransaction> OpenNestedTransaction::Create(Database* db) {
  ARIESRH_ASSIGN_OR_RETURN(TxnId parent, db->Begin());
  return OpenNestedTransaction(db, parent);
}

Status OpenNestedTransaction::RunOpenChild(
    const std::function<Status(Database*, TxnId)>& body,
    Compensation compensation) {
  ARIESRH_ASSIGN_OR_RETURN(TxnId child, db_->Begin());
  Status status = body(db_, child);
  if (!status.ok()) {
    // The open child is failure-atomic on its own: roll it back, parent
    // decides what to do with the error.
    ARIESRH_RETURN_IF_ERROR(db_->Abort(child));
    return status;
  }
  // Early release: the child's effects become durable and visible now.
  // (Under the hood this is the delegation pattern — the child could also
  // delegate to a committer; committing the child directly is the same
  // history with one transaction fewer.)
  ARIESRH_RETURN_IF_ERROR(db_->Commit(child));
  compensations_.push_back(std::move(compensation));
  return Status::OK();
}

Status OpenNestedTransaction::Commit() {
  ARIESRH_RETURN_IF_ERROR(db_->Commit(parent_));
  compensations_.clear();
  return Status::OK();
}

Status OpenNestedTransaction::Abort() {
  if (db_->IsActive(parent_)) {
    ARIESRH_RETURN_IF_ERROR(db_->Abort(parent_));
  }
  Status first_failure;
  // Semantic undo, newest first — mirrors physical undo order.
  for (auto it = compensations_.rbegin(); it != compensations_.rend(); ++it) {
    Result<TxnId> comp = db_->Begin();
    if (!comp.ok()) return comp.status();
    Status status = (*it)(db_, *comp);
    if (status.ok()) {
      status = db_->Commit(*comp);
    } else {
      (void)db_->Abort(*comp);
    }
    if (!status.ok() && first_failure.ok()) first_failure = status;
  }
  compensations_.clear();
  return first_failure;
}

}  // namespace ariesrh::etm
