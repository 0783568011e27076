#include "etm/joint.h"

namespace ariesrh::etm {

Result<JointTransaction> JointTransaction::Create(Database* db) {
  ARIESRH_ASSIGN_OR_RETURN(TxnId anchor, db->Begin());
  return JointTransaction(db, anchor);
}

Result<TxnId> JointTransaction::Join() {
  ARIESRH_ASSIGN_OR_RETURN(TxnId member, db_->Begin());
  // Joint fate: the member dies with the anchor and vice versa.
  ARIESRH_RETURN_IF_ERROR(
      db_->FormDependency(DependencyType::kAbort, member, anchor_));
  ARIESRH_RETURN_IF_ERROR(
      db_->FormDependency(DependencyType::kAbort, anchor_, member));
  members_.push_back(member);
  return member;
}

Status JointTransaction::Finish(TxnId member) {
  // Upward delegation: the member's contribution becomes the group's.
  ARIESRH_RETURN_IF_ERROR(db_->Delegate(member, anchor_, DelegationSpec::All()));
  return db_->Commit(member);
}

Status JointTransaction::CommitAll() {
  if (live_members() > 0) {
    return Status::Busy("joint group has unfinished members");
  }
  return db_->Commit(anchor_);
}

Status JointTransaction::AbortAll() {
  if (db_->IsActive(anchor_)) {
    return db_->Abort(anchor_);  // cascades into live members
  }
  return Status::OK();
}

size_t JointTransaction::live_members() const {
  size_t live = 0;
  for (TxnId member : members_) {
    if (db_->IsActive(member)) ++live;
  }
  return live;
}

}  // namespace ariesrh::etm
