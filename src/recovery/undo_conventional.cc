#include "recovery/undo_conventional.h"

#include <queue>
#include <vector>

namespace ariesrh {

Status ChainUndo(LogManager* log, Stats* stats, UndoSink* sink,
                 std::unordered_map<TxnId, Lsn>* heads, Lsn down_to) {
  // Outstanding (next LSN to undo, owner); always process the maximum LSN
  // next so log accesses are monotonically decreasing.
  using Entry = std::pair<Lsn, TxnId>;
  std::priority_queue<Entry> todo;
  for (const auto& [txn, head] : *heads) {
    if (head != kInvalidLsn && head > down_to) todo.emplace(head, txn);
  }

  while (!todo.empty()) {
    auto [lsn, txn] = todo.top();
    todo.pop();
    ++stats->recovery_backward_examined;
    ARIESRH_ASSIGN_OR_RETURN(LogRecord rec, log->Read(lsn));

    Lsn next = kInvalidLsn;
    switch (rec.type) {
      case LogRecordType::kUpdate:
      case LogRecordType::kTableInsert:
      case LogRecordType::kTableUpdate:
      case LogRecordType::kTableDelete:
        ARIESRH_RETURN_IF_ERROR(sink->Undo(rec, txn, heads));
        next = rec.prev_lsn;
        break;
      case LogRecordType::kClr:
      case LogRecordType::kTableClr:
        // Everything between this CLR and its undo-next is already undone.
        next = rec.undo_next_lsn;
        break;
      case LogRecordType::kDelegate:
        next = (txn == rec.tor) ? rec.tor_bc : rec.tee_bc;
        break;
      default:
        // BEGIN normally ends the chain (prev == kInvalidLsn), but history
        // rewriting can splice older, moved records behind it — follow the
        // pointer rather than assuming.
        next = rec.prev_lsn;
        break;
    }
    if (next != kInvalidLsn && next > down_to) todo.emplace(next, txn);
  }
  return Status::OK();
}

}  // namespace ariesrh
