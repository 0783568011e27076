// Log inspector: runs the paper's Example 1 (Figure 2) history under
// ARIES/RH and under the eager rewriting baseline, then prints both logs so
// the difference is visible in the raw records: RH's log still shows t1 as
// the writer of the delegated updates (responsibility lives in the volatile
// scopes), while eager mode has physically overwritten them with t2 —
// Figure 2's "before rewriting" and "after rewriting" pictures, live.
//
//   $ ./log_inspector

#include <cstdio>

#include "core/database.h"
#include "wal/log_dump.h"

using namespace ariesrh;

namespace {

// Replays Example 1: updates by t1 and t2 interleaved on objects a,b,x,y,
// then delegate(t1, t2, {a}).
Status RunExample1(Database& db) {
  constexpr ObjectId a = 1, b = 2, x = 3, y = 4;
  ARIESRH_ASSIGN_OR_RETURN(TxnId t1, db.Begin());
  ARIESRH_ASSIGN_OR_RETURN(TxnId t2, db.Begin());
  ARIESRH_RETURN_IF_ERROR(db.Add(t1, a, 1));
  ARIESRH_RETURN_IF_ERROR(db.Add(t2, x, 1));
  ARIESRH_RETURN_IF_ERROR(db.Add(t2, a, 1));
  ARIESRH_RETURN_IF_ERROR(db.Add(t1, b, 1));
  ARIESRH_RETURN_IF_ERROR(db.Add(t1, a, 1));
  ARIESRH_RETURN_IF_ERROR(db.Add(t2, y, 1));
  return db.Delegate(t1, t2, ariesrh::DelegationSpec::Objects({a}));
}

int Show(DelegationMode mode) {
  Options options;
  options.delegation_mode = mode;
  Database db(options);
  Status status = RunExample1(db);
  if (!status.ok()) {
    std::fprintf(stderr, "history failed: %s\n", status.ToString().c_str());
    return 1;
  }
  Result<std::string> dump = DumpLog(*db.shard(0)->log_manager());
  if (!dump.ok()) {
    std::fprintf(stderr, "dump failed: %s\n",
                 dump.status().ToString().c_str());
    return 1;
  }
  std::printf("--- log under %s ---\n%s\n", DelegationModeName(mode),
              dump->c_str());

  Result<std::vector<ObjectHistoryEntry>> history =
      ObjectHistory(*db.shard(0)->log_manager(), 1, mode);
  if (!history.ok()) return 1;
  std::printf(
      "object a's update records (writer as recorded, then who answers\n"
      "for the value once delegation folds in):\n");
  for (const ObjectHistoryEntry& entry : *history) {
    std::printf("  LSN %llu by t%llu  %+lld   answers: t%llu\n",
                (unsigned long long)entry.lsn,
                (unsigned long long)entry.writer, (long long)entry.after,
                (unsigned long long)entry.responsible);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main() {
  std::printf(
      "Example 1 / Figure 2: the same history, two implementations of\n"
      "delegate(t1, t2, {a}).\n\n");
  if (Show(DelegationMode::kRH) != 0) return 1;
  if (Show(DelegationMode::kEager) != 0) return 1;
  std::printf(
      "Note how RH leaves update[t1,a] records untouched (one DELEGATE\n"
      "record carries the rewrite), while the eager baseline has edited\n"
      "the records in place — and wrote no DELEGATE record at all.\n");
  return 0;
}
