// One fixed single-shard history that touches every facade primitive the
// N = 1 log records: updates, a delegation, a permit, form-dependency edges
// (one gating a commit, one cascading an abort), two checkpoints, table
// puts and deletes, and losers left active at the end.
//
// golden_log_test.cc replays it and compares the stable log with the image
// checked in at tests/core/testdata/golden_n1.img, which an earlier build of
// the engine saved from this same history. To regenerate that image, build
// a program that includes this header, calls RunGoldenHistory on a fresh
// Database with default Options, and then calls SaveTo.

#ifndef ARIESRH_TESTS_CORE_GOLDEN_HISTORY_H_
#define ARIESRH_TESTS_CORE_GOLDEN_HISTORY_H_

#include <map>
#include <optional>
#include <string>

#include "core/database.h"
#include "core/oracle.h"

namespace ariesrh {
namespace golden {

/// The objects the history updates.
inline constexpr ObjectId kObjects[] = {1, 2, 3, 4, 5, 6};

/// What a restart of the saved image must show.
struct Expected {
  HistoryOracle oracle;  ///< object values (crashed at the end)
  std::map<std::string, std::optional<std::string>> table;
};

/// Runs the history on `db` (fresh, default Options) and returns what a
/// restart from its stable state must recover. Returns nullopt as soon as
/// any step does not behave as scripted.
inline std::optional<Expected> RunGoldenHistory(Database* db) {
  Expected want;
  HistoryOracle& oracle = want.oracle;
  auto begin = [&]() -> TxnId {
    Result<TxnId> t = db->Begin();
    if (!t.ok()) return kInvalidTxn;
    oracle.Begin(*t);
    return *t;
  };
  auto set = [&](TxnId t, ObjectId ob, int64_t v) {
    oracle.Update(t, ob, UpdateKind::kSet, v);
    return db->Set(t, ob, v).ok();
  };
  auto add = [&](TxnId t, ObjectId ob, int64_t v) {
    oracle.Update(t, ob, UpdateKind::kAdd, v);
    return db->Add(t, ob, v).ok();
  };
  auto commit = [&](TxnId t) {
    oracle.Commit(t);
    return db->Commit(t).ok();
  };

  // A delegation: t1's increment to object 2 becomes t2's to commit.
  const TxnId t1 = begin();
  const TxnId t2 = begin();
  if (!set(t1, 1, 10) || !add(t1, 2, 5) || !add(t2, 2, 7)) return {};
  if (!db->Delegate(t1, t2, DelegationSpec::Objects({2})).ok()) return {};
  oracle.Delegate(t1, t2, {2});

  // A permit lets t3 read t1's uncommitted value; a commit dependency on
  // t2 holds t3's commit back until t2 has committed.
  const TxnId t3 = begin();
  if (!db->Permit(t1, t3, 1).ok()) return {};
  Result<int64_t> seen = db->Read(t3, 1);
  if (!seen.ok() || *seen != 10) return {};
  if (!db->FormDependency(DependencyType::kCommit, t3, t2).ok()) return {};
  if (!db->Commit(t3).IsBusy()) return {};
  if (!commit(t2) || !commit(t3)) return {};

  // An abort dependency: aborting t4 rolls t5 back with it.
  const TxnId t4 = begin();
  const TxnId t5 = begin();
  if (!add(t4, 3, 1) || !set(t5, 4, 40)) return {};
  if (!db->FormDependency(DependencyType::kAbort, t5, t4).ok()) return {};
  if (!db->Abort(t4).ok() || db->IsActive(t5)) return {};
  oracle.Abort(t4);
  oracle.Abort(t5);

  if (!db->Checkpoint().ok()) return {};

  // Table puts and a delete, committed.
  const TxnId t6 = begin();
  if (!db->TablePut(t6, "alpha", "1").ok() ||
      !db->TablePut(t6, "beta", "2").ok() || !commit(t6)) {
    return {};
  }
  const TxnId t7 = begin();
  if (!db->TablePut(t7, "alpha", "one").ok() ||
      !db->TableDelete(t7, "beta").ok() || !set(t7, 6, 60) || !commit(t7)) {
    return {};
  }
  want.table = {{"alpha", "one"}, {"beta", std::nullopt},
                {"gamma", std::nullopt}};

  // The second checkpoint writes back what the first one saw dirty.
  if (!db->Checkpoint().ok()) return {};

  // Losers: t1 (still responsible for object 1) and t8, with a table put.
  const TxnId t8 = begin();
  if (!set(t8, 5, 50) || !add(t8, 6, 6) ||
      !db->TablePut(t8, "gamma", "3").ok()) {
    return {};
  }
  if (!db->Sync().ok()) return {};
  oracle.Crash();
  return want;
}

}  // namespace golden
}  // namespace ariesrh

#endif  // ARIESRH_TESTS_CORE_GOLDEN_HISTORY_H_
