// Quickstart: the delegation primitive end to end, following the paper's
// Example 1 / Figure 2, plus a crash to show who really owns an update.
//
//   $ ./quickstart
//
// Walks through: two transactions interleaving on an object, a delegation
// that "rewrites history" (without touching the log), the delegatee
// committing work it never invoked, and ARIES/RH recovery after a crash.

#include <cstdio>

#include "core/database.h"

using namespace ariesrh;

#define DEMAND(expr)                                              \
  do {                                                            \
    auto _s = (expr);                                             \
    if (!_s.ok()) {                                               \
      std::fprintf(stderr, "FAILED: %s -> %s\n", #expr,           \
                   _s.ToString().c_str());                        \
      return 1;                                                   \
    }                                                             \
  } while (0)

int main() {
  Database db;  // DelegationMode::kRH — the paper's algorithm

  // Objects from Figure 2. Increments commute, so t1 and t2 can both be
  // responsible for updates to `a` at once.
  constexpr ObjectId a = 1, b = 2, x = 3, y = 4;

  TxnId t1 = *db.Begin();
  TxnId t2 = *db.Begin();
  std::printf("began t%llu and t%llu\n", (unsigned long long)t1,
              (unsigned long long)t2);

  // The interleaved history of Example 1.
  DEMAND(db.Add(t1, a, 10));
  const Lsn first_update = db.shard(0)->log_manager()->end_lsn();
  DEMAND(db.Add(t2, x, 1));
  DEMAND(db.Add(t2, a, 100));
  DEMAND(db.Add(t1, b, 5));
  DEMAND(db.Add(t1, a, 10));
  DEMAND(db.Add(t2, y, 1));

  std::printf("before delegation, update at LSN %llu is t%llu's business\n",
              (unsigned long long)first_update,
              (unsigned long long)*db.shard(0)->txn_manager()->ResponsibleTxn(
                  t1, a, first_update));

  // The delegation: t1 transfers responsibility for `a` to t2. One log
  // record is appended; nothing already written changes.
  const Stats before = db.stats();
  DEMAND(db.Delegate(t1, t2, ariesrh::DelegationSpec::Objects({a})));
  const Stats delta = db.stats().Delta(before);
  std::printf(
      "delegate(t1, t2, {a}): %llu log append(s), %llu rewrite(s) — history "
      "rewritten without rewriting the log\n",
      (unsigned long long)delta.log_appends,
      (unsigned long long)delta.log_rewrites);

  std::printf("after delegation, the same update belongs to t%llu\n",
              (unsigned long long)*db.shard(0)->txn_manager()->ResponsibleTxn(
                  t1, a, first_update));

  // t2 commits: that makes t1's delegated increments of `a` permanent,
  // along with t2's own work. t1 never commits — crash takes it out.
  DEMAND(db.Commit(t2));
  std::printf("t2 committed; t1 still running... crash!\n");

  db.SimulateCrash();
  auto restart = db.StartRecovery();
  auto outcome = restart.ok() ? (*restart)->Await() : restart.status();
  if (!outcome.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("recovered: %llu winner(s), %llu loser(s) rolled back\n",
              (unsigned long long)outcome->winners,
              (unsigned long long)outcome->losers);

  // a = 10 + 100 + 10: every increment of `a` was ultimately t2's.
  // b = 0: t1's un-delegated update died with it.
  std::printf("a=%lld (expected 120)\n", (long long)*db.ReadCommitted(a));
  std::printf("b=%lld (expected 0)\n", (long long)*db.ReadCommitted(b));
  std::printf("x=%lld y=%lld (t2's own work, expected 1 1)\n",
              (long long)*db.ReadCommitted(x), (long long)*db.ReadCommitted(y));

  const bool ok = *db.ReadCommitted(a) == 120 && *db.ReadCommitted(b) == 0 &&
                  *db.ReadCommitted(x) == 1 && *db.ReadCommitted(y) == 1;
  std::printf("%s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
