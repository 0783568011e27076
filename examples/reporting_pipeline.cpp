// Reporting transactions and co-transactions (paper Section 2.2): a
// long-running aggregation worker publishes running totals to a dashboard
// via delegation, and a pair of co-transactions hand a shared ledger back
// and forth like coroutines.
//
//   $ ./reporting_pipeline

#include <cstdio>

#include "core/database.h"
#include "etm/cotransaction.h"
#include "etm/reporting.h"

using namespace ariesrh;

namespace {

constexpr ObjectId kRunningTotal = 1;
constexpr ObjectId kLedger = 50;

int ReportingDemo(Database& db) {
  std::printf("--- reporting transactions ---\n");
  TxnId worker = *db.Begin();
  etm::Reporter reporter(&db, worker);

  // The worker aggregates batches; after each batch it *reports*: the
  // running total becomes durable and visible even though the worker runs
  // on. (Paper: "periodically reports to other transactions by delegating
  // its current results".)
  for (int batch = 1; batch <= 4; ++batch) {
    for (int i = 0; i < 25; ++i) {
      if (!db.Add(worker, kRunningTotal, batch).ok()) return 1;
    }
    if (!reporter.PublishAll().ok()) return 1;
    std::printf("batch %d reported; dashboard reads %lld\n", batch,
                (long long)*db.ReadCommitted(kRunningTotal));
  }

  // Batch 5 goes wrong and the worker aborts — but the four published
  // reports are beyond its reach.
  if (!db.Add(worker, kRunningTotal, 1000).ok()) return 1;
  if (!db.Abort(worker).ok()) return 1;
  std::printf("worker aborted mid-batch-5; dashboard still reads %lld\n",
              (long long)*db.ReadCommitted(kRunningTotal));
  return *db.ReadCommitted(kRunningTotal) == 25 * (1 + 2 + 3 + 4) ? 0 : 1;
}

int CoTransactionDemo(Database& db) {
  std::printf("--- co-transactions ---\n");
  auto pair_or = etm::CoTransactionPair::Create(&db);
  if (!pair_or.ok()) return 1;
  etm::CoTransactionPair pair = *pair_or;

  // Two halves of a negotiation take turns appending to a ledger; control
  // (and responsibility for everything so far) passes at each yield.
  for (int round = 0; round < 6; ++round) {
    if (!db.Add(pair.active(), kLedger, round + 1).ok()) return 1;
    std::printf("t%llu wrote entry %d, yielding\n",
                (unsigned long long)pair.active(), round + 1);
    if (!pair.Yield().ok()) return 1;
  }
  // Whoever holds control at the end decides the fate of the whole ledger.
  if (!pair.Finish(/*commit=*/true).ok()) return 1;
  std::printf("ledger committed: %lld (want 21)\n",
              (long long)*db.ReadCommitted(kLedger));
  return *db.ReadCommitted(kLedger) == 21 ? 0 : 1;
}

}  // namespace

int main() {
  Database db;
  if (ReportingDemo(db) != 0) {
    std::printf("MISMATCH\n");
    return 1;
  }
  if (CoTransactionDemo(db) != 0) {
    std::printf("MISMATCH\n");
    return 1;
  }

  // Everything published/committed above survives a crash.
  db.SimulateCrash();
  auto restart = db.StartRecovery();
  if (!restart.ok() || !(*restart)->Await().ok()) return 1;
  const bool ok = *db.ReadCommitted(kRunningTotal) == 250 &&
                  *db.ReadCommitted(kLedger) == 21;
  std::printf("after crash+recovery: total=%lld ledger=%lld -> %s\n",
              (long long)*db.ReadCommitted(kRunningTotal),
              (long long)*db.ReadCommitted(kLedger), ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
