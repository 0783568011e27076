// Bank settlement: concurrent transfer programs interleaved by the
// deterministic scheduler, with a delegation-based settlement pattern — a
// long-running batch processor periodically hands its posted entries to a
// settlement transaction that commits them (reporting-transaction style),
// so a late failure of the batch cannot take back settled work.
//
//   $ ./bank_settlement [seed]

#include <cstdio>
#include <cstdlib>

#include "core/database.h"
#include "etm/reporting.h"
#include "util/random.h"
#include "workload/scheduler.h"

using namespace ariesrh;
using workload::ProgramOutcome;
using workload::StepScheduler;
using workload::TxnProgram;

namespace {

constexpr ObjectId kAccounts = 8;
constexpr int64_t kOpeningBalance = 1000;

int64_t TotalMoney(Database& db) {
  int64_t total = 0;
  for (ObjectId account = 0; account < kAccounts; ++account) {
    total += *db.ReadCommitted(account);
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  Database db;

  // Open the accounts.
  TxnId init = *db.Begin();
  for (ObjectId account = 0; account < kAccounts; ++account) {
    if (!db.Set(init, account, kOpeningBalance).ok()) return 1;
  }
  if (!db.Commit(init).ok()) return 1;
  std::printf("opened %llu accounts with %lld each (total %lld)\n",
              (unsigned long long)kAccounts, (long long)kOpeningBalance,
              (long long)TotalMoney(db));

  // Phase 1: 20 concurrent transfers under the interleaving scheduler.
  StepScheduler::SchedulerOptions options;
  options.seed = seed;
  StepScheduler scheduler(&db, options);
  Random rng(seed * 31);
  for (int i = 0; i < 20; ++i) {
    ObjectId from = rng.Uniform(kAccounts);
    ObjectId to = rng.Uniform(kAccounts);
    if (from == to) to = (to + 1) % kAccounts;
    int64_t amount = rng.UniformRange(1, 100);
    TxnProgram p{"xfer", {}};
    p.Then([=](Database* db, TxnId txn) -> Status {
      ARIESRH_ASSIGN_OR_RETURN(int64_t balance, db->Read(txn, from));
      if (balance < amount) return Status::InvalidArgument("insufficient");
      return db->Set(txn, from, balance - amount);
    });
    p.Then([=](Database* db, TxnId txn) -> Status {
      ARIESRH_ASSIGN_OR_RETURN(int64_t balance, db->Read(txn, to));
      return db->Set(txn, to, balance + amount);
    });
    scheduler.AddProgram(std::move(p));
  }
  if (!scheduler.Run().ok()) return 1;
  std::printf(
      "phase 1: 20 transfers interleaved (%llu lock conflicts, %llu "
      "restarts); total %lld\n",
      (unsigned long long)scheduler.busy_events(),
      (unsigned long long)scheduler.restarts(), (long long)TotalMoney(db));
  if (TotalMoney(db) != kAccounts * kOpeningBalance) {
    std::printf("MONEY NOT CONSERVED\n");
    return 1;
  }

  // Phase 2: a batch processor posts interest to a ledger object and
  // settles each batch by delegation; its eventual abort cannot touch what
  // was settled.
  constexpr ObjectId kInterestLedger = 100;
  TxnId batch = *db.Begin();
  etm::Reporter settle(&db, batch);
  for (int round = 1; round <= 3; ++round) {
    for (ObjectId account = 0; account < kAccounts; ++account) {
      if (!db.Add(batch, kInterestLedger, round).ok()) return 1;
    }
    if (!settle.PublishAll().ok()) return 1;
    std::printf("phase 2: batch %d settled, ledger=%lld\n", round,
                (long long)*db.ReadCommitted(kInterestLedger));
  }
  // Batch 4 is cut short by an operator abort.
  if (!db.Add(batch, kInterestLedger, 999).ok()) return 1;
  if (!db.Abort(batch).ok()) return 1;
  std::printf("phase 2: batch 4 aborted mid-flight, ledger=%lld\n",
              (long long)*db.ReadCommitted(kInterestLedger));

  // Crash and recover: settled work and transfers survive.
  db.SimulateCrash();
  auto restart = db.StartRecovery();
  if (!restart.ok() || !(*restart)->Await().ok()) return 1;
  const int64_t ledger = *db.ReadCommitted(kInterestLedger);
  const int64_t money = TotalMoney(db);
  const bool ok =
      money == kAccounts * kOpeningBalance && ledger == (1 + 2 + 3) * 8;
  std::printf("after crash+recovery: total=%lld ledger=%lld -> %s\n",
              (long long)money, (long long)ledger, ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
