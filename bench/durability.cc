// Durability machinery benchmarks (extensions beyond the paper's
// evaluation): group commit vs. forced commits, log archiving, and
// log-shipping standby promotion.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "replication/log_shipping.h"

namespace ariesrh::bench {
namespace {

void CommitPolicy(benchmark::State& state, bool force) {
  uint64_t flushes = 0;
  const int txns = 500;
  for (auto _ : state) {
    Options options;
    options.force_commits = force;
    options.buffer_pool_pages = 256;
    Database db(options);
    for (int i = 0; i < txns; ++i) {
      TxnId t = CheckResult(db.Begin(), "Begin");
      for (int u = 0; u < 4; ++u) {
        Check(db.Add(t, static_cast<ObjectId>((i * 4 + u) % 128), 1), "Add");
      }
      Check(db.Commit(t), "Commit");
    }
    Check(db.Sync(), "Sync");
    flushes = db.stats().log_flushes;
  }
  state.SetItemsProcessed(state.iterations() * txns);
  state.counters["device_flushes"] =
      benchmark::Counter(static_cast<double>(flushes));
  state.SetLabel(force ? "force_each_commit" : "group_commit");
}

void BM_Commit_Forced(benchmark::State& state) { CommitPolicy(state, true); }
void BM_Commit_Grouped(benchmark::State& state) { CommitPolicy(state, false); }

// Steady-state archiving: run work, checkpoint, archive; report how much
// log a delegation-pinning workload retains vs. a plain one.
void ArchiveRetention(benchmark::State& state, bool pin_with_delegation) {
  uint64_t retained = 0;
  for (auto _ : state) {
    Database db;
    TxnId pinner = kInvalidTxn;
    if (pin_with_delegation) {
      // A long-lived delegatee holding an old scope pins the log tail.
      TxnId invoker = CheckResult(db.Begin(), "Begin");
      pinner = CheckResult(db.Begin(), "Begin");
      Check(db.Add(invoker, 999, 1), "Add");
      Check(db.Delegate(invoker, pinner, DelegationSpec::Objects({999})), "Delegate");
      Check(db.Commit(invoker), "Commit");
    }
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 50; ++i) {
        TxnId t = CheckResult(db.Begin(), "Begin");
        Check(db.Add(t, static_cast<ObjectId>(i % 64), 1), "Add");
        Check(db.Commit(t), "Commit");
      }
      Check(db.shard(0)->buffer_pool()->FlushAll(), "FlushAll");
      Check(db.Checkpoint(), "Checkpoint");
      CheckResult(db.ArchiveLog(), "ArchiveLog");
    }
    retained = db.shard(0)->log_manager()->end_lsn() -
               db.shard(0)->disk()->first_retained_lsn() + 1;
    if (pinner != kInvalidTxn) Check(db.Commit(pinner), "Commit");
  }
  state.counters["log_records_retained"] =
      benchmark::Counter(static_cast<double>(retained));
  state.SetLabel(pin_with_delegation ? "delegation_pins_log"
                                     : "no_pinning");
}

void BM_Archive_NoPinning(benchmark::State& state) {
  ArchiveRetention(state, false);
}
void BM_Archive_DelegationPinned(benchmark::State& state) {
  ArchiveRetention(state, true);
}

// Standby promotion latency as a function of shipped-log length, with and
// without a backup seed.
void StandbyPromotion(benchmark::State& state, bool seeded) {
  const int txns = static_cast<int>(state.range(0));
  uint64_t fwd_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database primary;
    for (int i = 0; i < txns; ++i) {
      TxnId t = CheckResult(primary.Begin(), "Begin");
      Check(primary.Add(t, static_cast<ObjectId>(i % 64), 1), "Add");
      Check(primary.Commit(t), "Commit");
    }
    replication::StandbyReplica standby{Options{}};
    if (seeded) {
      Check(standby.SeedFromBackup(CheckResult(primary.Backup(), "Backup")),
            "Seed");
    }
    Check(standby.SyncFrom(primary), "Sync");
    state.ResumeTiming();

    Result<std::unique_ptr<Database>> promoted =
        std::move(standby).Promote();
    state.PauseTiming();
    if (!promoted.ok()) std::abort();
    fwd_records = (*promoted)->stats().recovery_forward_records;
    state.ResumeTiming();
  }
  state.counters["fwd_records"] =
      benchmark::Counter(static_cast<double>(fwd_records));
  state.SetLabel(seeded ? "seeded_from_backup" : "log_only");
}

void BM_Promote_LogOnly(benchmark::State& state) {
  StandbyPromotion(state, false);
}
void BM_Promote_Seeded(benchmark::State& state) {
  StandbyPromotion(state, true);
}

BENCHMARK(BM_Commit_Forced);
BENCHMARK(BM_Commit_Grouped);
BENCHMARK(BM_Archive_NoPinning);
BENCHMARK(BM_Archive_DelegationPinned);
BENCHMARK(BM_Promote_LogOnly)->Arg(500)->Arg(2000);
BENCHMARK(BM_Promote_Seeded)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("durability");
