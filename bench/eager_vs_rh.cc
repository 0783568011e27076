// E3 — eager rewriting vs. lazy rewriting vs. ARIES/RH (paper Sections 3.2
// and Figure 1).
//
// The naive eager implementation sweeps the log at every delegation,
// issuing random stable reads and in-place rewrites; the lazy baseline
// defers the identical work to recovery; RH appends one record and never
// touches written history. The sweep over history length shows eager's cost
// growing with the log while RH stays flat.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace ariesrh::bench {
namespace {

// One delegation after `history` stable updates by the delegator.
void DelegateAfterHistory(benchmark::State& state, DelegationMode mode) {
  const int history = static_cast<int>(state.range(0));
  uint64_t random_reads = 0, rewrites = 0, appends = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.delegation_mode = mode;
    Database db(options);
    TxnId tor = CheckResult(db.Begin(), "Begin");
    TxnId tee = CheckResult(db.Begin(), "Begin");
    for (int i = 0; i < history; ++i) {
      Check(db.Add(tor, static_cast<ObjectId>(i % 8), 1), "Add");
    }
    Check(db.shard(0)->log_manager()->FlushAll(), "Flush");
    const Stats before = db.stats();
    state.ResumeTiming();

    Check(db.Delegate(tor, tee, DelegationSpec::Objects({0, 1, 2, 3})), "Delegate");

    state.PauseTiming();
    const Stats delta = db.stats().Delta(before);
    random_reads = delta.log_random_reads + delta.log_seq_reads;
    rewrites = delta.log_rewrites;
    appends = delta.log_appends;
    state.ResumeTiming();
  }
  state.counters["stable_reads"] =
      benchmark::Counter(static_cast<double>(random_reads));
  state.counters["stable_rewrites"] =
      benchmark::Counter(static_cast<double>(rewrites));
  state.counters["appends"] = benchmark::Counter(static_cast<double>(appends));
}

void BM_Delegate_RH(benchmark::State& state) {
  DelegateAfterHistory(state, DelegationMode::kRH);
}
void BM_Delegate_Eager(benchmark::State& state) {
  DelegateAfterHistory(state, DelegationMode::kEager);
}
void BM_Delegate_LazyRewrite(benchmark::State& state) {
  DelegateAfterHistory(state, DelegationMode::kLazyRewrite);
}

// Full cycle: delegation-heavy workload + crash + recovery, total stable-log
// traffic across both phases. Lazy pays at recovery what eager pays up
// front; RH pays neither.
void FullCycle(benchmark::State& state, DelegationMode mode) {
  const int txns = static_cast<int>(state.range(0));
  uint64_t rewrites = 0, random_reads = 0;
  for (auto _ : state) {
    Options options;
    options.delegation_mode = mode;
    options.buffer_pool_pages = 256;
    Database db(options);
    WorkloadParams params;
    params.txns = txns;
    params.updates_per_txn = 8;
    params.loser_pct = 25;
    params.delegation_pct = 30;
    RunWorkload(&db, params);
    db.SimulateCrash();
    RestartAndAwait(db);
    rewrites = db.stats().log_rewrites;
    random_reads = db.stats().log_random_reads;
  }
  state.counters["total_rewrites"] =
      benchmark::Counter(static_cast<double>(rewrites));
  state.counters["total_random_reads"] =
      benchmark::Counter(static_cast<double>(random_reads));
}

void BM_FullCycle_RH(benchmark::State& state) {
  FullCycle(state, DelegationMode::kRH);
}
void BM_FullCycle_Eager(benchmark::State& state) {
  FullCycle(state, DelegationMode::kEager);
}
void BM_FullCycle_LazyRewrite(benchmark::State& state) {
  FullCycle(state, DelegationMode::kLazyRewrite);
}

BENCHMARK(BM_Delegate_RH)->RangeMultiplier(4)->Range(16, 16384);
BENCHMARK(BM_Delegate_Eager)->RangeMultiplier(4)->Range(16, 16384);
BENCHMARK(BM_Delegate_LazyRewrite)->RangeMultiplier(4)->Range(16, 16384);
BENCHMARK(BM_FullCycle_RH)->Arg(200)->Arg(800);
BENCHMARK(BM_FullCycle_Eager)->Arg(200)->Arg(800);
BENCHMARK(BM_FullCycle_LazyRewrite)->Arg(200)->Arg(800);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("eager_vs_rh");
