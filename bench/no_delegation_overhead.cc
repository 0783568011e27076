// E1 — "No delegation, no overhead" (paper Section 4.2).
//
// ARIES/RH with no delegations in the workload must match conventional
// ARIES (DelegationMode::kDisabled) in normal-processing throughput,
// recovery time, and stable-log traffic. The per-row counters let the claim
// be checked beyond wall clock: identical appended bytes, identical records
// scanned during recovery.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace ariesrh::bench {
namespace {

void NormalProcessing(benchmark::State& state, DelegationMode mode) {
  const int txns = static_cast<int>(state.range(0));
  uint64_t appended = 0;
  uint64_t updates = 0;
  for (auto _ : state) {
    Options options;
    options.delegation_mode = mode;
    options.buffer_pool_pages = 256;
    Database db(options);
    WorkloadParams params;
    params.txns = txns;
    params.updates_per_txn = 16;
    params.loser_pct = 0;
    RunWorkload(&db, params);
    appended = db.stats().log_bytes_appended;
    updates += static_cast<uint64_t>(txns) * 16;
  }
  state.SetItemsProcessed(static_cast<int64_t>(updates));
  state.counters["log_bytes"] =
      benchmark::Counter(static_cast<double>(appended));
}

void Recovery(benchmark::State& state, DelegationMode mode) {
  const int txns = static_cast<int>(state.range(0));
  uint64_t fwd_records = 0, examined = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.delegation_mode = mode;
    options.buffer_pool_pages = 256;
    Database db(options);
    WorkloadParams params;
    params.txns = txns;
    params.updates_per_txn = 16;
    params.loser_pct = 20;
    RunWorkload(&db, params);
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    const Stats delta = db.stats().Delta(before);
    fwd_records = delta.recovery_forward_records;
    examined = delta.recovery_backward_examined;
    state.ResumeTiming();
  }
  state.counters["fwd_records"] =
      benchmark::Counter(static_cast<double>(fwd_records));
  state.counters["bwd_examined"] =
      benchmark::Counter(static_cast<double>(examined));
}

void BM_Normal_ConventionalAries(benchmark::State& state) {
  NormalProcessing(state, DelegationMode::kDisabled);
}
void BM_Normal_AriesRH(benchmark::State& state) {
  NormalProcessing(state, DelegationMode::kRH);
}
void BM_Recovery_ConventionalAries(benchmark::State& state) {
  Recovery(state, DelegationMode::kDisabled);
}
void BM_Recovery_AriesRH(benchmark::State& state) {
  Recovery(state, DelegationMode::kRH);
}

BENCHMARK(BM_Normal_ConventionalAries)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_Normal_AriesRH)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_Recovery_ConventionalAries)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_Recovery_AriesRH)->Arg(100)->Arg(400)->Arg(1600);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("no_delegation_overhead");
