// E2 — "Normal processing: low overhead" (paper Section 4.2).
//
// Posting one delegation costs a single log append plus Ob_List updates
// linear in the number of objects delegated. The sweep over the object
// count makes the linearity visible; `log_appends` stays at 1 per delegate
// throughout.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace ariesrh::bench {
namespace {

void BM_DelegateObjects(benchmark::State& state) {
  const int object_count = static_cast<int>(state.range(0));
  uint64_t appends = 0, scopes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.buffer_pool_pages = 1024;
    Database db(options);
    TxnId tor = CheckResult(db.Begin(), "Begin");
    TxnId tee = CheckResult(db.Begin(), "Begin");
    std::vector<ObjectId> objects;
    objects.reserve(object_count);
    for (int i = 0; i < object_count; ++i) {
      Check(db.Add(tor, i, 1), "Add");
      objects.push_back(i);
    }
    const Stats before = db.stats();
    state.ResumeTiming();

    Check(db.Delegate(tor, tee, DelegationSpec::Objects(objects)), "Delegate");

    state.PauseTiming();
    const Stats delta = db.stats().Delta(before);
    appends = delta.log_appends;
    scopes = delta.scopes_transferred;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * object_count);
  state.counters["log_appends_per_delegate"] =
      benchmark::Counter(static_cast<double>(appends));
  state.counters["scopes_moved"] =
      benchmark::Counter(static_cast<double>(scopes));
}

// The paper's point of comparison: cost of delegating must not depend on
// how long the delegator's history is, only on what is delegated. The
// object ping-pongs between two transactions so thousands of delegations
// amortize away timer noise; every one of them is preceded by the same long
// history.
void BM_DelegateOneObjectVsHistoryLength(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  Database db;
  TxnId a = CheckResult(db.Begin(), "Begin");
  TxnId b = CheckResult(db.Begin(), "Begin");
  for (int i = 0; i < history; ++i) {
    Check(db.Add(a, 1, 1), "Add");
  }
  Check(db.shard(0)->log_manager()->FlushAll(), "Flush");
  const Stats before = db.stats();

  TxnId from = a, to = b;
  for (auto _ : state) {
    Check(db.Delegate(from, to, DelegationSpec::Objects({1})), "Delegate");
    std::swap(from, to);
  }
  const Stats delta = db.stats().Delta(before);
  state.SetItemsProcessed(state.iterations());
  state.counters["stable_log_reads_per_delegate"] = benchmark::Counter(
      static_cast<double>(delta.log_seq_reads + delta.log_random_reads) /
      static_cast<double>(state.iterations()));
  state.counters["appends_per_delegate"] =
      benchmark::Counter(static_cast<double>(delta.log_appends) /
                         static_cast<double>(state.iterations()));
}

BENCHMARK(BM_DelegateObjects)->RangeMultiplier(4)->Range(1, 4096);
BENCHMARK(BM_DelegateOneObjectVsHistoryLength)
    ->RangeMultiplier(8)
    ->Range(8, 32768);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("delegation_cost");
