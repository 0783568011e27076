// E4 — the cluster-sweeping backward pass (paper Section 3.6.2, Figures
// 7-8).
//
// The undo pass must (a) visit each log record at most once in strictly
// decreasing LSN order, and (b) skip entire log segments between loser
// scope clusters instead of scanning everything (the naive alternative the
// paper rejects). We vary where the losers sit in the log and report
// records examined vs. skipped — the skip ratio is the claim — and the
// records read through between clusters, which stay 0 here: these runs
// charge no seek stall, so every gap is sought over.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace ariesrh::bench {
namespace {

enum class Layout {
  kEdges,    // losers at the very start and end, winners in between
  kUniform,  // losers evenly spread through the log
  kDense,    // every transaction is a loser (worst case: one big cluster)
};

// Builds a log of `txns` single-update transactions; `loser_every` selects
// which of them stay unresolved.
void BuildAndRecover(benchmark::State& state, Layout layout) {
  const int txns = static_cast<int>(state.range(0));
  uint64_t examined = 0, skipped = 0, read_through = 0, undone = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.buffer_pool_pages = 512;
    Database db(options);
    for (int i = 0; i < txns; ++i) {
      TxnId t = CheckResult(db.Begin(), "Begin");
      Check(db.Add(t, static_cast<ObjectId>(i % 64), 1), "Add");
      bool loser = false;
      switch (layout) {
        case Layout::kEdges:
          loser = i < txns / 20 || i >= txns - txns / 20;
          break;
        case Layout::kUniform:
          loser = i % 10 == 0;
          break;
        case Layout::kDense:
          loser = true;
          break;
      }
      if (!loser) Check(db.Commit(t), "Commit");
    }
    Check(db.shard(0)->log_manager()->FlushAll(), "Flush");
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    const Stats delta = db.stats().Delta(before);
    examined = delta.recovery_backward_examined;
    skipped = delta.recovery_backward_skipped;
    read_through = delta.recovery_backward_read_through;
    undone = delta.recovery_undos;
    state.ResumeTiming();
  }
  state.counters["examined"] = benchmark::Counter(static_cast<double>(examined));
  state.counters["skipped"] = benchmark::Counter(static_cast<double>(skipped));
  state.counters["read_through"] =
      benchmark::Counter(static_cast<double>(read_through));
  state.counters["undone"] = benchmark::Counter(static_cast<double>(undone));
  const double total = static_cast<double>(examined + skipped);
  state.counters["skip_ratio"] =
      benchmark::Counter(total > 0 ? static_cast<double>(skipped) / total : 0);
}

void BM_Undo_LosersAtEdges(benchmark::State& state) {
  BuildAndRecover(state, Layout::kEdges);
}
void BM_Undo_LosersUniform(benchmark::State& state) {
  BuildAndRecover(state, Layout::kUniform);
}
void BM_Undo_AllLosers(benchmark::State& state) {
  BuildAndRecover(state, Layout::kDense);
}

// Overlapping-scope torture: many concurrent incrementers on one object
// delegate into each other, building the deep overlapping clusters of
// Figure 7, then all lose.
void BM_Undo_OverlappingScopeCluster(benchmark::State& state) {
  const int concurrent = static_cast<int>(state.range(0));
  uint64_t examined = 0, undone = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    std::vector<TxnId> group;
    for (int i = 0; i < concurrent; ++i) {
      TxnId t = CheckResult(db.Begin(), "Begin");
      group.push_back(t);
      for (int u = 0; u < 4; ++u) {
        Check(db.Add(t, 1, 1), "Add");
      }
    }
    // Chain delegations: everyone hands object 1 to the next transaction,
    // producing `concurrent` overlapping scopes owned by the last one.
    for (size_t i = 0; i + 1 < group.size(); ++i) {
      Check(db.Delegate(group[i], group[i + 1], DelegationSpec::Objects({1})), "Delegate");
    }
    Check(db.shard(0)->log_manager()->FlushAll(), "Flush");
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    const Stats delta = db.stats().Delta(before);
    examined = delta.recovery_backward_examined;
    undone = delta.recovery_undos;
    state.ResumeTiming();
  }
  state.counters["examined"] = benchmark::Counter(static_cast<double>(examined));
  state.counters["undone"] = benchmark::Counter(static_cast<double>(undone));
}

// Ablation: the same recovery executed with the Figure-8 cluster sweep vs.
// the rejected full-scan alternative (UndoStrategy::kFullScan). Identical
// end states, radically different record traffic.
void UndoStrategyAblation(benchmark::State& state, UndoStrategy strategy) {
  const int txns = static_cast<int>(state.range(0));
  uint64_t examined = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.undo_strategy = strategy;
    options.buffer_pool_pages = 512;
    Database db(options);
    for (int i = 0; i < txns; ++i) {
      TxnId t = CheckResult(db.Begin(), "Begin");
      Check(db.Add(t, static_cast<ObjectId>(i % 64), 1), "Add");
      const bool loser = i < txns / 20 || i >= txns - txns / 20;
      if (!loser) Check(db.Commit(t), "Commit");
    }
    Check(db.shard(0)->log_manager()->FlushAll(), "Flush");
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    examined = db.stats().Delta(before).recovery_backward_examined;
    state.ResumeTiming();
  }
  state.counters["examined"] =
      benchmark::Counter(static_cast<double>(examined));
  state.SetLabel(UndoStrategyName(strategy));
}

void BM_Ablation_ClusterSweep(benchmark::State& state) {
  UndoStrategyAblation(state, UndoStrategy::kScopeClusters);
}
void BM_Ablation_FullScan(benchmark::State& state) {
  UndoStrategyAblation(state, UndoStrategy::kFullScan);
}

BENCHMARK(BM_Ablation_ClusterSweep)->Arg(2000)->Arg(8000);
BENCHMARK(BM_Ablation_FullScan)->Arg(2000)->Arg(8000);

BENCHMARK(BM_Undo_LosersAtEdges)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_Undo_LosersUniform)->Arg(1000)->Arg(4000)->Arg(16000);
BENCHMARK(BM_Undo_AllLosers)->Arg(1000)->Arg(4000);
BENCHMARK(BM_Undo_OverlappingScopeCluster)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("backward_clusters");
