// Reenactment cost: StateAt over a ~10k-record delegation log at three cut
// depths (shallow / midpoint / tail), plus the responsibility query. The
// point of the row: time travel is a pure read-side replay — its cost
// scales with the cut depth and touches the engine not at all, which is
// only possible because RH never rewrites the history it replays.
//
// BM_ReenactStateAtTable/<keys> is the anchored case: a table of that many
// keys (kv_durable's 100-byte values) checkpointed and archived, then a
// retained suffix overwriting every tenth key. StateAt(tail) snapshots the
// stable pages, restores them into the fold, replays the suffix over them
// and extracts the state — the path a live engine with an archived log
// takes.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "reenact/reenact.h"

namespace ariesrh::bench {
namespace {

/// ~10k log records: 800 txns x 10 updates + begin/commit framing, with a
/// quarter of transactions delegating. Returns the database, quiesced and
/// flushed, ready for reenactment.
void BuildHistory(Database* db) {
  WorkloadParams params;
  params.txns = 800;
  params.updates_per_txn = 10;
  params.objects = 256;
  params.loser_pct = 10;
  params.delegation_pct = 25;
  RunWorkload(db, params);
}

void BM_ReenactStateAt(benchmark::State& state) {
  Options options;
  options.buffer_pool_pages = 256;
  Database db(options);
  BuildHistory(&db);
  reenact::Reenactor reenactor =
      CheckResult(reenact::Reenactor::OpenLive(&db), "OpenLive");
  const Lsn tail = reenactor.tail_lsn(0);
  // Cut depth as a fraction of the retained history: 4 = tail/4 (shallow),
  // 2 = midpoint, 1 = the full tail.
  const Lsn cut = tail / static_cast<Lsn>(state.range(0));
  uint64_t records = 0;
  for (auto _ : state) {
    reenact::StateImage img =
        CheckResult(reenactor.StateAt(cut), "StateAt");
    benchmark::DoNotOptimize(img);
    records += img.objects.size();
  }
  state.counters["cut_lsn"] = benchmark::Counter(static_cast<double>(cut));
  state.counters["tail_lsn"] = benchmark::Counter(static_cast<double>(tail));
  state.counters["objects"] = benchmark::Counter(
      static_cast<double>(records) / static_cast<double>(state.iterations()));
  state.counters["num_cpus"] =
      benchmark::Counter(static_cast<double>(NumCpus()));
}
BENCHMARK(BM_ReenactStateAt)->Arg(4)->Arg(2)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ReenactStateAtTable(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  std::vector<std::string> names, suffix;
  for (int i = 0; i < keys; ++i) {
    names.push_back(HeapKey(i));
    if (i % 10 == 0) suffix.push_back(names.back());
  }
  Database db;
  PutKeys(&db, names, std::string(100, 'v'));
  Check(db.shard(0)->table_heap()->FlushAll(), "FlushAll");
  Check(db.Checkpoint(), "Checkpoint");
  Check(db.ArchiveLog().status(), "ArchiveLog");
  PutKeys(&db, suffix, std::string(100, 'w'));
  Check(db.Sync(), "Sync");
  reenact::Reenactor reenactor =
      CheckResult(reenact::Reenactor::OpenLive(&db), "OpenLive");
  size_t records = 0;
  for (auto _ : state) {
    reenact::StateImage img = CheckResult(reenactor.StateAt(), "StateAt");
    records = img.records.size();
    benchmark::DoNotOptimize(img);
  }
  if (records != static_cast<size_t>(keys)) {
    state.SkipWithError("StateAt lost records");
    return;
  }
  state.counters["records"] = benchmark::Counter(static_cast<double>(records));
  state.counters["retained_from"] = benchmark::Counter(
      static_cast<double>(db.shard(0)->disk()->first_retained_lsn()));
  state.counters["num_cpus"] =
      benchmark::Counter(static_cast<double>(NumCpus()));
}
BENCHMARK(BM_ReenactStateAtTable)->Arg(25000)->Unit(benchmark::kMillisecond);

void BM_ReenactWhodunit(benchmark::State& state) {
  Options options;
  options.buffer_pool_pages = 256;
  Database db(options);
  BuildHistory(&db);
  reenact::Reenactor reenactor =
      CheckResult(reenact::Reenactor::OpenLive(&db), "OpenLive");
  ObjectId ob = 0;
  for (auto _ : state) {
    reenact::ResponsibilityAnswer answer = CheckResult(
        reenactor.ResponsibleFor(1 + (ob++ % 256)), "ResponsibleFor");
    benchmark::DoNotOptimize(answer);
  }
  state.counters["num_cpus"] =
      benchmark::Counter(static_cast<double>(NumCpus()));
}
BENCHMARK(BM_ReenactWhodunit)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("reenact")
