// E5 — "Recovery: low overhead" (paper Section 4.2).
//
// RH recovery uses the same two passes as conventional ARIES; the only
// additional work is linear in the number of delegated operations. The
// sweep raises the delegation rate from 0% to 50% of transactions and
// reports recovery time, pass count, and forward/backward record traffic —
// the overhead curve should be flat-ish in the sweep dimension and the pass
// count constant at 2.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_util.h"

namespace ariesrh::bench {
namespace {

void BM_RecoveryVsDelegationRate(benchmark::State& state) {
  const int delegation_pct = static_cast<int>(state.range(0));
  uint64_t passes = 0, fwd = 0, examined = 0, delegations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.buffer_pool_pages = 256;
    Database db(options);
    WorkloadParams params;
    params.txns = 600;
    params.updates_per_txn = 8;
    params.loser_pct = 25;
    params.delegation_pct = delegation_pct;
    RunWorkload(&db, params);
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    const Stats delta = db.stats().Delta(before);
    passes = delta.recovery_passes;
    fwd = delta.recovery_forward_records;
    examined = delta.recovery_backward_examined;
    delegations = db.stats().delegations;
    state.ResumeTiming();
  }
  state.counters["passes"] = benchmark::Counter(static_cast<double>(passes));
  state.counters["fwd_records"] = benchmark::Counter(static_cast<double>(fwd));
  state.counters["bwd_examined"] =
      benchmark::Counter(static_cast<double>(examined));
  state.counters["delegations"] =
      benchmark::Counter(static_cast<double>(delegations));
}

// Checkpointed recovery: the forward pass starts at the checkpoint even
// with live delegation state (scopes travel through the snapshot).
void BM_RecoveryWithCheckpoint(benchmark::State& state) {
  const bool checkpointed = state.range(0) != 0;
  uint64_t fwd = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.buffer_pool_pages = 256;
    Database db(options);
    WorkloadParams params;
    params.txns = 500;
    params.updates_per_txn = 8;
    params.loser_pct = 20;
    params.delegation_pct = 25;
    RunWorkload(&db, params);
    if (checkpointed) {
      // Flush dirty pages so the checkpoint's redo point advances; a fuzzy
      // checkpoint over a dirty pool still honours the old recLSNs.
      Check(db.shard(0)->buffer_pool()->FlushAll(), "FlushAll");
      Check(db.Checkpoint(), "Checkpoint");
    }
    // A little more work after the checkpoint.
    WorkloadParams tail = params;
    tail.txns = 50;
    tail.seed = 99;
    RunWorkload(&db, tail);
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    fwd = db.stats().Delta(before).recovery_forward_records;
    state.ResumeTiming();
  }
  state.counters["fwd_records"] = benchmark::Counter(static_cast<double>(fwd));
  state.SetLabel(checkpointed ? "with_checkpoint" : "no_checkpoint");
}

// The same claim for a table history. Logical TBL_* records dirty heap
// pages that no eviction writes back, so a checkpoint's redo point moves
// only through the penultimate-checkpoint write-back: with one checkpoint
// the forward pass still starts at the first table write; the second
// checkpoint writes back every chain dirty since before the first, and the
// pass shrinks to the checkpoint window plus the tail. Arg: checkpoints
// taken (0, 1 or 2) over 500 transactions of 4 puts, before 50 more.
void BM_TableRecoveryWithCheckpoints(benchmark::State& state) {
  const int checkpoints = static_cast<int>(state.range(0));
  uint64_t fwd = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db;
    Random rng(5);
    const std::string value(100, 'v');
    auto run = [&](int txns) {
      for (int i = 0; i < txns; ++i) {
        const TxnId txn = CheckResult(db.Begin(), "Begin");
        for (int w = 0; w < 4; ++w) {
          Check(db.TablePut(txn, "key" + std::to_string(rng.Uniform(2000)),
                            value),
                "TablePut");
        }
        Check(db.Commit(txn), "Commit");
      }
    };
    run(450);
    if (checkpoints >= 2) Check(db.Checkpoint(), "Checkpoint");
    run(50);
    if (checkpoints >= 1) Check(db.Checkpoint(), "Checkpoint");
    run(50);
    db.SimulateCrash();
    const Stats before = db.stats();
    state.ResumeTiming();

    RestartAndAwait(db);

    state.PauseTiming();
    fwd = db.stats().Delta(before).recovery_forward_records;
    state.ResumeTiming();
  }
  state.counters["fwd_records"] = benchmark::Counter(static_cast<double>(fwd));
  state.counters["checkpoints"] =
      benchmark::Counter(static_cast<double>(checkpoints));
}

// Parallel restart recovery: the same crashed image recovered at 1/2/4
// worker threads. The workload is phased — each phase owns a disjoint
// object band (so redo spreads over many independent pages) and leaves one
// loser whose scopes span only that phase's LSN window (so undo faces 8
// independent groups). Per-pass wall times from the recovery Outcome are
// attached as counters, so BENCH_recovery_overhead.json records where the
// time goes.
//
// The recovery options charge a simulated seek to every random log read
// (`sim_log_random_read_ns`). Each loser update is its own one-record
// scope with a winner update between it and the next, so an undo sweep
// that jumps between scopes pays a seek per record; the backward stream
// reads those one-record gaps through instead. The thread count moves only
// redo: partitioned redo replays the collected plan without touching the
// log, and undo is one stream per shard at any thread count.
const std::string& ClusteredCrashImage() {
  static const std::string path = [] {
    const std::string p = "/tmp/ariesrh_bench_parallel_recovery.ariesrh";
    Options options;
    options.buffer_pool_pages = 4096;
    Database db(options);
    constexpr int kPhases = 8;
    constexpr int kUpdatesPerTxn = 400;
    constexpr ObjectId kBand = 64 * kObjectsPerPage;
    for (int p_idx = 0; p_idx < kPhases; ++p_idx) {
      const ObjectId base = static_cast<ObjectId>(p_idx) * kBand;
      TxnId winner = CheckResult(db.Begin(), "Begin");
      TxnId loser = CheckResult(db.Begin(), "Begin");
      for (int i = 0; i < kUpdatesPerTxn; ++i) {
        Check(db.Add(winner, base + i % (16 * kObjectsPerPage), 1), "Add");
        Check(db.Add(loser,
                     base + 32 * kObjectsPerPage + i % (16 * kObjectsPerPage),
                     1),
              "Add");
      }
      Check(db.Commit(winner), "Commit");
      // `loser` stays active: one undo cluster per phase.
    }
    Check(db.shard(0)->log_manager()->FlushAll(), "FlushAll");
    db.SimulateCrash();
    Check(db.SaveTo(p), "SaveTo");
    return p;
  }();
  return path;
}

void BM_ParallelRecovery(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const std::string& image = ClusteredCrashImage();
  RecoveryManager::Outcome outcome;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.buffer_pool_pages = 4096;
    options.recovery_threads = threads;
    options.sim_log_random_read_ns = 25 * 1000;  // 25us per simulated seek
    state.ResumeTiming();

    // Open performs restart recovery as part of opening now; the timed
    // region is load + all three passes (load is an in-memory image copy,
    // negligible next to the simulated log seeks).
    Result<Database::OpenResult> opened = Database::Open(options, image);

    state.PauseTiming();
    Database::OpenResult result = CheckResult(std::move(opened), "Open");
    outcome = CheckResult(result.recovery->Await(), "Recover");
    result.db.reset();  // teardown outside the timed region
    state.ResumeTiming();
  }
  state.counters["threads"] = benchmark::Counter(static_cast<double>(threads));
  state.counters["analysis_ns"] =
      benchmark::Counter(static_cast<double>(outcome.analysis_ns));
  state.counters["redo_ns"] =
      benchmark::Counter(static_cast<double>(outcome.redo_ns));
  state.counters["undo_ns"] =
      benchmark::Counter(static_cast<double>(outcome.undo_ns));
  state.counters["clusters"] =
      benchmark::Counter(static_cast<double>(outcome.clusters_swept));
  state.counters["redone"] =
      benchmark::Counter(static_cast<double>(outcome.records_redone));
  state.counters["undone"] =
      benchmark::Counter(static_cast<double>(outcome.records_undone));
}

// E9 — instant restart: time-to-first-commit (docs/INSTANT_RESTART.md).
//
// The same clustered crash image opened under RecoveryMode::kFull (all
// three passes block the open) and RecoveryMode::kInstant (analysis only;
// redo runs on demand at page fetch and loser-cluster undo drains in the
// background). The timed region is Open + the first commit of a fresh
// transaction on an object outside every loser cluster — the paper's
// "instant" claim is exactly that this first commit does not wait for the
// log-bound redo/undo work. The engine-observed ttfc (the
// ariesrh_time_to_first_commit_ns histogram, armed at restart start and
// consumed by the first facade commit) is attached as a counter.
const std::string& TtfcCrashImage(size_t shards) {
  static std::map<size_t, std::string>& cache =
      *new std::map<size_t, std::string>();
  auto it = cache.find(shards);
  if (it != cache.end()) return it->second;
  const std::string p = "/tmp/ariesrh_bench_ttfc_" + std::to_string(shards) +
                        ".ariesrh";
  Options options;
  options.buffer_pool_pages = 4096;
  options.num_shards = shards;
  Database db(options);
  constexpr int kPhases = 8;
  constexpr int kUpdatesPerTxn = 400;
  constexpr ObjectId kBand = 64 * kObjectsPerPage;
  for (int p_idx = 0; p_idx < kPhases; ++p_idx) {
    const ObjectId base = static_cast<ObjectId>(p_idx) * kBand;
    TxnId winner = CheckResult(db.Begin(), "Begin");
    TxnId loser = CheckResult(db.Begin(), "Begin");
    for (int i = 0; i < kUpdatesPerTxn; ++i) {
      Check(db.Add(winner, base + i % (16 * kObjectsPerPage), 1), "Add");
      Check(db.Add(loser,
                   base + 32 * kObjectsPerPage + i % (16 * kObjectsPerPage),
                   1),
            "Add");
    }
    Check(db.Commit(winner), "Commit");
    // `loser` stays active: one undo cluster per phase.
  }
  Check(db.Sync(), "Sync");
  db.SimulateCrash();
  Check(db.SaveTo(p), "SaveTo");
  return cache.emplace(shards, p).first->second;
}

/// An object no transaction in the ttfc image ever touched: outside every
/// loser cluster, so the recovery gate's fast path applies.
constexpr ObjectId kFreshObject =
    static_cast<ObjectId>(1) << 28;

void BM_TimeToFirstCommit(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const bool instant = state.range(1) != 0;
  const std::string& image = TtfcCrashImage(shards);
  uint64_t engine_ttfc_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Options options;
    options.buffer_pool_pages = 4096;
    options.num_shards = shards;
    options.recovery_threads = 2;
    options.sim_log_random_read_ns = 25 * 1000;  // 25us per simulated seek
    options.recovery_mode =
        instant ? RecoveryMode::kInstant : RecoveryMode::kFull;
    state.ResumeTiming();

    Result<Database::OpenResult> opened = Database::Open(options, image);
    Database::OpenResult result = CheckResult(std::move(opened), "Open");
    TxnId t = CheckResult(result.db->Begin(), "Begin");
    Check(result.db->Add(t, kFreshObject, 1), "Add");
    Check(result.db->Commit(t), "Commit");

    state.PauseTiming();
    obs::Histogram* hist = result.db->metrics()->FindHistogram(
        "ariesrh_time_to_first_commit_ns");
    if (hist != nullptr && hist->Count() > 0) {
      engine_ttfc_ns = hist->GetSnapshot().sum;
    }
    // Drain the background pass and tear down outside the timed region.
    Check(result.recovery->Await().status(), "Await");
    result.db.reset();
    state.ResumeTiming();
  }
  state.counters["shards"] = benchmark::Counter(static_cast<double>(shards));
  state.counters["ttfc_ns"] =
      benchmark::Counter(static_cast<double>(engine_ttfc_ns));
  state.SetLabel(instant ? "instant" : "full");
}

BENCHMARK(BM_RecoveryVsDelegationRate)
    ->Arg(0)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(40)
    ->Arg(50);
BENCHMARK(BM_RecoveryWithCheckpoint)->Arg(0)->Arg(1);
BENCHMARK(BM_TableRecoveryWithCheckpoints)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_ParallelRecovery)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TimeToFirstCommit)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ariesrh::bench

ARIESRH_BENCH_MAIN("recovery_overhead");
