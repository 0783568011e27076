// Shared helpers for the benchmark harness.
//
// Each bench binary regenerates one of the experiment rows in DESIGN.md
// (E1..E8): google-benchmark provides the timing table; Stats counters are
// attached to each row so the paper's access-pattern claims are visible
// next to the wall-clock numbers.

#ifndef ARIESRH_BENCH_BENCH_UTIL_H_
#define ARIESRH_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "util/random.h"

namespace ariesrh::bench {

/// Logical CPUs of the host the bench ran on. Every bench JSON records this
/// (global context AND a per-row counter): a throughput-scaling row measured
/// on a 1-CPU container means something very different from the same row on
/// a 16-core box, and the checked-in JSONs must say which one they are.
inline uint64_t NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Drop-in replacement for BENCHMARK_MAIN(): runs the registered benchmarks
/// with console output as usual AND writes the full google-benchmark JSON
/// report (timings + per-row counters) to BENCH_<name>.json in the working
/// directory, so experiment tables can be collected without re-running.
/// The report's context section carries num_cpus_host (see NumCpus) and
/// engine_build_type, the CMAKE_BUILD_TYPE the engine was compiled with
/// (library_build_type describes google-benchmark's own build).
inline int BenchMain(const char* name, int argc, char** argv) {
  // Default --benchmark_out to BENCH_<name>.json; an explicit flag wins.
  std::string out_flag = std::string("--benchmark_out=BENCH_") + name + ".json";
  std::string format_flag = "--benchmark_out_format=json";
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::AddCustomContext("num_cpus_host", std::to_string(NumCpus()));
  benchmark::AddCustomContext("engine_build_type", ARIESRH_ENGINE_BUILD_TYPE);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ariesrh::bench

/// Per-binary main: like BENCHMARK_MAIN() but also emits BENCH_<name>.json.
#define ARIESRH_BENCH_MAIN(name)                          \
  int main(int argc, char** argv) {                       \
    return ::ariesrh::bench::BenchMain(name, argc, argv); \
  }

namespace ariesrh::bench {

/// Aborts the benchmark on an unexpected engine error (benchmarks must not
/// silently measure failure paths).
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "bench: %s failed: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  if (!result.ok()) {
    fprintf(stderr, "bench: %s failed: %s\n", what,
            result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

// kv_durable's record shape: 9-byte keys, 100-byte values.
inline std::string HeapKey(int i) {
  char key[16];
  snprintf(key, sizeof(key), "key%06d", i);
  return key;
}

/// Commits `keys` puts of `value` in batches, one transaction per batch.
inline void PutKeys(Database* db, const std::vector<std::string>& keys,
                    const std::string& value) {
  constexpr size_t kBatch = 1000;
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    const TxnId txn = CheckResult(db->Begin(), "Begin");
    for (size_t i = base; i < std::min(keys.size(), base + kBatch); ++i) {
      Check(db->TablePut(txn, keys[i], value), "TablePut");
    }
    Check(db->Commit(txn), "Commit");
  }
}

/// Restarts a crashed database (StartRecovery) and waits the restart out;
/// aborts the bench on error.
inline RecoveryManager::Outcome RestartAndAwait(Database& db) {
  return CheckResult(CheckResult(db.StartRecovery(), "StartRecovery")->Await(),
                     "Recover");
}

/// Runs a mixed update workload: `txns` transactions, `updates_per_txn`
/// increments over `objects` distinct objects, committing a fraction and
/// leaving `loser_pct` percent active (losers at a subsequent crash).
/// With delegation_pct > 0, that percentage of transactions delegate all
/// their objects to the next transaction before resolving.
struct WorkloadParams {
  int txns = 100;
  int updates_per_txn = 10;
  ObjectId objects = 256;
  int loser_pct = 20;
  int delegation_pct = 0;
  uint64_t seed = 42;
};

inline void RunWorkload(Database* db, const WorkloadParams& params) {
  Random rng(params.seed);
  TxnId previous = kInvalidTxn;
  for (int i = 0; i < params.txns; ++i) {
    TxnId txn = CheckResult(db->Begin(), "Begin");
    for (int u = 0; u < params.updates_per_txn; ++u) {
      ObjectId ob = rng.Uniform(params.objects);
      Check(db->Add(txn, ob, static_cast<int64_t>(rng.Uniform(100)) + 1),
            "Add");
    }
    if (previous != kInvalidTxn &&
        rng.Percent(static_cast<uint32_t>(params.delegation_pct))) {
      // Delegate everything to the previously started transaction (which is
      // still active when it was chosen as a loser).
      const Transaction* tx = db->shard(0)->txn_manager()->Find(txn);
      if (tx != nullptr && !tx->ob_list.empty() &&
          db->shard(0)->txn_manager()->Find(previous) != nullptr &&
          db->shard(0)->txn_manager()->Find(previous)->state ==
              TxnState::kActive) {
        Check(db->Delegate(txn, previous, DelegationSpec::All()), "DelegateAll");
      }
    }
    if (rng.Percent(static_cast<uint32_t>(100 - params.loser_pct))) {
      Check(db->Commit(txn), "Commit");
    } else {
      previous = txn;  // left active: a loser at crash time
    }
  }
  Check(db->shard(0)->log_manager()->FlushAll(), "FlushAll");
}

}  // namespace ariesrh::bench

#endif  // ARIESRH_BENCH_BENCH_UTIL_H_
