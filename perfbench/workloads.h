// The benchmark's workloads. Each runs a fixed amount of work derived from
// the run length, checks the engine's outputs, and fills in the metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for crash images; created by the caller, removed after.
  std::string scratch_dir;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Settings the run used (shards, clients, stalls), rendered as JSON
  /// members for the run-info line.
  std::vector<std::pair<std::string, std::string>> settings;
  /// Correctness mismatches, one line each.
  std::vector<std::string> errors;
};

/// Runs one workload: kv_durable or restart_asof (BENCHMARK.json).
/// Throws std::invalid_argument for an unknown name and std::runtime_error
/// on an unexpected engine error (the run is then void, not merely
/// incorrect).
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
