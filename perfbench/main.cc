// The benchmark binary:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>]
//
// Prints one run-info JSON line (engine build type, git sha, CPU count,
// workload settings, seed), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 on a failed
// correctness check or an unexpected engine error.

#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_ENGINE_BUILD_TYPE
#define PERFBENCH_ENGINE_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (config.seconds < 1 || config.seconds > 3600) {
    return Usage("--seconds must be in 1..3600");
  }

  // The engine's simulated device stalls are sleeps. The default 50 us timer
  // slack would stretch a 200 us simulated force by a varying amount; 1 ns
  // slack makes each stall close to its nominal length. Threads the engine
  // starts inherit the setting.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // Crash images go under the working directory (the checkout).
  config.scratch_dir =
      ".perfbench_tmp/run-" + std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(config.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 config.scratch_dir.c_str());
    return 1;
  }

  perfbench::RunResult result;
  int exit_code = 0;
  try {
    result = perfbench::RunWorkload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", config.workload.c_str(),
                 e.what());
    exit_code = 1;
  }
  std::filesystem::remove_all(config.scratch_dir, ec);
  std::filesystem::remove(".perfbench_tmp", ec);  // only if now empty
  if (exit_code != 0) return exit_code;

  using perfbench::JsonString;
  std::string info = "{\"run_info\": {\"workload\": " +
                     JsonString(config.workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + std::to_string(config.seconds) +
                     ", \"trace\": " + (config.trace ? "true" : "false") +
                     ", \"engine_build_type\": " +
                     JsonString(PERFBENCH_ENGINE_BUILD_TYPE) +
                     ", \"git_sha\": " + JsonString(git_sha) +
                     ", \"source_digest\": " + JsonString(source_digest) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, value] : result.settings) {
    info += ", " + JsonString(key) + ": " + value;
  }
  info += "}}";
  std::printf("%s\n", info.c_str());
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
