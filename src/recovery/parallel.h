// A small work-queue utility for parallel restart recovery.
//
// Partitioned redo has the shape of a fixed set of independent work units
// (page buckets) drained by a handful of workers. RunOnWorkers claims units
// off a shared atomic cursor — no per-unit allocation, natural load
// balancing when unit sizes are skewed — and returns the first error any
// worker hit; once a worker fails, the remaining units are abandoned
// (recovery is idempotent, so a re-run converges regardless of where the
// pipeline stopped).

#ifndef ARIESRH_RECOVERY_PARALLEL_H_
#define ARIESRH_RECOVERY_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <functional>

#include "util/status.h"

namespace ariesrh {

/// Runs `task(i)` for every i in [0, num_tasks) on up to `threads` workers.
/// With threads <= 1 (or a single task) everything runs inline on the
/// calling thread — the serial fallback, byte-for-byte the pre-parallel
/// behavior. Returns OK when every task succeeded, otherwise the first
/// failure observed (remaining unclaimed tasks are skipped).
Status RunOnWorkers(size_t threads, size_t num_tasks,
                    const std::function<Status(size_t)>& task);

/// Shared fault-injection budget for crash-point tests. Workers spend units
/// concurrently; the worker that finds the budget exhausted reports the
/// injected crash. Wraps the CAS loop so the undo/redo paths share one
/// implementation.
class RecoveryFaultBudget {
 public:
  explicit RecoveryFaultBudget(uint64_t units) : remaining_(units) {}

  /// Spends one unit. Returns false when the budget was already exhausted —
  /// the caller must then simulate the crash.
  bool Spend() {
    uint64_t cur = remaining_.load(std::memory_order_relaxed);
    while (true) {
      if (cur == 0) return false;
      if (remaining_.compare_exchange_weak(cur, cur - 1,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
  }

 private:
  std::atomic<uint64_t> remaining_;
};

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_PARALLEL_H_
