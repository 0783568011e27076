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

}  // namespace ariesrh

#endif  // ARIESRH_RECOVERY_PARALLEL_H_
