#include "recovery/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace ariesrh {

Status RunOnWorkers(size_t threads, size_t num_tasks,
                    const std::function<Status(size_t)>& task) {
  if (num_tasks == 0) return Status::OK();
  if (threads <= 1 || num_tasks == 1) {
    for (size_t i = 0; i < num_tasks; ++i) {
      ARIESRH_RETURN_IF_ERROR(task(i));
    }
    return Status::OK();
  }

  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error = Status::OK();

  auto worker = [&] {
    while (!failed.load(std::memory_order_acquire)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      Status status = task(i);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.ok()) first_error = std::move(status);
        failed.store(true, std::memory_order_release);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  const size_t n = std::min(threads, num_tasks);
  pool.reserve(n);
  for (size_t t = 0; t < n; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return first_error;
}

}  // namespace ariesrh
