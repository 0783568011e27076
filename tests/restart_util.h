// Restart helpers for tests: the blocking restart (Database::StartRecovery()
// followed by Await() on its handle, returning the merged Outcome or the
// first error) and a crash point for Database::set_test_hook.

#ifndef ARIESRH_TESTS_RESTART_UTIL_H_
#define ARIESRH_TESTS_RESTART_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "core/database.h"
#include "util/test_hook.h"

namespace ariesrh {

inline Result<RecoveryManager::Outcome> RestartAndAwait(Database& db) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<RecoveryHandle> handle,
                           db.StartRecovery());
  return handle->Await();
}

/// A test hook that fails with IOError from the (n+1)th hit of `point` on.
/// `point` is a full name ("recovery:undo:1") or a name without its indices
/// ("recovery:undo" covers every shard's). Each full name counts its own
/// hits, so the hook CrashAt("recovery:undo", n) returns lets every shard
/// compensate n times. Other points go to `next` (optional), which chains
/// crash points. Thread-safe: restart fires points on several threads.
inline TestHook CrashAt(std::string point, uint64_t n,
                        TestHook next = nullptr) {
  struct Hits {
    std::mutex mu;
    std::map<std::string, uint64_t> by_name;
  };
  auto hits = std::make_shared<Hits>();
  return [point = std::move(point), n, next = std::move(next),
          hits](std::string_view at) -> Status {
    if (!at.starts_with(point) ||
        (at.size() > point.size() && at[point.size()] != ':')) {
      return RunTestPoint(&next, at);
    }
    std::lock_guard lock(hits->mu);
    if (++hits->by_name[std::string(at)] <= n) return Status::OK();
    return Status::IOError("injected crash at " + std::string(at));
  };
}

}  // namespace ariesrh

#endif  // ARIESRH_TESTS_RESTART_UTIL_H_
