// Named test points: the one way a test interrupts or observes the engine
// inside a cross-shard protocol, a checkpoint or a restart
// (Database::set_test_hook lists the points).

#ifndef ARIESRH_UTIL_TEST_HOOK_H_
#define ARIESRH_UTIL_TEST_HOOK_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ariesrh {

/// Called with the point's name at each named point; an error stops the
/// operation there, modelling a crash at that point. Restart fires points
/// on redo workers and background threads, so a hook must be thread-safe.
using TestHook = std::function<Status(std::string_view point)>;

/// Runs `hook` at `point`; OK when no hook is installed (null or empty).
inline Status RunTestPoint(const TestHook* hook, std::string_view point) {
  if (hook == nullptr || !*hook) return Status::OK();
  return (*hook)(point);
}

/// Runs `hook` at "<point>:<index>". The name is formatted only when a hook
/// is installed, so an engine without one pays a branch, not an allocation.
inline Status RunTestPoint(const TestHook* hook, std::string_view point,
                           size_t index) {
  if (hook == nullptr || !*hook) return Status::OK();
  return (*hook)(std::string(point) + ":" + std::to_string(index));
}

}  // namespace ariesrh

#endif  // ARIESRH_UTIL_TEST_HOOK_H_
