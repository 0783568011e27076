// The blocking restart tests use: Database::StartRecovery() followed by
// Await() on its handle, returning the merged Outcome (or the first error).

#ifndef ARIESRH_TESTS_RESTART_UTIL_H_
#define ARIESRH_TESTS_RESTART_UTIL_H_

#include <memory>

#include "core/database.h"

namespace ariesrh {

inline Result<RecoveryManager::Outcome> RestartAndAwait(Database& db) {
  ARIESRH_ASSIGN_OR_RETURN(std::shared_ptr<RecoveryHandle> handle,
                           db.StartRecovery());
  return handle->Await();
}

}  // namespace ariesrh

#endif  // ARIESRH_TESTS_RESTART_UTIL_H_
