// Randomized transactional workload driver with built-in semantics
// checking.
//
// Drives a Database with a seeded stream of begins, updates, delegations,
// commits, and aborts, mirroring every successful operation into a
// HistoryOracle (the executable model of the paper's Section 2.1). After
// any crash + recovery, Verify() compares every touched object against the
// oracle. The property tests, the crash-torture example, and the benchmarks
// all share this driver instead of hand-rolling three slightly different
// ones.

#ifndef ARIESRH_WORKLOAD_WORKLOAD_H_
#define ARIESRH_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "core/oracle.h"
#include "util/random.h"

namespace ariesrh::workload {

/// Knobs for the operation mix. Weights are relative (they need not sum to
/// anything); an operation that cannot apply (e.g. delegate with fewer than
/// two live transactions) falls through to an update.
struct WorkloadOptions {
  uint64_t seed = 42;
  ObjectId objects = 32;          ///< object id space [0, objects)
  bool skewed_access = false;     ///< hot-key skew instead of uniform

  uint32_t begin_weight = 20;
  uint32_t update_weight = 40;
  uint32_t delegate_weight = 15;
  uint32_t commit_weight = 15;
  uint32_t abort_weight = 5;
  uint32_t savepoint_weight = 0;  ///< savepoint + later partial rollback

  /// Fraction (percent) of updates that are exclusive Sets rather than
  /// commuting Adds. Sets conflict more (Busy results are skipped).
  uint32_t set_pct = 30;

  /// When > 0, a checkpoint is taken roughly every this many steps.
  uint32_t checkpoint_every = 0;

  /// Cap on concurrently active transactions.
  size_t max_active = 12;
};

/// Not thread-safe. One driver per database.
class WorkloadDriver {
 public:
  WorkloadDriver(Database* db, WorkloadOptions options);

  /// Executes one randomized operation (possibly a no-op when the dice ask
  /// for something inapplicable). Returns non-OK only on engine errors that
  /// indicate a bug (lock Busy and precondition failures are expected and
  /// absorbed).
  Status Step();

  /// Runs `n` steps.
  Status Run(int n);

  /// Crashes the database, recovers it, and verifies every object the
  /// workload ever touched against the oracle. On mismatch returns
  /// IllegalState naming the object; the caller reports the seed.
  Status CrashRecoverVerify();

  /// Crashes the database and mirrors the crash into the oracle WITHOUT
  /// recovering — for tests that want to interfere with recovery (a crash
  /// point installed with Database::set_test_hook, media failure) before
  /// calling Verify() themselves.
  void CrashOnly();

  /// Verifies committed state against the oracle without crashing (only
  /// meaningful when no transactions are active).
  Status Verify();

  const HistoryOracle& oracle() const { return oracle_; }
  uint64_t updates() const { return updates_; }
  uint64_t delegations() const { return delegations_; }
  uint64_t commits() const { return commits_; }
  uint64_t aborts() const { return aborts_; }
  uint64_t rollbacks() const { return rollbacks_; }
  size_t active_count() const { return active_.size(); }

 private:
  struct ActiveTxn {
    TxnId id = kInvalidTxn;
    Lsn savepoint = kInvalidLsn;  ///< pending savepoint, if any
    // Oracle bookkeeping for partial rollback: operations the engine will
    // undo must be withdrawn from the oracle too, so savepoints are only
    // used when the oracle can mirror them (see StepSavepoint).
  };

  Status StepBegin();
  Status StepUpdate();
  Status StepDelegate();
  Status StepResolve(bool commit);
  Status StepSavepoint();

  ObjectId PickObject();
  size_t PickActiveIndex();

  Database* db_;
  WorkloadOptions options_;
  Random rng_;
  HistoryOracle oracle_;
  std::vector<ActiveTxn> active_;
  uint64_t steps_ = 0;
  uint64_t updates_ = 0;
  uint64_t delegations_ = 0;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
  uint64_t rollbacks_ = 0;
};

}  // namespace ariesrh::workload

#endif  // ARIESRH_WORKLOAD_WORKLOAD_H_
