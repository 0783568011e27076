// The volatile per-transaction control block: Tr_List entry + Ob_List.

#ifndef ARIESRH_TXN_TRANSACTION_H_
#define ARIESRH_TXN_TRANSACTION_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "txn/scope.h"
#include "util/types.h"

namespace ariesrh {

enum class TxnState : uint8_t {
  kActive = 0,
  kCommitted = 1,
  kAborted = 2,
  /// Voted in a 2PC round (sharded engines): the PREPARE record is durable
  /// and the transaction's fate now belongs to the coordinator. No further
  /// work may arrive; commit comes only via FinishCommit, and a round that
  /// stops leaves the fate to restart's in-doubt resolution.
  kPrepared = 3,
};

const char* TxnStateName(TxnState state);

/// A mutex that copies/moves as a fresh, unlocked mutex, so control blocks
/// holding one stay copyable (checkpoint snapshots) and movable (table
/// insertion). Copying a latch never copies its lock state.
class TxnLatch {
 public:
  TxnLatch() = default;
  TxnLatch(const TxnLatch&) {}
  TxnLatch& operator=(const TxnLatch&) { return *this; }

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// Volatile transaction state. Lost on crash; the recovery forward pass
/// rebuilds the equivalent information from the log (and checkpoints).
///
/// Concurrency contract: calls on behalf of one transaction come from one
/// session (worker) at a time — the same contract a real engine's session
/// layer provides. `latch` protects the fields cross-transaction observers
/// touch (ob_list scope moves during delegation, checkpoint snapshots,
/// ResponsibleTxn sweeps); `state` is atomic so dependency checks and
/// schedulers can read it without the latch.
struct Transaction {
  TxnId id = kInvalidTxn;
  std::atomic<TxnState> state{TxnState::kActive};

  /// LSN of the BEGIN record.
  Lsn first_lsn = kInvalidLsn;
  /// Head of the backward chain: the most recent record written on behalf
  /// of this transaction (paper: Tr_List(t) contains the head of BC(t)).
  Lsn last_lsn = kInvalidLsn;

  /// Ob_List: objects this transaction is currently responsible for, with
  /// the scopes identifying exactly which updates (paper Section 3.4),
  /// in ascending object order (see ObList).
  ObList ob_list;

  /// True once RollbackTo has compensated part of this transaction's
  /// history. The physically-rewriting baselines cannot safely delegate
  /// to or from such a transaction (CLR undo-next pointers break when
  /// records move between chains); ARIES/RH can.
  bool did_partial_rollback = false;

  /// True once this transaction was party to a delegation. The lazy-rewrite
  /// baseline cannot partially roll back such a transaction: its recovery
  /// surgery would move records out from under the CLR undo-next chain.
  bool touched_by_delegation = false;

  /// Coordinator sequence number of the 2PC round this transaction is
  /// prepared under; 0 when not prepared. Survives into checkpoint
  /// snapshots so an in-doubt transaction stays resolvable after restart.
  uint64_t prepared_csn = 0;

  /// Set (under `latch`) the moment commit/abort processing begins — before
  /// `state` leaves kActive, which under group commit happens only after the
  /// commit record is durable. Delegation checks it so no DELEGATE record
  /// can slip into a chain behind its COMMIT record while the committer is
  /// parked waiting for the log force.
  bool terminating = false;

  /// LSN of the COMMIT record once Commit appended it (under `latch`);
  /// kInvalidLsn before. Under group commit the transaction stays kActive
  /// until that record is durable, but its fate is already in the log: a
  /// checkpoint snapshot must not seed it as active, or a restart from that
  /// checkpoint — whose analysis starts after the COMMIT — would undo it.
  Lsn commit_lsn = kInvalidLsn;

  /// Guards ob_list / last_lsn against cross-transaction observers. Lock
  /// order for two transactions (delegation): ascending TxnId.
  mutable TxnLatch latch;

  Transaction() = default;
  Transaction(const Transaction& other) { CopyFrom(other); }
  Transaction(Transaction&& other) noexcept { CopyFrom(other); }
  Transaction& operator=(const Transaction& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Transaction& operator=(Transaction&& other) noexcept {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  bool IsResponsibleFor(ObjectId ob) const { return ob_list.contains(ob); }

  std::string ToString() const;

 private:
  void CopyFrom(const Transaction& other) {
    id = other.id;
    state.store(other.state.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    first_lsn = other.first_lsn;
    last_lsn = other.last_lsn;
    ob_list = other.ob_list;
    did_partial_rollback = other.did_partial_rollback;
    touched_by_delegation = other.touched_by_delegation;
    prepared_csn = other.prepared_csn;
    terminating = other.terminating;
    commit_lsn = other.commit_lsn;
  }
};

}  // namespace ariesrh

#endif  // ARIESRH_TXN_TRANSACTION_H_
