// HistoryOracle: an executable model of the paper's delegation semantics.
//
// Property tests drive the real engine and this oracle with the same
// operation stream; after any crash + recovery the engine's object values
// must equal the oracle's. The oracle implements Section 2.1 directly:
// every update is tracked with its responsible transaction (initially the
// invoker, retargeted by each delegation of its object), and an update's
// effects survive iff the transaction *ultimately responsible* for it
// committed. Because Set requires an exclusive lock and Add commutes,
// replaying the surviving updates in invocation order yields the correct
// final value of every object.

#ifndef ARIESRH_CORE_ORACLE_H_
#define ARIESRH_CORE_ORACLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "util/types.h"
#include "wal/log_record.h"

namespace ariesrh {

class HistoryOracle {
 public:
  /// Mirrors Database::Begin.
  void Begin(TxnId txn);

  /// Mirrors a successful Set/Add. `lsn` (optional) is the update record's
  /// LSN; passing it enables RollbackTo and DelegateRange mirroring.
  void Update(TxnId invoker, ObjectId ob, UpdateKind kind, int64_t value,
              Lsn lsn = kInvalidLsn);

  /// Mirrors a successful Delegate: responsibility for `from`'s unresolved
  /// updates to `objects` moves to `to`.
  void Delegate(TxnId from, TxnId to, const std::vector<ObjectId>& objects);

  /// Mirrors a ranged Delegate (DelegationSpec::Operations): only `from`'s
  /// unresolved updates to `ob` with LSN in [first, last] move to `to`
  /// (requires LSNs on Update).
  void DelegateRange(TxnId from, TxnId to, ObjectId ob, Lsn first, Lsn last);

  /// Mirrors RollbackTo: unresolved updates `txn` is responsible for with
  /// LSN greater than `savepoint` are obliterated (requires LSNs).
  void RollbackTo(TxnId txn, Lsn savepoint);

  /// Mirrors a successful Commit: updates currently the responsibility of
  /// `txn` survive permanently.
  void Commit(TxnId txn);

  /// Mirrors a successful Abort: updates currently the responsibility of
  /// `txn` are obliterated.
  void Abort(TxnId txn);

  /// Mirrors SimulateCrash: every still-unresolved update belonged to a
  /// loser and is obliterated.
  void Crash();

  /// The value every committed-state read of `ob` must now return.
  int64_t ExpectedValue(ObjectId ob) const;

  /// Expected values of every object ever updated.
  std::map<ObjectId, int64_t> ExpectedValues() const;

  /// The transaction currently responsible for the most recent unresolved
  /// update to `ob` by `invoker`; kInvalidTxn if none.
  TxnId ResponsibleFor(TxnId invoker, ObjectId ob) const;

 private:
  enum class Fate { kPending, kSurvives, kDead };

  struct Op {
    TxnId invoker;
    TxnId responsible;
    ObjectId object;
    UpdateKind kind;
    int64_t value;  // kSet: new value; kAdd: delta
    Lsn lsn = kInvalidLsn;
    Fate fate = Fate::kPending;
  };

  std::vector<Op> ops_;
};

}  // namespace ariesrh

#endif  // ARIESRH_CORE_ORACLE_H_
