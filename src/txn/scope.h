// Scopes — the paper's mechanism for tracking which updates a transaction is
// responsible for (Section 3.4).
//
// A scope (invoker, first, last) says: "this transaction is responsible for
// every update to the object made by `invoker` whose LSN lies in
// [first, last]". Scopes let the system compute ResponsibleTr / Op_List
// without storing anything per update: an update record matches a scope iff
// its writer equals the scope's invoker, its object equals the object the
// scope is attached to, and its LSN is in range.
//
// Invariants maintained by normal processing and re-established by the
// recovery forward pass:
//   * Scopes attached to one object and held by one transaction may overlap
//     in LSN range only if their invokers differ (paper, Section 3.5 remark).
//   * A delegatee never modifies a received scope (paper, Section 4.1); only
//     the scope a transaction is currently growing with its own updates — the
//     `open` scope — may be extended. Delegation closes every transferred
//     scope, so if the object is ever delegated back, the returned scope is
//     frozen and a fresh update opens a new one. This is what keeps scope
//     coverage disjoint across Ob_Lists.

#ifndef ARIESRH_TXN_SCOPE_H_
#define ARIESRH_TXN_SCOPE_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/flat_map.h"
#include "util/inline_vector.h"
#include "util/types.h"

namespace ariesrh {

/// One contiguous range of an invoker's updates to one object.
struct Scope {
  TxnId invoker = kInvalidTxn;
  Lsn first = kInvalidLsn;
  Lsn last = kInvalidLsn;
  /// True while the invoker itself holds the scope and may extend it with
  /// further updates. Cleared when the scope is delegated away.
  bool open = false;

  bool Covers(TxnId update_txn, Lsn lsn) const {
    return update_txn == invoker && first <= lsn && lsn <= last;
  }

  bool operator==(const Scope&) const = default;
  std::string ToString() const;
};

/// Per-object entry in a transaction's Ob_List: who delegated the object in
/// (if anyone), and the scopes this transaction is responsible for.
struct ObjectEntry {
  /// A transaction's own entry holds exactly one scope; only delegation
  /// targets accumulate more, so two inline slots cover the common cases
  /// without heap traffic on the update path.
  using ScopeList = InlineVector<Scope, 2>;

  /// Most recent delegator, kInvalidTxn when the object was never delegated
  /// to this transaction (paper: Ob_List(t2)[ob].deleg <- t1).
  TxnId delegated_from = kInvalidTxn;
  ScopeList scopes;

  /// True if any update covered by these scopes is a non-commuting Set.
  /// Operation-granularity delegation must not split such coverage across
  /// two responsibility domains: Set undo restores a physical before image,
  /// which is only sound when all non-commuting updates to the object share
  /// one fate (whole-object delegation guarantees that by construction).
  bool has_set_update = false;

  /// True if the entry has an open (extendable) scope, which necessarily
  /// belongs to `txn`'s own updates.
  bool HasOpenScopeOf(TxnId txn) const;

  /// Opens a new scope or extends `txn`'s open scope to cover an update at
  /// `lsn` (paper, update step 1 "ADJUST SCOPES").
  void ExtendOrOpen(TxnId txn, Lsn lsn);

  /// Merges scopes transferred by delegation (set union). Every incoming
  /// scope is closed: the delegatee must not extend what it received.
  void MergeFrom(const ObjectEntry& other);
};

/// An Ob_List: object -> entry, iterated in ascending ObjectId order (the
/// checkpoint serializer and the cross-engine equivalence tests depend on
/// the deterministic order, exactly as they did on std::map's). Flat sorted
/// storage with four inline slots: the common transaction touches a handful
/// of objects, so scope lookups on the update path stay allocation-free and
/// cache-resident instead of chasing map nodes.
using ObList = FlatMap<ObjectId, ObjectEntry, 4>;

/// Operation-granularity delegation (paper Section 2.1: "a transaction
/// delegates a single operation with each invocation of delegate"): moves
/// the parts of `src`'s scopes covering LSNs in [first, last] into `dst`,
/// splitting scopes at the boundaries. Transferred pieces and any retained
/// fragments are closed (their interiors can no longer be extended); only a
/// retained suffix of an open scope stays open. Returns the number of scope
/// pieces transferred.
size_t TransferScopeRange(ObjectEntry* src, ObjectEntry* dst, Lsn first,
                          Lsn last);

/// The objects whose delegator entries one TransferObjects call erased.
using ErasedObjects = InlineVector<ObjectId, 8>;

/// TRANSFER RESPONSIBILITY for one delegation (paper Section 3.5, delegate
/// step 3), as normal processing and the restart forward pass both perform
/// it: each of `objects` that `from` holds moves into `to`'s entry for it,
/// which records `tor` as its delegator. With `ranges` non-empty (parallel
/// to `objects`) a valid (first, last) moves only the scopes in that LSN
/// range (TransferScopeRange); every other object moves whole (MergeFrom).
/// A delegator entry left with no scope is erased, and its object listed in
/// `erased` (optional), ascending. Both lists are sorted by object, so each
/// side takes one merge pass: O(|from| + |to| + k log k) for k objects.
/// Returns the number of scopes moved.
size_t TransferObjects(ObList* from, ObList* to, TxnId tor,
                       std::span<const ObjectId> objects,
                       std::span<const std::pair<Lsn, Lsn>> ranges,
                       ErasedObjects* erased = nullptr);

}  // namespace ariesrh

#endif  // ARIESRH_TXN_SCOPE_H_
