// DelegationSpec: one value type describing *what* a delegation transfers —
// all objects, an explicit object list, or a per-object operation range —
// for the single Database::Delegate(from, to, spec) call. The facade
// resolves all-objects to each shard's object list; TxnManager's
// CheckDelegation and ApplyDelegation take the other two forms.

#ifndef ARIESRH_TXN_DELEGATION_SPEC_H_
#define ARIESRH_TXN_DELEGATION_SPEC_H_

#include <string>
#include <vector>

#include "util/types.h"

namespace ariesrh {

/// What delegate(from, to, ...) covers. Build with one of the factories;
/// default-constructed means "all objects" (the most common call).
struct DelegationSpec {
  enum class Granularity {
    /// Every object in the delegator's Ob_List (join / nested-commit
    /// inheritance). `objects`, `object`, `first`, `last` are unused.
    kAllObjects,
    /// The listed objects, each transferred whole. `objects` is used.
    kObjectList,
    /// Operation granularity (paper Section 2.1): only `object`'s updates
    /// with LSNs in [first, last]. kRH mode only.
    kOperationRange,
  };

  Granularity granularity = Granularity::kAllObjects;

  /// kObjectList: the objects to transfer.
  std::vector<ObjectId> objects;

  /// kOperationRange: the object and the closed LSN range to transfer.
  ObjectId object = kInvalidObject;
  Lsn first = kInvalidLsn;
  Lsn last = kInvalidLsn;

  static DelegationSpec All() { return DelegationSpec{}; }

  static DelegationSpec Objects(std::vector<ObjectId> objects) {
    DelegationSpec spec;
    spec.granularity = Granularity::kObjectList;
    spec.objects = std::move(objects);
    return spec;
  }

  static DelegationSpec Operations(ObjectId object, Lsn first, Lsn last) {
    DelegationSpec spec;
    spec.granularity = Granularity::kOperationRange;
    spec.object = object;
    spec.first = first;
    spec.last = last;
    return spec;
  }

  /// Human-readable rendering for diagnostics/logging.
  std::string ToString() const;
};

}  // namespace ariesrh

#endif  // ARIESRH_TXN_DELEGATION_SPEC_H_
