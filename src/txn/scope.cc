#include "txn/scope.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ariesrh {

std::string Scope::ToString() const {
  std::ostringstream os;
  os << "(t" << invoker << ", " << first << ", " << last
     << (open ? ", open)" : ")");
  return os.str();
}

bool ObjectEntry::HasOpenScopeOf(TxnId txn) const {
  for (const Scope& scope : scopes) {
    if (scope.open && scope.invoker == txn) return true;
  }
  return false;
}

void ObjectEntry::ExtendOrOpen(TxnId txn, Lsn lsn) {
  for (Scope& scope : scopes) {
    if (scope.open && scope.invoker == txn) {
      assert(lsn > scope.last && "scope extension must move forward");
      scope.last = lsn;
      return;
    }
  }
  scopes.push_back(Scope{txn, lsn, lsn, /*open=*/true});
}

void ObjectEntry::MergeFrom(const ObjectEntry& other) {
  for (Scope scope : other.scopes) {
    scope.open = false;
    scopes.push_back(scope);
  }
  has_set_update = has_set_update || other.has_set_update;
}

size_t TransferScopeRange(ObjectEntry* src, ObjectEntry* dst, Lsn first,
                          Lsn last) {
  ObjectEntry::ScopeList kept;
  size_t transferred = 0;
  for (const Scope& scope : src->scopes) {
    if (scope.last < first || scope.first > last) {
      kept.push_back(scope);  // disjoint: untouched
      continue;
    }
    // Prefix retained by the delegator (closed: its end is now interior).
    if (scope.first < first) {
      kept.push_back(Scope{scope.invoker, scope.first, first - 1, false});
    }
    // Middle transferred to the delegatee (closed, as always on receipt).
    dst->scopes.push_back(Scope{scope.invoker, std::max(scope.first, first),
                                std::min(scope.last, last), false});
    ++transferred;
    // Suffix retained by the delegator; it stays open only if the original
    // scope was open (it still ends at the scope's growing edge).
    if (scope.last > last) {
      kept.push_back(Scope{scope.invoker, last + 1, scope.last, scope.open});
    }
  }
  src->scopes = std::move(kept);
  // Conservative: the flag follows both sides of a split.
  dst->has_set_update = dst->has_set_update || src->has_set_update;
  return transferred;
}

size_t TransferObjects(ObList* from, ObList* to, TxnId tor,
                       std::span<const ObjectId> objects,
                       std::span<const std::pair<Lsn, Lsn>> ranges,
                       ErasedObjects* erased) {
  if (erased != nullptr) erased->clear();
  size_t moved = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    const ObList::iterator src = from->find(objects[i]);
    if (src == from->end()) continue;  // not held, or emptied already
    ObjectEntry& dst = (*to)[objects[i]];
    dst.delegated_from = tor;
    if (i < ranges.size() && ranges[i].first != kInvalidLsn) {
      moved += TransferScopeRange(&src->second, &dst, ranges[i].first,
                                  ranges[i].second);
      if (!src->second.scopes.empty()) continue;
    } else {
      moved += src->second.scopes.size();
      dst.MergeFrom(src->second);
    }
    from->erase(src);
    if (erased != nullptr) erased->push_back(objects[i]);
  }
  return moved;
}

}  // namespace ariesrh
