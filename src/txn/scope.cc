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

namespace {

// Moves the scopes of one delegated object: those in `range` when it is
// valid, else all of them. Returns the number of scopes moved.
size_t MoveScopes(ObjectEntry* src, ObjectEntry* dst, TxnId tor,
                  const std::pair<Lsn, Lsn>* range) {
  dst->delegated_from = tor;
  if (range != nullptr && range->first != kInvalidLsn) {
    return TransferScopeRange(src, dst, range->first, range->second);
  }
  const size_t moved = src->scopes.size();
  dst->MergeFrom(*src);
  src->scopes.clear();
  return moved;
}

}  // namespace

size_t TransferObjects(ObList* from, ObList* to, TxnId tor,
                       std::span<const ObjectId> objects,
                       std::span<const std::pair<Lsn, Lsn>> ranges,
                       ErasedObjects* erased) {
  ErasedObjects local;
  ErasedObjects& emptied = erased != nullptr ? *erased : local;
  emptied.clear();
  const auto range_of = [&ranges](size_t i) {
    return i < ranges.size() ? &ranges[i] : nullptr;
  };

  if (objects.size() == 1) {
    // One object, the common delegation: one lookup per side is the merge.
    const ObjectId ob = objects[0];
    const ObList::iterator src = from->find(ob);
    if (src == from->end()) return 0;
    const size_t moved =
        MoveScopes(&src->second, &(*to)[ob], tor, range_of(0));
    if (src->second.scopes.empty()) {
      from->erase(src);
      emptied.push_back(ob);
    }
    return moved;
  }

  // The objects in ascending order, each with its index into `ranges`, so
  // every step below walks both lists forward once.
  InlineVector<std::pair<ObjectId, size_t>, 8> order;
  order.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) order.push_back({objects[i], i});
  std::sort(order.begin(), order.end());

  // The delegatee side: one merge adds every entry it is missing.
  InlineVector<ObjectId, 8> held;
  held.reserve(order.size());
  ObList::iterator src = from->begin();
  for (const auto& [ob, i] : order) {
    while (src != from->end() && src->first < ob) ++src;
    if (src != from->end() && src->first == ob) held.push_back(ob);
  }
  to->InsertSorted(held.begin(), held.end());

  size_t moved = 0;
  src = from->begin();
  ObList::iterator dst = to->begin();
  for (const auto& [ob, i] : order) {
    while (src != from->end() && src->first < ob) ++src;
    if (src == from->end() || src->first != ob) continue;  // nothing to move
    if (!emptied.empty() && emptied.back() == ob) continue;  // moved already
    while (dst->first < ob) ++dst;
    moved += MoveScopes(&src->second, &dst->second, tor, range_of(i));
    if (src->second.scopes.empty()) emptied.push_back(ob);
  }

  // The delegator side: one compaction drops every emptied entry.
  from->EraseIf([&emptied](const ObList::value_type& entry) {
    return std::binary_search(emptied.begin(), emptied.end(), entry.first);
  });
  return moved;
}

}  // namespace ariesrh
