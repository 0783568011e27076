// Flat associative containers for the commit hot path.
//
// The per-commit bookkeeping structures — a transaction's Ob_List, the lock
// manager's holder lists and held-object index — are small (a handful of
// entries) but touched on every update and every commit. Node-based maps pay
// an allocation plus pointer chasing per entry; these two containers keep
// the entries contiguous instead:
//
//   * FlatMap<K, V, N>: a sorted vector of (key, value) pairs over
//     InlineVector storage, looked up by binary search. Iteration order is
//     ascending by key — deterministic, exactly like std::map — which the
//     checkpoint serializer and the cross-engine equivalence tests rely on.
//   * OpenHashMap<K, V>: an open-addressed, linear-probing hash table for
//     integer-ish keys (ObjectId, TxnId). No per-entry allocation, no
//     ordering guarantee, no tombstones; used where iteration order does
//     not matter.

#ifndef ARIESRH_UTIL_FLAT_MAP_H_
#define ARIESRH_UTIL_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/inline_vector.h"

namespace ariesrh {

/// A sorted flat map with N inline slots. The API mirrors the std::map
/// subset the engine uses; element type is std::pair<K, V> (the key is
/// mutable in the pair but callers must never modify it). Lookups are
/// O(log n), inserts O(n) — for the small n of an Ob_List that beats a
/// node-based map by avoiding allocation and pointer chasing entirely.
template <typename K, typename V, size_t N>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  FlatMap() = default;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  iterator find(const K& key) {
    iterator it = LowerBound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  const_iterator find(const K& key) const {
    const_iterator it = LowerBound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  bool contains(const K& key) const { return find(key) != end(); }

  const V& at(const K& key) const {
    const_iterator it = find(key);
    assert(it != end());
    return it->second;
  }

  V& operator[](const K& key) {
    iterator it = LowerBound(key);
    if (it != end() && it->first == key) return it->second;
    return entries_.insert(it, value_type(key, V()))->second;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    iterator it = LowerBound(key);
    if (it != end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type(key, V(std::forward<Args>(args)...)));
    return {it, true};
  }

  std::pair<iterator, bool> emplace(const K& key, V value) {
    iterator it = LowerBound(key);
    if (it != end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type(key, std::move(value)));
    return {it, true};
  }

  iterator erase(iterator pos) { return entries_.erase(pos); }
  size_t erase(const K& key) {
    iterator it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

  bool operator==(const FlatMap& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  iterator LowerBound(const K& key) {
    return std::lower_bound(
        begin(), end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  const_iterator LowerBound(const K& key) const {
    return std::lower_bound(
        begin(), end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  InlineVector<value_type, N> entries_;
};

/// An open-addressed hash map with linear probing, for integer-ish keys.
/// Erase shifts the rest of the probe run back instead of leaving a
/// tombstone, so a table whose keys come and go (transaction ids) stays
/// sized by its live entries. Erasing during ForEach is not supported;
/// references from Find/operator[] are invalidated by any insertion (possible
/// rehash) or erasure (backward shift). Key 0 is a valid key (occupancy is
/// tracked out-of-band, not sentinel).
template <typename K, typename V>
class OpenHashMap {
 public:
  OpenHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (a power of two, at most four per live entry once the
  /// table has grown).
  size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  V* Find(const K& key) {
    if (slots_.empty()) return nullptr;
    for (size_t i = IndexOf(key);; i = Next(i)) {
      Slot& slot = slots_[i];
      if (!slot.full) return nullptr;
      if (slot.entry.first == key) return &slot.entry.second;
    }
  }
  const V* Find(const K& key) const {
    return const_cast<OpenHashMap*>(this)->Find(key);
  }
  bool contains(const K& key) const { return Find(key) != nullptr; }

  V& operator[](const K& key) {
    MaybeGrow();
    for (size_t i = IndexOf(key);; i = Next(i)) {
      Slot& slot = slots_[i];
      if (!slot.full) {
        slot.full = true;
        slot.entry.first = key;
        slot.entry.second = V();
        ++size_;
        return slot.entry.second;
      }
      if (slot.entry.first == key) return slot.entry.second;
    }
  }

  bool Erase(const K& key) {
    if (slots_.empty()) return false;
    size_t hole = IndexOf(key);
    for (;; hole = Next(hole)) {
      if (!slots_[hole].full) return false;
      if (slots_[hole].entry.first == key) break;
    }
    // Backward shift: a later entry of the run moves into the hole when the
    // hole lies on its probe path (between its home slot and where it
    // sits), so every remaining key stays reachable from its home.
    const size_t mask = slots_.size() - 1;
    for (size_t i = Next(hole); slots_[i].full; i = Next(i)) {
      const size_t home = IndexOf(slots_[i].entry.first);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole].entry = std::move(slots_[i].entry);
        hole = i;
      }
    }
    slots_[hole].full = false;
    slots_[hole].entry.second = V();  // drop the payload now
    --size_;
    return true;
  }

  /// Visits every live entry as fn(const K&, V&). Do not insert or erase
  /// from within.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (Slot& slot : slots_) {
      if (slot.full) fn(slot.entry.first, slot.entry.second);
    }
  }

 private:
  struct Slot {
    std::pair<K, V> entry{};
    bool full = false;
  };

  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  size_t IndexOf(const K& key) const {
    // Fibonacci-style mixing: ids are often sequential, and a power-of-two
    // table without mixing would probe-cluster them.
    uint64_t h = static_cast<uint64_t>(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h) & (slots_.size() - 1);
  }

  void MaybeGrow() {
    // Double at 50% occupancy so probe runs stay short.
    if (slots_.empty()) {
      slots_.resize(16);
      return;
    }
    if (size_ * 2 < slots_.size()) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.full) (*this)[slot.entry.first] = std::move(slot.entry.second);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;  ///< live entries
};

}  // namespace ariesrh

#endif  // ARIESRH_UTIL_FLAT_MAP_H_
