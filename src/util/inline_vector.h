// A small-buffer-optimized vector.
//
// Ob_List entries almost always hold exactly one scope (a transaction's own
// open scope); only delegation targets accumulate more. Storing the first
// few scopes inline removes a heap allocation from every update's ADJUST
// SCOPES step — the difference between "no delegation, no overhead" being a
// slogan and a measurement (experiment E1).

#ifndef ARIESRH_UTIL_INLINE_VECTOR_H_
#define ARIESRH_UTIL_INLINE_VECTOR_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <vector>

namespace ariesrh {

/// Vector with N inline slots, spilling to the heap beyond that. T must be
/// trivially relocatable in practice (we use it for small aggregates).
template <typename T, size_t N>
class InlineVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  InlineVector(const InlineVector& other) { *this = other; }
  InlineVector& operator=(const InlineVector& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size());
    for (const T& v : other) push_back(v);
    return *this;
  }
  InlineVector(InlineVector&& other) noexcept { *this = std::move(other); }
  InlineVector& operator=(InlineVector&& other) noexcept {
    if (this == &other) return *this;
    if (other.spilled()) {
      heap_ = std::move(other.heap_);
      size_ = 0;
      spilled_ = true;
      other.size_ = 0;
      other.spilled_ = false;
    } else {
      clear();
      for (T& v : other) push_back(std::move(v));
      other.clear();
    }
    return *this;
  }

  size_t size() const { return spilled() ? heap_.size() : size_; }
  bool empty() const { return size() == 0; }

  T* data() { return spilled() ? heap_.data() : inline_.data(); }
  const T* data() const { return spilled() ? heap_.data() : inline_.data(); }

  iterator begin() { return data(); }
  iterator end() { return data() + size(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

  T& operator[](size_t i) {
    assert(i < size());
    return data()[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size());
    return data()[i];
  }
  T& back() { return data()[size() - 1]; }
  const T& back() const { return data()[size() - 1]; }

  void push_back(const T& value) {
    if (!spilled() && size_ < N) {
      inline_[size_++] = value;
      return;
    }
    Spill();
    heap_.push_back(value);
  }
  void push_back(T&& value) {
    if (!spilled() && size_ < N) {
      inline_[size_++] = std::move(value);
      return;
    }
    Spill();
    heap_.push_back(std::move(value));
  }

  void reserve(size_t n) {
    if (n > N) {
      Spill();
      heap_.reserve(n);
    }
  }

  /// Inserts before `pos`, shifting the suffix right. Returns an iterator
  /// to the inserted element (push_back may have moved the storage, so the
  /// caller's `pos` is invalid afterwards).
  iterator insert(iterator pos, T value) {
    assert(pos >= begin() && pos <= end());
    const size_t idx = static_cast<size_t>(pos - begin());
    push_back(T{});
    iterator it = begin() + idx;
    std::move_backward(it, end() - 1, end());
    *it = std::move(value);
    return it;
  }

  iterator erase(iterator pos) {
    assert(pos >= begin() && pos < end());
    std::move(pos + 1, end(), pos);
    if (spilled()) {
      heap_.pop_back();
    } else {
      --size_;
    }
    return pos;
  }

  /// Removes every element matching the predicate; returns removed count.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    iterator keep = std::remove_if(begin(), end(), pred);
    const size_t removed = static_cast<size_t>(end() - keep);
    for (size_t i = 0; i < removed; ++i) {
      if (spilled()) {
        heap_.pop_back();
      } else {
        --size_;
      }
    }
    return removed;
  }

  void clear() {
    heap_.clear();
    size_ = 0;
    spilled_ = false;
  }

  bool operator==(const InlineVector& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }
  /// Convenience comparison against a plain vector (tests).
  friend bool operator==(const InlineVector& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // Spilled-ness is an explicit flag, NOT inferred from heap_.empty(): an
  // erase loop that drains a spilled vector to empty must keep begin()/end()
  // pointing at the heap buffer, or the caller's live iterator silently
  // stops matching end() and walks off into freed memory.
  bool spilled() const { return spilled_; }

  void Spill() {
    if (spilled()) return;
    heap_.reserve(std::max<size_t>(2 * N, 8));
    for (size_t i = 0; i < size_; ++i) {
      heap_.push_back(std::move(inline_[i]));
    }
    size_ = 0;
    spilled_ = true;
  }

  std::array<T, N> inline_{};
  size_t size_ = 0;  // inline element count; unused once spilled
  bool spilled_ = false;
  std::vector<T> heap_;
};

}  // namespace ariesrh

#endif  // ARIESRH_UTIL_INLINE_VECTOR_H_
