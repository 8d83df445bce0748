// Fixed-capacity vector with inline storage.
//
// The write-back path builds short, bounded lists on every call — a
// block's tree path (at most 26 levels for any 4-ary layout of a 64-bit
// address space) and the metadata lines it touches. InlineVec holds them
// on the stack, so building one never allocates; pushing past the
// capacity is a broken invariant and trips a CCNVM_CHECK.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>

#include "common/check.h"

namespace ccnvm {

template <typename T, std::size_t N>
class InlineVec {
 public:
  InlineVec() = default;
  InlineVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(const T& v) {
    CCNVM_CHECK_MSG(size_ < N, "InlineVec capacity exceeded");
    items_[size_++] = v;
  }

  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  T& back() { return items_[size_ - 1]; }
  const T& back() const { return items_[size_ - 1]; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace ccnvm
