// Sparse per-line storage in 4 KB pages (docs/BACKENDS.md, MapBackend).
//
// PagedSlots<T> keeps one T per 64-byte line: pages of 64 slots and a
// presence mask, allocated on the first store into any of their lines
// through a two-level directory indexed by addr / kPageSize. The top
// level holds one entry per 2 MB and grows only to the highest address
// stored. A lookup is two indexed loads and a mask test, and iteration
// is in ascending address order. It backs MapBackend's lines and ECC
// side band and NvmImage's per-line wear counters.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ccnvm::nvm {

template <typename T>
class PagedSlots {
 public:
  PagedSlots() = default;
  PagedSlots(PagedSlots&&) noexcept = default;
  PagedSlots& operator=(PagedSlots&&) noexcept = default;

  /// Deep copy; allocates only the pages `other` has slots in.
  PagedSlots(const PagedSlots& other) {
    other.for_each([this](Addr addr, const T& value) { at(addr) = value; });
  }
  PagedSlots& operator=(const PagedSlots& other) {
    if (this != &other) *this = PagedSlots(other);
    return *this;
  }

  /// The slot of `addr`'s line, or nullptr if it was never stored.
  const T* find(Addr addr) const {
    const std::uint64_t page = addr / kPageSize;
    const std::uint64_t top = page / kLeafPages;
    if (top >= dir_.size() || !dir_[top]) return nullptr;
    const Page* p = (*dir_[top])[page % kLeafPages].get();
    const std::size_t s = block_in_page(addr);
    return p != nullptr && (p->present >> s & 1) != 0 ? &p->slot[s] : nullptr;
  }

  /// The slot of `addr`'s line, made present (zero) on first use.
  T& at(Addr addr) {
    const std::uint64_t page = addr / kPageSize;
    const std::uint64_t top = page / kLeafPages;
    CCNVM_CHECK_MSG(top < kMaxTop, "line address beyond the paged range");
    if (top >= dir_.size()) dir_.resize(top + 1);
    if (!dir_[top]) dir_[top] = std::make_unique<Leaf>();
    std::unique_ptr<Page>& p = (*dir_[top])[page % kLeafPages];
    if (!p) p = std::make_unique<Page>();
    const std::size_t s = block_in_page(addr);
    if ((p->present >> s & 1) == 0) {
      p->present |= 1ull << s;
      ++size_;
    }
    return p->slot[s];
  }

  /// Number of present slots.
  std::size_t size() const { return size_; }

  /// Visits every present slot as (line address, value), ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t t = 0; t < dir_.size(); ++t) {
      for (std::size_t i = 0; dir_[t] && i < kLeafPages; ++i) {
        const Page* p = (*dir_[t])[i].get();
        const Addr base = (t * kLeafPages + i) * kPageSize;
        for (std::uint64_t m = p ? p->present : 0; m != 0; m &= m - 1) {
          const auto s = static_cast<std::size_t>(std::countr_zero(m));
          fn(base + s * kLineSize, p->slot[s]);
        }
      }
    }
  }

  void clear() {
    dir_.clear();
    size_ = 0;
  }

 private:
  static_assert(kBlocksPerPage == 64, "one presence bit per line of a page");
  static constexpr std::size_t kLeafPages = 512;  // 2 MB per leaf
  // A 2^40-byte line address space: a top level of at most 4 MB.
  static constexpr std::uint64_t kMaxTop =
      (1ull << 40) / (kLeafPages * kPageSize);

  struct Page {
    std::uint64_t present = 0;
    std::array<T, kBlocksPerPage> slot{};
  };
  using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

  std::vector<std::unique_ptr<Leaf>> dir_;
  std::size_t size_ = 0;
};

}  // namespace ccnvm::nvm
