// Dirty Address Queue (DAQ) — the Drainer's tracking structure (§4.2 Ã).
//
// A small CAM of metadata line addresses dirtied in the current epoch.
// Addresses are unique (re-dirtying an already-tracked line is free), and
// with deferred spreading the queue also *reserves* entries for tree nodes
// that are not dirty yet but will be recomputed at drain time, so that the
// drain can never overflow the WPQ. The paper sizes it to the WPQ (64
// entries) and charges 32 cycles per lookup.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ccnvm::core {

class DirtyAddressQueue {
 public:
  explicit DirtyAddressQueue(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ordered_.size(); }
  std::size_t free_entries() const { return capacity_ - ordered_.size(); }
  bool empty() const { return ordered_.empty(); }

  bool contains(Addr line_addr) const {
    return members_.contains(line_base(line_addr));
  }

  /// Tracks a line. Returns false when the queue is full (the caller must
  /// drain first); duplicate pushes return true without consuming space.
  [[nodiscard]] bool push(Addr line_addr) {
    const Addr line = line_base(line_addr);
    if (members_.contains(line)) return true;
    if (ordered_.size() >= capacity_) return false;
    members_.insert(line);
    ordered_.push_back(line);
    return true;
  }

  /// True when all of `addrs` can be accommodated, counting duplicates of
  /// already-tracked lines as free. This is trigger condition (1): drain
  /// when there is not enough room for the next write-back's metadata.
  /// One write-back names a counter line plus its tree path (at most 26
  /// levels for any 4-ary layout of a 64-bit address space), so a linear
  /// scan of a fixed array dedupes them without a heap allocation.
  bool can_accept(const std::vector<Addr>& addrs) const {
    std::array<Addr, 32> fresh;
    CCNVM_CHECK(addrs.size() <= fresh.size());
    std::size_t needed = 0;
    for (Addr a : addrs) {
      const Addr line = line_base(a);
      const auto end = fresh.begin() + static_cast<std::ptrdiff_t>(needed);
      if (!members_.contains(line) &&
          std::find(fresh.begin(), end, line) == end) {
        fresh[needed++] = line;
      }
    }
    return needed <= free_entries();
  }

  /// Drain-time iteration: entries in insertion order.
  const std::vector<Addr>& entries() const { return ordered_; }

  void clear() {
    members_.clear();
    ordered_.clear();
  }

 private:
  std::size_t capacity_;
  std::unordered_set<Addr> members_;
  std::vector<Addr> ordered_;
};

}  // namespace ccnvm::core
