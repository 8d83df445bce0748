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
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inline_vec.h"
#include "common/line_index.h"
#include "common/types.h"

namespace ccnvm::core {

class DirtyAddressQueue {
 public:
  explicit DirtyAddressQueue(std::size_t capacity)
      : capacity_(capacity), members_(capacity) {
    ordered_.reserve(capacity);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ordered_.size(); }
  std::size_t free_entries() const { return capacity_ - ordered_.size(); }
  bool empty() const { return ordered_.empty(); }
  /// The membership table's home slot for a line (common/line_index.h);
  /// tests build colliding sets from it.
  std::size_t home_slot(Addr line_addr) const {
    return members_.home_slot(line_addr);
  }

  bool contains(Addr line_addr) const {
    return members_.find(line_addr) != LineIndex::kAbsent;
  }

  /// Tracks a line. Returns false when the queue is full (the caller must
  /// drain first); duplicate pushes return true without consuming space.
  [[nodiscard]] bool push(Addr line_addr) {
    if (contains(line_addr)) return true;
    if (ordered_.size() >= capacity_) return false;
    members_.insert(line_addr, static_cast<std::uint32_t>(ordered_.size()));
    ordered_.push_back(line_base(line_addr));
    return true;
  }

  /// True when all of `addrs` can be accommodated, counting duplicates of
  /// already-tracked lines as free. This is trigger condition (1): drain
  /// when there is not enough room for the next write-back's metadata.
  /// One write-back names a counter line plus its tree path (at most 26
  /// levels for any 4-ary layout of a 64-bit address space), so a linear
  /// scan of a fixed array dedupes them without a heap allocation.
  bool can_accept(const InlineVec<Addr, 32>& addrs) const {
    InlineVec<Addr, 32> fresh;
    for (Addr a : addrs) {
      const Addr line = line_base(a);
      if (!contains(line) &&
          std::find(fresh.begin(), fresh.end(), line) == fresh.end()) {
        fresh.push_back(line);
      }
    }
    return fresh.size() <= free_entries();
  }

  /// Drain-time iteration: entries in insertion order.
  const std::vector<Addr>& entries() const { return ordered_; }

  void clear() {
    members_.clear();
    ordered_.clear();
  }

 private:
  std::size_t capacity_;
  LineIndex members_;  // line -> position in ordered_
  std::vector<Addr> ordered_;
};

}  // namespace ccnvm::core
