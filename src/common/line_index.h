// Fixed-size open-addressed index from a line address to a 32-bit value.
//
// The write-back path asks "is this line already queued, and where?" on
// every metadata line it touches: the Drainer's DAQ for membership, the
// WPQ for coalescing and read-own-write. Both hold a bounded number of
// lines that all leave together, so one flat table sized at construction
// serves them: linear probing from a multiplicative hash of the line
// number, a load factor of at most one half (a probe always meets an empty
// slot), and a clear() that empties only the slots it filled.
//
// The hash matters. The layout's regions start at power-of-two line
// numbers, so the low bits alone would send counter line i and tree line
// i of level 1 to one home slot, and a drain's counters and nodes would
// pile into one probe run as long as the drain.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ccnvm {

class LineIndex {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Room for `max_lines` entries in a power of two of at least twice as
  /// many slots.
  explicit LineIndex(std::size_t max_lines)
      : max_lines_(max_lines),
        keys_(std::bit_ceil(2 * std::max<std::size_t>(max_lines, 1)),
              kEmptyKey),
        values_(keys_.size(), kAbsent),
        mask_(keys_.size() - 1),
        shift_(64 - std::countr_zero(keys_.size())) {
    filled_.reserve(max_lines);
  }

  /// Where the probe for the line holding `addr` starts (Fibonacci
  /// hashing: the top bits of the line number times 2^64 / phi). Tests
  /// build colliding sets from it.
  std::size_t home_slot(Addr addr) const {
    return static_cast<std::size_t>(((addr / kLineSize) * kGolden) >> shift_);
  }

  /// The value stored for the line holding `addr`, or kAbsent.
  std::uint32_t find(Addr addr) const {
    const Addr line = line_base(addr);
    const std::size_t i = probe(line);
    return keys_[i] == line ? values_[i] : kAbsent;
  }

  /// Stores `value` for the line holding `addr`, which must be absent.
  void insert(Addr addr, std::uint32_t value) {
    CCNVM_CHECK_MSG(filled_.size() < max_lines_, "LineIndex full");
    const Addr line = line_base(addr);
    const std::size_t i = probe(line);
    CCNVM_CHECK_MSG(keys_[i] == kEmptyKey, "LineIndex key already present");
    keys_[i] = line;
    values_[i] = value;
    filled_.push_back(i);
  }

  /// Removes every entry in O(entries), not O(slots).
  void clear() {
    for (std::size_t i : filled_) keys_[i] = kEmptyKey;
    filled_.clear();
  }

 private:
  /// Never a line base (its low six bits are set), so never a key.
  static constexpr Addr kEmptyKey = ~Addr{0};
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

  /// The slot holding `line`, or the empty slot where it would go.
  std::size_t probe(Addr line) const {
    std::size_t i = home_slot(line);
    while (keys_[i] != line && keys_[i] != kEmptyKey) i = (i + 1) & mask_;
    return i;
  }

  std::size_t max_lines_;
  std::vector<Addr> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t mask_;
  int shift_;  // 64 - log2(slots)
  std::vector<std::size_t> filled_;  // slots in use, for clear()
};

}  // namespace ccnvm
