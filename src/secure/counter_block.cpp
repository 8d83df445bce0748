#include "secure/counter_block.h"

#include "common/bytes.h"
#include "common/check.h"

namespace ccnvm::secure {

namespace {

// The minors form one little-endian bit stream over bytes [8,64): minor i
// occupies stream bits [7i, 7i+7). Eight minors fill exactly seven bytes,
// so the stream splits into eight 56-bit groups handled a word at a time.
constexpr std::size_t kGroupMinors = 8;
constexpr std::size_t kGroupBytes = kGroupMinors * CounterBlock::kMinorBits / 8;
static_assert(kBlocksPerPage % kGroupMinors == 0);
static_assert(8 + kBlocksPerPage / kGroupMinors * kGroupBytes == kLineSize);

}  // namespace

Line CounterBlock::pack() const {
  Line line{};
  store_le64(line, 0, major);
  for (std::size_t g = 0; g < kBlocksPerPage / kGroupMinors; ++g) {
    std::uint64_t word = 0;
    for (std::size_t m = 0; m < kGroupMinors; ++m) {
      const std::uint8_t v = minors[g * kGroupMinors + m];
      CCNVM_CHECK_MSG(v <= kMinorMax, "minor out of range");
      word |= static_cast<std::uint64_t>(v) << (kMinorBits * m);
    }
    for (std::size_t b = 0; b < kGroupBytes; ++b) {
      line[8 + g * kGroupBytes + b] =
          static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return line;
}

CounterBlock CounterBlock::unpack(const Line& line) {
  CounterBlock cb;
  cb.major = load_le64(line, 0);
  for (std::size_t g = 0; g < kBlocksPerPage / kGroupMinors; ++g) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < kGroupBytes; ++b) {
      word |= static_cast<std::uint64_t>(line[8 + g * kGroupBytes + b])
              << (8 * b);
    }
    for (std::size_t m = 0; m < kGroupMinors; ++m) {
      cb.minors[g * kGroupMinors + m] =
          static_cast<std::uint8_t>((word >> (kMinorBits * m)) & kMinorMax);
    }
  }
  return cb;
}

}  // namespace ccnvm::secure
