// Unit tests for the split-counter line format.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "secure/counter_block.h"

namespace ccnvm::secure {
namespace {

TEST(CounterBlockTest, DefaultIsAllZero) {
  const CounterBlock cb;
  EXPECT_EQ(cb.pack(), zero_line());
}

TEST(CounterBlockTest, PackUnpackRoundTrip) {
  Rng rng(1);
  for (int iter = 0; iter < 100; ++iter) {
    CounterBlock cb;
    cb.major = rng.next();
    for (auto& m : cb.minors) {
      m = static_cast<std::uint8_t>(rng.below(CounterBlock::kMinorMax + 1));
    }
    EXPECT_EQ(CounterBlock::unpack(cb.pack()), cb);
  }
}

TEST(CounterBlockTest, PackMatchesBitStreamLayout) {
  // The architectural layout, one bit at a time: little-endian major in
  // bytes [0,8), then minor i at stream bits [7i, 7i+7) of bytes [8,64),
  // least significant bit first. Images written under this layout must
  // keep decoding, so the word-wise codec is held to it bit for bit.
  Rng rng(2);
  for (int iter = 0; iter < 100; ++iter) {
    CounterBlock cb;
    cb.major = rng.next();
    for (auto& m : cb.minors) {
      m = static_cast<std::uint8_t>(rng.below(CounterBlock::kMinorMax + 1));
    }
    Line want{};
    for (std::size_t i = 0; i < 8; ++i) {
      want[i] = static_cast<std::uint8_t>(cb.major >> (8 * i));
    }
    for (std::size_t bit = 0; bit < kBlocksPerPage * CounterBlock::kMinorBits;
         ++bit) {
      const std::size_t minor = bit / CounterBlock::kMinorBits;
      if ((cb.minors[minor] >> (bit % CounterBlock::kMinorBits)) & 1u) {
        want[8 + bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    EXPECT_EQ(cb.pack(), want);
    EXPECT_EQ(CounterBlock::unpack(want), cb);
  }
}

TEST(CounterBlockTest, PackIsInjectiveOnNeighbours) {
  CounterBlock a;
  CounterBlock b;
  b.minors[0] = 1;
  CounterBlock c;
  c.minors[63] = 1;
  CounterBlock d;
  d.major = 1;
  EXPECT_NE(a.pack(), b.pack());
  EXPECT_NE(a.pack(), c.pack());
  EXPECT_NE(a.pack(), d.pack());
  EXPECT_NE(b.pack(), c.pack());
}

TEST(CounterBlockTest, IncrementBumpsOnlyTargetMinor) {
  CounterBlock cb;
  EXPECT_FALSE(cb.increment(5));
  EXPECT_EQ(cb.minors[5], 1);
  for (std::size_t i = 0; i < kBlocksPerPage; ++i) {
    if (i != 5) {
      EXPECT_EQ(cb.minors[i], 0);
    }
  }
  EXPECT_EQ(cb.major, 0u);
}

TEST(CounterBlockTest, OverflowResetsPageAndBumpsMajor) {
  CounterBlock cb;
  cb.minors[3] = 77;  // another block's state survives until the overflow
  for (int i = 0; i < CounterBlock::kMinorMax; ++i) {
    EXPECT_FALSE(cb.increment(0)) << "no overflow before minor max";
  }
  EXPECT_EQ(cb.minors[0], CounterBlock::kMinorMax);
  EXPECT_TRUE(cb.increment(0)) << "128th increment overflows";
  EXPECT_EQ(cb.major, 1u);
  for (auto m : cb.minors) EXPECT_EQ(m, 0);
}

TEST(CounterBlockTest, PadCounterReflectsBlockState) {
  CounterBlock cb;
  cb.major = 9;
  cb.minors[7] = 42;
  const crypto::PadCounter pc = cb.pad_counter(7);
  EXPECT_EQ(pc.major, 9u);
  EXPECT_EQ(pc.minor, 42u);
}

// Property: the increment sequence of a single block is exactly
// (major * 128 + minor) monotonically increasing by one — the totally
// ordered "counter increased by one" the paper's recovery relies on.
TEST(CounterBlockTest, IncrementSequenceIsTotallyOrdered) {
  CounterBlock cb;
  std::uint64_t logical_prev = 0;
  for (int i = 0; i < 1000; ++i) {
    cb.increment(0);
    const auto pc = cb.pad_counter(0);
    const std::uint64_t logical =
        pc.major * (CounterBlock::kMinorMax + 1) + pc.minor;
    EXPECT_EQ(logical, logical_prev + 1);
    logical_prev = logical;
  }
}

}  // namespace
}  // namespace ccnvm::secure
