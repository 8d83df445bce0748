// Wear accounting: per-line counts, region classification, and the
// design-level hotspot property the lifetime bench reports.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/design.h"
#include "nvm/wear.h"

namespace ccnvm::nvm {
namespace {

TEST(WearTest, CountsPerLine) {
  NvmImage image;
  image.write_line(0x0, zero_line());
  image.write_line(0x0, zero_line());
  image.write_line(0x40, zero_line());
  EXPECT_EQ(image.wear_of(0x0), 2u);
  EXPECT_EQ(image.wear_of(0x40), 1u);
  EXPECT_EQ(image.wear_of(0x80), 0u);
}

TEST(WearTest, TracksEvenWithoutContentRecording) {
  NvmImage image;
  image.set_record_contents(false);
  image.write_line(0x0, zero_line());
  image.write_line(0x0, zero_line());
  EXPECT_EQ(image.wear_of(0x0), 2u);
  EXPECT_EQ(image.populated_lines(), 0u) << "contents must stay unrecorded";
}

TEST(WearTest, SubLineAddressQueries) {
  NvmImage image;
  image.write_line(0x100, zero_line());
  EXPECT_EQ(image.wear_of(0x13f), 1u);
}

TEST(WearTest, ResetClearsCounts) {
  NvmImage image;
  image.write_line(0x0, zero_line());
  image.reset_wear();
  EXPECT_EQ(image.wear_of(0x0), 0u);
}

TEST(WearTest, SummaryClassifiesRegions) {
  const NvmLayout layout(16 * kPageSize);
  NvmImage image;
  image.write_line(0x0, zero_line());                            // data
  image.write_line(layout.counter_line_addr(0), zero_line());    // counter
  image.write_line(layout.counter_line_addr(0), zero_line());
  image.write_line(layout.node_addr({1, 0}), zero_line());       // MT
  image.write_line(layout.dh_line_addr(0), zero_line());         // DH

  const WearSummary s = summarize_wear(image, layout);
  EXPECT_EQ(s.total_writes, 5u);
  EXPECT_EQ(s.lines_touched, 4u);
  EXPECT_EQ(s.max_line_writes, 2u);
  EXPECT_EQ(s.hottest_line, layout.counter_line_addr(0));
  EXPECT_EQ(s.data_writes, 1u);
  EXPECT_EQ(s.counter_writes, 2u);
  EXPECT_EQ(s.mt_writes, 1u);
  EXPECT_EQ(s.dh_writes, 1u);
  EXPECT_DOUBLE_EQ(s.mean_writes_per_touched_line(), 1.25);
  EXPECT_DOUBLE_EQ(s.imbalance(), 2.0 / 1.25);
}

TEST(WearTest, HottestLineTieGoesToTheLowestAddress) {
  // Equal counts in two regions: the DH line is written first and the
  // counter line sits below it, so the lower address must win however
  // the counters are visited.
  const NvmLayout layout(16 * kPageSize);
  NvmImage image;
  const Addr dh = layout.dh_line_addr(0);
  const Addr ctr = layout.counter_line_addr(5 * kPageSize);
  ASSERT_LT(ctr, dh);
  for (int i = 0; i < 3; ++i) image.write_line(dh, zero_line());
  for (int i = 0; i < 3; ++i) image.write_line(ctr, zero_line());
  image.write_line(0x0, zero_line());

  const WearSummary s = summarize_wear(image, layout);
  EXPECT_EQ(s.max_line_writes, 3u);
  EXPECT_EQ(s.hottest_line, ctr);
  EXPECT_TRUE(layout.is_counter_addr(s.hottest_line));
  EXPECT_EQ(s.max_dh, 3u);
  EXPECT_EQ(s.max_counter, 3u);
}

TEST(WearTest, WornLinesVisitAscending) {
  NvmImage image;
  for (const Addr a : {Addr{3ull << 21}, Addr{0x1000}, Addr{0x40}}) {
    image.write_line(a, zero_line());
  }
  std::vector<Addr> seen;
  image.for_each_worn_line([&](Addr a, std::uint64_t) { seen.push_back(a); });
  EXPECT_EQ(seen, (std::vector<Addr>{0x40, 0x1000, 3ull << 21}));
}

TEST(WearTest, EmptyImageSummary) {
  const NvmLayout layout(16 * kPageSize);
  const WearSummary s = summarize_wear(NvmImage{}, layout);
  EXPECT_EQ(s.total_writes, 0u);
  EXPECT_DOUBLE_EQ(s.imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(s.lifetime_repetitions(), 0.0);
}

TEST(WearTest, StrictConsistencyHasTreeHotspot) {
  // The lifetime bench's core claim as an invariant: SC's hottest line is
  // a Merkle node written once per write-back; cc-NVM's hotspot is far
  // cooler (coalesced per epoch).
  Line l{};
  std::uint64_t hot_sc = 0, hot_cc = 0;
  core::DesignConfig cfg;
  cfg.data_capacity = 64 * kPageSize;
  {
    auto sc = core::make_design(core::DesignKind::kStrict, cfg);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
      sc->write_back(rng.below(4096) * kLineSize, l);
    }
    const WearSummary s = summarize_wear(sc->image(), sc->layout());
    EXPECT_TRUE(sc->layout().is_mt_addr(s.hottest_line));
    // Top internal level has 4 nodes at this capacity; uniform random
    // write-backs split the per-WB branch flushes ~evenly among them.
    EXPECT_GE(s.max_line_writes, 2000u / 4)
        << "a top-level node is rewritten on every WB under its subtree";
    hot_sc = s.max_line_writes;
  }
  {
    auto cc = core::make_design(core::DesignKind::kCcNvm, cfg);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
      cc->write_back(rng.below(4096) * kLineSize, l);
    }
    const WearSummary s = summarize_wear(cc->image(), cc->layout());
    hot_cc = s.max_line_writes;
  }
  EXPECT_LT(hot_cc * 4, hot_sc)
      << "epoch batching must cool the hotspot by at least 4x here";
}

}  // namespace
}  // namespace ccnvm::nvm
