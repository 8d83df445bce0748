// Crash-recovery matrix across designs (§4.4 and the §3 comparison):
// who recovers, who detects, who locates.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cc_nvm.h"
#include "core/design.h"

namespace ccnvm::core {
namespace {

Line pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag + i * 7);
  }
  return l;
}

DesignConfig small_config() {
  DesignConfig c;
  c.data_capacity = 64 * kPageSize;
  return c;
}

TEST(RecoveryTest, WoCcCannotRecover) {
  auto design = make_design(DesignKind::kWoCc, small_config());
  design->write_back(0, pattern_line(1));
  design->crash_power_loss();
  const RecoveryReport report = design->recover();
  EXPECT_TRUE(report.unrecoverable);
  EXPECT_FALSE(report.metadata_recovered);
}

TEST(RecoveryTest, StrictRecoversTrivially) {
  auto design = make_design(DesignKind::kStrict, small_config());
  for (std::uint64_t i = 0; i < 20; ++i) {
    design->write_back(i * kLineSize, pattern_line(i));
  }
  design->crash_power_loss();
  const RecoveryReport report = design->recover();
  EXPECT_TRUE(report.clean) << report.detail;
  EXPECT_EQ(report.total_retries, 0u) << "SC metadata is always current";
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(design->read_block(i * kLineSize).plaintext, pattern_line(i));
  }
}

TEST(RecoveryTest, OsirisRecoversWithinUpdateLimit) {
  auto design = make_design(DesignKind::kOsirisPlus, small_config());
  Rng rng(2);
  std::unordered_map<Addr, std::uint64_t> latest;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const Addr addr = rng.below(512) * kLineSize;
    design->write_back(addr, pattern_line(i));
    latest[addr] = i;
  }
  design->crash_power_loss();
  const RecoveryReport report = design->recover();
  EXPECT_TRUE(report.clean) << report.detail;
  EXPECT_LE(report.total_retries, 100u);
  for (const auto& [addr, tag] : latest) {
    EXPECT_EQ(design->read_block(addr).plaintext, pattern_line(tag));
  }
}

TEST(RecoveryTest, CcNvmRetriesBoundedByUpdateLimit) {
  DesignConfig c = small_config();
  c.update_limit = 8;
  CcNvmDesign design(c, /*deferred_spreading=*/true);
  // Hammer one block: trigger (3) forces drains so staleness stays <= N.
  for (std::uint64_t i = 0; i < 100; ++i) {
    design.write_back(0, pattern_line(i));
  }
  design.crash_power_loss();
  const RecoveryReport report = design.recover();
  EXPECT_TRUE(report.clean) << report.detail;
  EXPECT_LE(report.total_retries, 8u);
  EXPECT_EQ(design.read_block(0).plaintext, pattern_line(99));
}

// The full random-workload x crash-schedule property: whatever the epoch
// state at power loss, recovery must restore every written block.
class RecoveryPropertyTest
    : public ::testing::TestWithParam<std::tuple<DesignKind, std::uint64_t>> {
};

TEST_P(RecoveryPropertyTest, RandomWorkloadSurvivesCrash) {
  const auto [kind, seed] = GetParam();
  DesignConfig c = small_config();
  c.meta_cache_bytes = 16 * kLineSize;  // pressure: evictions mid-run
  c.meta_cache_ways = 4;
  auto design = make_design(kind, c);
  Rng rng(seed);
  std::unordered_map<Addr, std::uint64_t> latest;
  const std::uint64_t ops = 150 + rng.below(200);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const Addr addr = rng.below(c.data_capacity / kLineSize) * kLineSize;
    design->write_back(addr, pattern_line(i));
    latest[addr] = i;
  }
  design->crash_power_loss();
  const RecoveryReport report = design->recover();
  ASSERT_TRUE(report.clean) << report.detail;
  for (const auto& [addr, tag] : latest) {
    const ReadResult r = design->read_block(addr);
    ASSERT_TRUE(r.integrity_ok) << addr_str(addr);
    ASSERT_EQ(r.plaintext, pattern_line(tag)) << addr_str(addr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryPropertyTest,
    ::testing::Combine(::testing::Values(DesignKind::kStrict,
                                         DesignKind::kOsirisPlus,
                                         DesignKind::kCcNvmNoDs,
                                         DesignKind::kCcNvm),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)));

TEST(RecoveryTest, RecoverThenContinueThenCrashAgain) {
  // Recovery must leave a fully working system: write, crash, recover,
  // write more, crash again, recover again.
  CcNvmDesign design(small_config(), /*deferred_spreading=*/true);
  design.write_back(0, pattern_line(1));
  design.crash_power_loss();
  ASSERT_TRUE(design.recover().clean);
  design.write_back(kLineSize, pattern_line(2));
  design.write_back(0, pattern_line(3));
  design.crash_power_loss();
  const RecoveryReport second = design.recover();
  ASSERT_TRUE(second.clean) << second.detail;
  EXPECT_EQ(design.read_block(0).plaintext, pattern_line(3));
  EXPECT_EQ(design.read_block(kLineSize).plaintext, pattern_line(2));
}

TEST(RecoveryTest, OverflowCrashWindowRecovers) {
  // Crash while an overflow's counter line is flagged but not yet drained:
  // the whole page sits in the (major+1) family and the N_wb identity is
  // suspended for it (the TCB flag bounds the window).
  DesignConfig c = small_config();
  c.update_limit = 200;  // keep trigger (3) quiet so the flag survives
  CcNvmDesign design(c, /*deferred_spreading=*/true);
  const Addr victim = 3 * kPageSize;
  const Addr neighbour = victim + 2 * kLineSize;
  design.write_back(neighbour, pattern_line(500));
  design.force_drain();
  for (std::uint64_t i = 0; i < 128; ++i) {  // 128th write overflows
    design.write_back(victim, pattern_line(i));
  }
  ASSERT_TRUE(design.tcb().overflow_pending);
  design.crash_power_loss();
  const RecoveryReport report = design.recover();
  ASSERT_TRUE(report.clean) << report.detail;
  EXPECT_EQ(design.read_block(victim).plaintext, pattern_line(127));
  EXPECT_EQ(design.read_block(neighbour).plaintext, pattern_line(500));
  EXPECT_FALSE(design.tcb().overflow_pending) << "flag clears with recovery";
}

TEST(RecoveryTest, RepeatedOverflowsInOneEpochRecover) {
  // With N above the 7-bit minor range nothing bounds the epoch by the
  // overflow window, yet the TCB flag names a single page. A second
  // overflow — on another page or the same one — must therefore commit
  // the first before it starts, or recovery finds a page two majors (or
  // one unflagged major) ahead of its counter line and reports a spoof.
  DesignConfig c = small_config();
  c.update_limit = 1u << 20;
  CcNvmDesign design(c, /*deferred_spreading=*/true);
  const Addr first = 3 * kPageSize;
  const Addr second = 9 * kPageSize + 5 * kLineSize;
  for (std::uint64_t i = 0; i < 300; ++i) {  // page 3 overflows twice
    design.write_back(first, pattern_line(i));
  }
  for (std::uint64_t i = 0; i < 130; ++i) {  // then page 9 once
    design.write_back(second, pattern_line(1000 + i));
  }
  EXPECT_GE(design.stats().page_reencryptions, 3u);
  ASSERT_TRUE(design.tcb().overflow_pending);
  design.crash_power_loss();
  const RecoveryReport report = design.recover();
  ASSERT_TRUE(report.clean) << report.detail;
  EXPECT_EQ(design.read_block(first).plaintext, pattern_line(299));
  EXPECT_EQ(design.read_block(second).plaintext, pattern_line(1129));
  EXPECT_TRUE(design.audit_image().empty());
}

TEST(RecoveryTest, RecoveredStateIsCommitted) {
  // After recovery the NVM tree must match the (single) TCB root — i.e.
  // recovery ends in a freshly committed epoch.
  CcNvmDesign design(small_config(), true);
  design.write_back(0, pattern_line(1));
  design.write_back(kPageSize, pattern_line(2));
  design.crash_power_loss();
  const RecoveryReport report = design.recover();
  ASSERT_TRUE(report.clean);
  EXPECT_EQ(design.tcb().root_old, design.tcb().root_new);
  EXPECT_EQ(design.tcb().n_wb, 0u);
  EXPECT_TRUE(design.audit_image().empty());
}

}  // namespace
}  // namespace ccnvm::core
