// The audited crash sweep on raw write-backs as a tier-1 test: every
// design × drain trigger × DrainCrashPoint cell runs through the shared
// scenario body (audit::run_crash_scenario) with the auditor attached,
// and the totals prove the matrix was actually covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "audit/crash_sweep.h"
#include "audit/sweep_shape.h"

namespace ccnvm::audit {
namespace {

TEST(CrashSweepTest, FullMatrixHoldsEveryInvariant) {
  CrashSweepConfig config;
  config.seed = 7;
  const CrashSweepResult r = run_crash_sweep(SweepWorkload::kRawLines, config);
  // 3 cc designs × 4 triggers × 4 crash points, plus 5 non-draining
  // designs (incl. the Triad-NVM/Phoenix barrier baselines) × 7 crash
  // prefixes.
  EXPECT_EQ(r.scenarios, 83u);
  EXPECT_EQ(r.crashes, r.scenarios) << "every scenario loses power";
  EXPECT_GT(r.recoveries, 0u);
  EXPECT_GT(r.verified, 0u);
  EXPECT_GT(r.events_observed, 0u);
  EXPECT_GT(r.checks_performed, r.events_observed)
      << "each event fans out into multiple invariant checks";
  EXPECT_GT(r.image_verifications, 0u);
}

TEST(CrashSweepTest, SeedsVaryTheWorkloadNotTheCoverage) {
  CrashSweepConfig config;
  config.seed = 12345;
  config.ops_per_scenario = 64;
  const CrashSweepResult r = run_crash_sweep(SweepWorkload::kRawLines, config);
  EXPECT_EQ(r.scenarios, 83u);
  EXPECT_GT(r.verified, 0u);
}

TEST(CrashSweepTest, ParallelSweepMatchesSerialExactly) {
  // Scenario seeds derive from (campaign seed, index) and totals fold in
  // index order, so the worker count must be unobservable.
  CrashSweepConfig serial;
  serial.seed = 21;
  CrashSweepConfig wide = serial;
  wide.jobs = 4;
  const CrashSweepResult a = run_crash_sweep(SweepWorkload::kRawLines, serial);
  const CrashSweepResult b = run_crash_sweep(SweepWorkload::kRawLines, wide);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.events_observed, b.events_observed);
  EXPECT_EQ(a.checks_performed, b.checks_performed);
  EXPECT_EQ(a.image_verifications, b.image_verifications);
}

/// Drains that fire naturally, before the forced one, in each explicit
/// cell of the sweep over `workload` at seed 1: the cell's own stream,
/// geometry and op count, with the ops picked as run_crash_sweep picks
/// them for kExplicit.
std::vector<std::uint64_t> natural_drains_in_explicit_cells(
    SweepWorkload workload) {
  const bool kv = workload == SweepWorkload::kKv;
  const std::size_t explicit_at = static_cast<std::size_t>(
      std::find(kSweepTriggers.begin(), kSweepTriggers.end(),
                core::DrainTrigger::kExplicit) -
      kSweepTriggers.begin());
  std::vector<std::uint64_t> natural;
  for (std::size_t k = 0; k < kCcSweepKinds.size(); ++k) {
    for (std::size_t p = 0; p < kSweepCrashPoints.size(); ++p) {
      const std::size_t cell =
          (k * kSweepTriggers.size() + explicit_at) * kSweepCrashPoints.size() +
          p;
      Rng rng(derive_seed(1, cell));
      auto design = core::make_design(
          kCcSweepKinds[k],
          shaped_design_config(core::DrainTrigger::kExplicit,
                               kv ? kKvDaqEntries : 12));
      auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
      if (base == nullptr) return {};
      RawLines raw([](std::size_t, Rng& draw) {
        return draw.below(kSweepPages * kPageSize / kLineSize) * kLineSize;
      });
      KvOps kv_ops(numbered_keys("key-", 20), [](std::size_t, Rng& draw) {
        return static_cast<std::size_t>(draw.below(20));
      });
      CrashWorkload& ops = kv ? static_cast<CrashWorkload&>(kv_ops) : raw;
      for (std::size_t i = 0; i < (kv ? 48 : 96); ++i) ops.apply(*base, i, rng);
      const core::DesignStats& st = design->stats();
      EXPECT_EQ(st.drains, st.drains_by_trigger[static_cast<std::size_t>(
                               core::DrainTrigger::kDaqPressure)])
          << "cell " << cell << ": only DAQ pressure fires on its own";
      natural.push_back(st.drains);
    }
  }
  return natural;
}

TEST(CrashSweepTest, ExplicitCellsDrainNaturallyBeforeTheForcedDrain) {
  // 96 raw write-backs over 64 pages fill the default 64-entry DAQ once;
  // 48 KV ops on the 8-page store fill no queue.
  EXPECT_EQ(natural_drains_in_explicit_cells(SweepWorkload::kRawLines),
            std::vector<std::uint64_t>(12, 1));
  EXPECT_EQ(natural_drains_in_explicit_cells(SweepWorkload::kKv),
            std::vector<std::uint64_t>(12, 0));
}

}  // namespace
}  // namespace ccnvm::audit
