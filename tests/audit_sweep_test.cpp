// The audited crash sweep on raw write-backs as a tier-1 test: every
// design × drain trigger × DrainCrashPoint cell runs through the shared
// scenario body (audit::run_crash_scenario) with the auditor attached,
// and the totals prove the matrix was actually covered.
#include <gtest/gtest.h>

#include "audit/crash_sweep.h"

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

}  // namespace
}  // namespace ccnvm::audit
