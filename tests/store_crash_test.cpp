// The crash sweep on KV operations as a tier-1 test: the same matrix and
// scenario body as audit_sweep_test, but the workload is mixed
// put/get/erase traffic on a SecureKvStore. Every kill is followed by
// recovery and a store re-open that must show zero lost acknowledged
// operations and zero spurious survivors, with the invariant auditor
// attached throughout.
#include <gtest/gtest.h>

#include "audit/crash_sweep.h"

namespace ccnvm::audit {
namespace {

TEST(KvCrashSweepTest, FullMatrixLosesNoAcknowledgedOperation) {
  CrashSweepConfig config;
  config.seed = 7;
  const CrashSweepResult r = run_crash_sweep(SweepWorkload::kKv, config);
  // 3 cc designs × 4 triggers × 4 crash points, plus 5 non-draining
  // designs (incl. the Triad-NVM/Phoenix barrier baselines) × 4 crash
  // prefixes.
  EXPECT_EQ(r.scenarios, 68u);
  EXPECT_EQ(r.crashes, r.scenarios) << "every scenario loses power";
  // All cc scenarios recover; of the non-cc ones w/o CC never does.
  EXPECT_EQ(r.recoveries, 64u);
  EXPECT_GT(r.ops_applied, 0u);
  EXPECT_GT(r.in_flight_ops, 0u) << "armed kills must land mid-operation";
  EXPECT_GT(r.verified, 0u);
  EXPECT_GT(r.survivors_scanned, 0u);
  EXPECT_GT(r.events_observed, 0u) << "the invariant auditor must run";
  EXPECT_GT(r.checks_performed, r.events_observed);
  EXPECT_GT(r.image_verifications, 0u);
}

TEST(KvCrashSweepTest, SeedsVaryTheWorkloadNotTheCoverage) {
  CrashSweepConfig config;
  config.seed = 12345;
  config.ops_per_scenario = 40;
  const CrashSweepResult r = run_crash_sweep(SweepWorkload::kKv, config);
  EXPECT_EQ(r.scenarios, 68u);
  EXPECT_EQ(r.recoveries, 64u);
  EXPECT_GT(r.verified, 0u);
}

TEST(KvCrashSweepTest, ParallelSweepMatchesSerialExactly) {
  CrashSweepConfig serial;
  serial.seed = 21;
  serial.ops_per_scenario = 30;
  CrashSweepConfig wide = serial;
  wide.jobs = 4;
  const CrashSweepResult a = run_crash_sweep(SweepWorkload::kKv, serial);
  const CrashSweepResult b = run_crash_sweep(SweepWorkload::kKv, wide);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.ops_applied, b.ops_applied);
  EXPECT_EQ(a.in_flight_ops, b.in_flight_ops);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.survivors_scanned, b.survivors_scanned);
  EXPECT_EQ(a.events_observed, b.events_observed);
  EXPECT_EQ(a.checks_performed, b.checks_performed);
}

}  // namespace
}  // namespace ccnvm::audit
