// crashd harness internals that don't need a real SIGKILL: scenario
// derivation determinism and coverage, and the worker/verifier pair run
// in-process for the scenarios that exit cleanly (kNone and kAttack —
// any other kill mode would take the test runner down with it).
// The fork+kill path itself is exercised by the `cli_crashd_sweep` ctest
// and the CI kill9-crash-sweep job.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "common/check.h"
#include "crashd/crashd.h"

namespace ccnvm::crashd {
namespace {

/// Per-test-unique path: gtest_discover_tests runs every TEST as its own
/// ctest entry, and `ctest -j` runs them concurrently in one TempDir —
/// shared filenames would race.
std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" + info->test_suite_name() +
         "-" + info->name() + "-" + name;
}

void cleanup(const std::string& image) {
  std::remove(image.c_str());
  std::remove((image + ".ack").c_str());
}

void cleanup_service(const std::string& image) {
  for (int s = 0; s < 4; ++s) {
    std::remove((image + ".s" + std::to_string(s)).c_str());
  }
  for (int t = 0; t < 8; ++t) {
    std::remove((image + ".ack.t" + std::to_string(t)).c_str());
  }
}

std::optional<std::uint64_t> find_index(std::uint64_t seed, KillMode kill,
                                        std::uint64_t limit = 2000) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (derive_scenario(seed, i).kill == kill) return i;
  }
  return std::nullopt;
}

TEST(CrashdScenarioTest, DerivationIsDeterministic) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Scenario a = derive_scenario(1, i);
    const Scenario b = derive_scenario(1, i);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.trigger, b.trigger);
    EXPECT_EQ(a.kill, b.kill);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.kill_op, b.kill_op);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.workload_seed, b.workload_seed);
    EXPECT_FALSE(describe(a).empty());
  }
  // Different seeds must explore different scenarios.
  EXPECT_NE(derive_scenario(1, 0).workload_seed,
            derive_scenario(2, 0).workload_seed);
}

TEST(CrashdScenarioTest, SweepCoversEveryKillMode) {
  EXPECT_TRUE(find_index(1, KillMode::kNone).has_value());
  EXPECT_TRUE(find_index(1, KillMode::kOpBoundary).has_value());
  EXPECT_TRUE(find_index(1, KillMode::kBeforeAck).has_value());
  EXPECT_TRUE(find_index(1, KillMode::kDrainPhase).has_value());
  EXPECT_TRUE(find_index(1, KillMode::kAttack).has_value());
}

TEST(CrashdWorkerTest, CleanScenarioRoundTripsThroughTheImageFile) {
  const auto index = find_index(1, KillMode::kNone);
  ASSERT_TRUE(index.has_value());
  const std::string image = temp_path("crashd-clean.dimm");
  ASSERT_EQ(run_worker(Family::kSingle, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kSingle, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, derive_scenario(1, *index).ops);
  EXPECT_GT(r.keys_checked, 0u);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup(image);
}

TEST(CrashdWorkerTest, AttackScenarioIsDetectedAndLocated) {
  const auto index = find_index(1, KillMode::kAttack);
  ASSERT_TRUE(index.has_value());
  const std::string image = temp_path("crashd-attack.dimm");
  ASSERT_EQ(run_worker(Family::kSingle, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kSingle, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(r.attack_checked);
  cleanup(image);
}

TEST(CrashdVerifyTest, TamperedAckLogFailsVerification) {
  // Forge an extra ack the worker never wrote: the verifier must refuse
  // rather than quietly trusting a too-long promise list.
  const auto index = find_index(1, KillMode::kNone);
  ASSERT_TRUE(index.has_value());
  const std::string image = temp_path("crashd-forged.dimm");
  ASSERT_EQ(run_worker(Family::kSingle, image, 1, *index), 0);
  {
    std::FILE* f = std::fopen((image + ".ack").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc('A', f);
    std::fclose(f);
  }
  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kSingle, image, 1, *index);
  EXPECT_FALSE(r.ok);
  cleanup(image);
}

TEST(CrashdVerifyTest, MissingImageFails) {
  CheckThrowScope throw_scope;
  const VerifyResult r =
      verify(Family::kSingle, temp_path("crashd-nope.dimm"), 1, 0);
  EXPECT_FALSE(r.ok);
}

TEST(CrashdDesignPinTest, TriadLevelIsBoundedAndOverflowChecked) {
  // 4294967297 = 2^32 + 1: a 32-bit digit loop wraps it to triad-n1.
  for (const char* bad : {"triad-n4294967297", "triad-n65", "triad-n0",
                          "triad-n", "triad-nx", "wocc", "ccnvm-plus", "sc",
                          "osiris"}) {
    DesignPin pin;
    EXPECT_FALSE(parse_design_pin(bad, pin)) << bad;
  }
  DesignPin pin;
  ASSERT_TRUE(parse_design_pin("triad-n3", pin));
  EXPECT_EQ(pin.kind, core::DesignKind::kTriadNvm);
  EXPECT_EQ(pin.persist_level, 3u);
  ASSERT_TRUE(parse_design_pin("triad-n64", pin));
  EXPECT_EQ(pin.persist_level, 64u);
  for (const char* good : {"ccnvm", "ccnvm-nods", "triad", "phoenix"}) {
    EXPECT_TRUE(parse_design_pin(good, pin)) << good;
  }
}

// ---- Service scenario family -------------------------------------------

std::optional<std::uint64_t> find_service_index(std::uint64_t seed,
                                                ServiceKill kill,
                                                std::uint64_t limit = 2000) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (derive_service_scenario(seed, i).kill == kill) return i;
  }
  return std::nullopt;
}

TEST(CrashdServiceScenarioTest, DerivationIsDeterministicAndBounded) {
  bool saw_multi_shard = false;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const ServiceScenario a = derive_service_scenario(1, i);
    const ServiceScenario b = derive_service_scenario(1, i);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.trigger, b.trigger);
    EXPECT_EQ(a.shards, b.shards);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.ops_per_thread, b.ops_per_thread);
    EXPECT_EQ(a.max_batch, b.max_batch);
    EXPECT_EQ(a.max_delay_us, b.max_delay_us);
    EXPECT_EQ(a.kill, b.kill);
    EXPECT_EQ(a.kill_target, b.kill_target);
    EXPECT_EQ(a.workload_seed, b.workload_seed);
    EXPECT_FALSE(describe(a).empty());

    // Bounds the worker/verifier geometry depends on.
    EXPECT_GE(a.threads, 2u);
    EXPECT_LE(a.threads, 4u);
    EXPECT_GE(a.ops_per_thread, 12u);
    EXPECT_LE(a.ops_per_thread, 32u);
    EXPECT_TRUE(a.max_batch == 1 || a.max_batch == 2 || a.max_batch == 4 ||
                a.max_batch == 8 || a.max_batch == 16)
        << a.max_batch;
    EXPECT_TRUE(a.max_delay_us == 0 || a.max_delay_us == 100 ||
                a.max_delay_us == 500)
        << a.max_delay_us;
    // The kill discipline: a SIGKILL from the drain worker is only safe
    // when it is the sole thread touching NVM, so kill scenarios must be
    // single-shard. Clean scenarios may fan out.
    if (a.kill != ServiceKill::kNone) {
      EXPECT_EQ(a.shards, 1u) << "kill scenario with " << a.shards
                              << " shards at index " << i;
      EXPECT_GE(a.kill_target, 1u);
    } else {
      EXPECT_GE(a.shards, 1u);
      EXPECT_LE(a.shards, 2u);
      if (a.shards > 1) saw_multi_shard = true;
    }
  }
  EXPECT_TRUE(saw_multi_shard);  // clean scenarios do exercise 2 shards
  EXPECT_NE(derive_service_scenario(1, 0).workload_seed,
            derive_service_scenario(2, 0).workload_seed);
}

TEST(CrashdServiceScenarioTest, SweepCoversEveryServiceKill) {
  EXPECT_TRUE(find_service_index(1, ServiceKill::kNone).has_value());
  EXPECT_TRUE(find_service_index(1, ServiceKill::kMidBatch).has_value());
  EXPECT_TRUE(find_service_index(1, ServiceKill::kAfterBarrier).has_value());
}

TEST(CrashdServiceWorkerTest, CleanScenarioRoundTripsThroughShardImages) {
  const auto index = find_service_index(1, ServiceKill::kNone);
  ASSERT_TRUE(index.has_value());
  const ServiceScenario sc = derive_service_scenario(1, *index);
  const std::string image = temp_path("crashd-svc-clean.dimm");
  ASSERT_EQ(run_worker(Family::kService, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kService, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.threads * sc.ops_per_thread);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup_service(image);
}

TEST(CrashdServiceVerifyTest, TamperedThreadAckLogFailsVerification) {
  const auto index = find_service_index(1, ServiceKill::kNone);
  ASSERT_TRUE(index.has_value());
  const std::string image = temp_path("crashd-svc-forged.dimm");
  ASSERT_EQ(run_worker(Family::kService, image, 1, *index), 0);
  {
    // An ack after thread 0's clean-exit marker: the worker never wrote
    // it, so the verifier must reject the log as malformed.
    std::FILE* f = std::fopen((image + ".ack.t0").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc('A', f);
    std::fclose(f);
  }
  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kService, image, 1, *index);
  EXPECT_FALSE(r.ok);
  cleanup_service(image);
}

TEST(CrashdServiceVerifyTest, MissingShardImagesFail) {
  CheckThrowScope throw_scope;
  const VerifyResult r =
      verify(Family::kService, temp_path("crashd-svc-nope.dimm"), 1, 0);
  EXPECT_FALSE(r.ok);
}

// ---- Txn scenario family -------------------------------------------

std::optional<std::uint64_t> find_txn_index(std::uint64_t seed, TxnKill kill,
                                            int wave = -1,
                                            std::uint64_t limit = 2000) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    const TxnScenario sc = derive_txn_scenario(seed, i);
    if (sc.kill == kill && (wave < 0 || sc.kill_wave == wave)) return i;
  }
  return std::nullopt;
}

TEST(CrashdTxnScenarioTest, DerivationIsDeterministicAndBounded) {
  for (std::uint64_t i = 0; i < 128; ++i) {
    const TxnScenario a = derive_txn_scenario(1, i);
    const TxnScenario b = derive_txn_scenario(1, i);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.trigger, b.trigger);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.actions_per_thread, b.actions_per_thread);
    EXPECT_EQ(a.max_batch, b.max_batch);
    EXPECT_EQ(a.max_delay_us, b.max_delay_us);
    EXPECT_EQ(a.kill, b.kill);
    EXPECT_EQ(a.kill_wave, b.kill_wave);
    EXPECT_EQ(a.kill_target, b.kill_target);
    EXPECT_EQ(a.workload_seed, b.workload_seed);
    EXPECT_FALSE(describe(a).empty());

    EXPECT_GE(a.threads, 2u);
    EXPECT_LE(a.threads, 4u);
    EXPECT_GE(a.actions_per_thread, 8u);
    EXPECT_LE(a.actions_per_thread, 16u);
    if (a.kill == TxnKill::kAtWave) {
      EXPECT_GE(a.kill_wave, 0);
      EXPECT_LE(a.kill_wave, 2);
      EXPECT_GE(a.kill_target, 1u);
    }
  }
  EXPECT_NE(derive_txn_scenario(1, 0).workload_seed,
            derive_txn_scenario(2, 0).workload_seed);
}

TEST(CrashdTxnScenarioTest, SweepCoversEveryWaveKill) {
  // The tentpole coverage claim: SIGKILL between the per-shard barriers
  // of a multi-shard commit — after prepares (wave 0), after the
  // decision (wave 1), after finalizes (wave 2) — plus clean runs.
  EXPECT_TRUE(find_txn_index(1, TxnKill::kNone).has_value());
  EXPECT_TRUE(find_txn_index(1, TxnKill::kAtWave, 0).has_value());
  EXPECT_TRUE(find_txn_index(1, TxnKill::kAtWave, 1).has_value());
  EXPECT_TRUE(find_txn_index(1, TxnKill::kAtWave, 2).has_value());
}

TEST(CrashdTxnWorkerTest, CleanScenarioRoundTripsThroughShardImages) {
  const auto index = find_txn_index(1, TxnKill::kNone);
  ASSERT_TRUE(index.has_value());
  const TxnScenario sc = derive_txn_scenario(1, *index);
  const std::string image = temp_path("crashd-txn-clean.dimm");
  ASSERT_EQ(run_worker(Family::kTxn, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kTxn, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.threads * sc.actions_per_thread);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup_service(image);
}

TEST(CrashdTxnVerifyTest, TamperedThreadAckLogFailsVerification) {
  // Forge a txn ack the worker never issued: the verifier must refuse
  // the promise rather than hunting the store for effects.
  const auto index = find_txn_index(1, TxnKill::kNone);
  ASSERT_TRUE(index.has_value());
  const std::string image = temp_path("crashd-txn-forged.dimm");
  ASSERT_EQ(run_worker(Family::kTxn, image, 1, *index), 0);
  {
    std::FILE* f = std::fopen((image + ".ack.t0").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc('T', f);
    std::fclose(f);
  }
  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kTxn, image, 1, *index);
  EXPECT_FALSE(r.ok);
  cleanup_service(image);
}

TEST(CrashdTxnVerifyTest, MissingShardImagesFail) {
  CheckThrowScope throw_scope;
  const VerifyResult r =
      verify(Family::kTxn, temp_path("crashd-txn-nope.dimm"), 1, 0);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace ccnvm::crashd
