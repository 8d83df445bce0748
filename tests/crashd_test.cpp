// crashd harness internals that don't need a real SIGKILL: scenario
// derivation determinism and coverage, and the worker/verifier pair run
// in-process for the scenarios that exit cleanly (KillEvent::kNone,
// attack or not — any other kill would take the test runner down with
// it).
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

/// The first index < `limit` whose scenario of `family` has a kill of
/// kind `event` (and, for kWave, `wave`; wave < 0 = any). kNone matches
/// clean scenarios only when `attack` matches too.
std::optional<std::uint64_t> find_index(Family family, KillEvent event,
                                        bool attack = false, int wave = -1,
                                        std::uint64_t limit = 2000) {
  for (std::uint64_t i = 0; i < limit; ++i) {
    const Scenario sc = derive_scenario(family, 1, i);
    if (sc.kill.event == event && sc.attack == attack &&
        (wave < 0 || sc.wave == wave)) {
      return i;
    }
  }
  return std::nullopt;
}

/// Two derivations of one (seed, index) agree on everything the worker
/// and verifier replay.
void expect_same_scenario(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.engines.kind, b.engines.kind);
  EXPECT_EQ(a.engines.shards, b.engines.shards);
  EXPECT_EQ(a.engines.commit.max_batch, b.engines.commit.max_batch);
  EXPECT_EQ(a.engines.commit.max_delay_us, b.engines.commit.max_delay_us);
  EXPECT_EQ(a.trigger, b.trigger);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.units, b.units);
  EXPECT_EQ(a.kill.event, b.kill.event);
  EXPECT_EQ(a.kill.target, b.kill.target);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.wave, b.wave);
  EXPECT_EQ(a.attack, b.attack);
  EXPECT_EQ(a.keyspace, b.keyspace);
  EXPECT_EQ(a.thread_seeds, b.thread_seeds);
  EXPECT_EQ(describe(a), describe(b));
  EXPECT_FALSE(describe(a).empty());
}

TEST(CrashdScenarioTest, DerivationIsDeterministic) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    expect_same_scenario(derive_scenario(Family::kSingle, 1, i),
                         derive_scenario(Family::kSingle, 1, i));
  }
  // Different seeds must explore different scenarios.
  EXPECT_NE(derive_scenario(Family::kSingle, 1, 0).thread_seeds,
            derive_scenario(Family::kSingle, 2, 0).thread_seeds);
}

TEST(CrashdScenarioTest, SweepCoversEveryKillMode) {
  EXPECT_TRUE(find_index(Family::kSingle, KillEvent::kNone).has_value());
  EXPECT_TRUE(find_index(Family::kSingle, KillEvent::kOpAcked).has_value());
  EXPECT_TRUE(find_index(Family::kSingle, KillEvent::kOpApplied).has_value());
  EXPECT_TRUE(find_index(Family::kSingle, KillEvent::kDrainArm).has_value());
  EXPECT_TRUE(
      find_index(Family::kSingle, KillEvent::kNone, /*attack=*/true)
          .has_value());
}

/// FNV-1a over describe(family, 1, i) for i < 200, one line each.
std::uint64_t description_hash(Family family, const DesignPin* pin = nullptr) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint64_t i = 0; i < 200; ++i) {
    for (const char c : describe(family, 1, i, pin) + "\n") {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(CrashdScenarioTest, DescriptionsArePinnedPerFamily) {
  // Every derived scenario (design, trigger, sizes, batching, kill point)
  // shows in its description, so these hashes pin each family's draw
  // order: a change to the scenario code must not move any of them.
  EXPECT_EQ(description_hash(Family::kSingle), 0x8f0f7f8de08382efull);
  EXPECT_EQ(description_hash(Family::kService), 0x93a318145745ad89ull);
  EXPECT_EQ(description_hash(Family::kTxn), 0xcd1af38e69b7de58ull);
  // A design pin remaps drain-window kills to op boundaries.
  DesignPin pin;
  ASSERT_TRUE(parse_design_pin("triad-n2", pin));
  EXPECT_EQ(description_hash(Family::kSingle, &pin), 0x56eaf90afdb195bcull);
}

TEST(CrashdWorkerTest, CleanScenarioRoundTripsThroughTheImageFile) {
  const auto index = find_index(Family::kSingle, KillEvent::kNone);
  ASSERT_TRUE(index.has_value());
  const std::string image = temp_path("crashd-clean.dimm");
  ASSERT_EQ(run_worker(Family::kSingle, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kSingle, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, derive_scenario(Family::kSingle, 1, *index).units);
  EXPECT_GT(r.keys_checked, 0u);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup(image);
}

TEST(CrashdWorkerTest, AttackScenarioIsDetectedAndLocated) {
  const auto index =
      find_index(Family::kSingle, KillEvent::kNone, /*attack=*/true);
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
  const auto index = find_index(Family::kSingle, KillEvent::kNone);
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

TEST(CrashdServiceScenarioTest, DerivationIsDeterministicAndBounded) {
  bool saw_multi_shard = false;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const Scenario a = derive_scenario(Family::kService, 1, i);
    expect_same_scenario(a, derive_scenario(Family::kService, 1, i));

    // Bounds the worker/verifier geometry depends on.
    EXPECT_GE(a.threads, 2u);
    EXPECT_LE(a.threads, 4u);
    EXPECT_GE(a.units, 12u);
    EXPECT_LE(a.units, 32u);
    const std::size_t batch = a.engines.commit.max_batch;
    EXPECT_TRUE(batch == 1 || batch == 2 || batch == 4 || batch == 8 ||
                batch == 16)
        << batch;
    const std::uint32_t gap = a.engines.commit.max_delay_us;
    EXPECT_TRUE(gap == 0 || gap == 100 || gap == 500) << gap;
    // The kill discipline: a SIGKILL from the drain worker is only safe
    // when it is the sole thread touching NVM, so kill scenarios must be
    // single-shard. Clean scenarios may fan out.
    if (a.kill.event != KillEvent::kNone) {
      EXPECT_TRUE(a.kill.event == KillEvent::kApplied ||
                  a.kill.event == KillEvent::kBarrier);
      EXPECT_EQ(a.engines.shards, 1u)
          << "kill scenario with " << a.engines.shards << " shards at index "
          << i;
      EXPECT_GE(a.kill.target, 1u);
    } else {
      EXPECT_GE(a.engines.shards, 1u);
      EXPECT_LE(a.engines.shards, 2u);
      if (a.engines.shards > 1) saw_multi_shard = true;
    }
  }
  EXPECT_TRUE(saw_multi_shard);  // clean scenarios do exercise 2 shards
  EXPECT_NE(derive_scenario(Family::kService, 1, 0).thread_seeds,
            derive_scenario(Family::kService, 2, 0).thread_seeds);
}

TEST(CrashdServiceScenarioTest, SweepCoversEveryServiceKill) {
  EXPECT_TRUE(find_index(Family::kService, KillEvent::kNone).has_value());
  EXPECT_TRUE(find_index(Family::kService, KillEvent::kApplied).has_value());
  EXPECT_TRUE(find_index(Family::kService, KillEvent::kBarrier).has_value());
}

TEST(CrashdServiceWorkerTest, CleanScenarioRoundTripsThroughShardImages) {
  const auto index = find_index(Family::kService, KillEvent::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kService, 1, *index);
  const std::string image = temp_path("crashd-svc-clean.dimm");
  ASSERT_EQ(run_worker(Family::kService, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kService, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.threads * sc.units);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup_service(image);
}

TEST(CrashdServiceVerifyTest, TamperedThreadAckLogFailsVerification) {
  const auto index = find_index(Family::kService, KillEvent::kNone);
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

TEST(CrashdTxnScenarioTest, DerivationIsDeterministicAndBounded) {
  for (std::uint64_t i = 0; i < 128; ++i) {
    const Scenario a = derive_scenario(Family::kTxn, 1, i);
    expect_same_scenario(a, derive_scenario(Family::kTxn, 1, i));

    EXPECT_EQ(a.engines.shards, 2u);
    EXPECT_GE(a.threads, 2u);
    EXPECT_LE(a.threads, 4u);
    EXPECT_GE(a.units, 8u);
    EXPECT_LE(a.units, 16u);
    if (a.kill.event != KillEvent::kNone) {
      EXPECT_EQ(a.kill.event, KillEvent::kWave);
      EXPECT_GE(a.wave, 0);
      EXPECT_LE(a.wave, 2);
      EXPECT_GE(a.kill.target, 1u);
    }
  }
  EXPECT_NE(derive_scenario(Family::kTxn, 1, 0).thread_seeds,
            derive_scenario(Family::kTxn, 2, 0).thread_seeds);
}

TEST(CrashdTxnScenarioTest, SweepCoversEveryWaveKill) {
  // The tentpole coverage claim: SIGKILL between the per-shard barriers
  // of a multi-shard commit — after prepares (wave 0), after the
  // decision (wave 1), after finalizes (wave 2) — plus clean runs.
  EXPECT_TRUE(find_index(Family::kTxn, KillEvent::kNone).has_value());
  for (int wave = 0; wave < 3; ++wave) {
    EXPECT_TRUE(
        find_index(Family::kTxn, KillEvent::kWave, false, wave).has_value())
        << wave;
  }
}

TEST(CrashdTxnWorkerTest, CleanScenarioRoundTripsThroughShardImages) {
  const auto index = find_index(Family::kTxn, KillEvent::kNone);
  ASSERT_TRUE(index.has_value());
  const Scenario sc = derive_scenario(Family::kTxn, 1, *index);
  const std::string image = temp_path("crashd-txn-clean.dimm");
  ASSERT_EQ(run_worker(Family::kTxn, image, 1, *index), 0);

  CheckThrowScope throw_scope;
  const VerifyResult r = verify(Family::kTxn, image, 1, *index);
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_FALSE(r.worker_was_killed);
  EXPECT_EQ(r.acked_ops, sc.threads * sc.units);
  EXPECT_GT(r.auditor_checks, 0u);
  cleanup_service(image);
}

TEST(CrashdTxnVerifyTest, TamperedThreadAckLogFailsVerification) {
  // Forge a txn ack the worker never issued: the verifier must refuse
  // the promise rather than hunting the store for effects.
  const auto index = find_index(Family::kTxn, KillEvent::kNone);
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
