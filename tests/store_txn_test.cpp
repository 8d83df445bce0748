// Multi-key transaction tests for SecureKvStore: atomic local commits,
// crash all-or-nothing at every TxnCrashPhase, the distributed
// prepare/decide/finalize half, and journal/heap hygiene on failure.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/cc_nvm.h"
#include "core/design.h"
#include "store/kv_store.h"
#include "support/design_helpers.h"
#include "support/store_helpers.h"

namespace ccnvm::store {
namespace {

using testsupport::small_design_config;
using testsupport::small_store_config;
using testsupport::value_of;

StoreConfig txn_store_config(std::size_t ops = 8) {
  StoreConfig cfg = small_store_config();
  cfg.txn_ops_capacity = ops;
  return cfg;
}

TEST(TxnConfigTest, JournalLinesExtendTheFootprint) {
  const StoreConfig plain = small_store_config();
  const StoreConfig txn = txn_store_config(8);
  EXPECT_EQ(plain.txn_journal_lines(), 0u);
  EXPECT_EQ(txn.txn_journal_lines(), 2u + 16u);
  EXPECT_EQ(txn.footprint_bytes(),
            plain.footprint_bytes() + 18u * kLineSize);
}

TEST(TxnConfigTest, ValidateRejectsOversizedJournal) {
  const CheckThrowScope throw_scope;
  StoreConfig cfg = txn_store_config(65);
  EXPECT_THROW(cfg.validate(), CheckFailure);
}

TEST(TxnTest, BeginChecksTheJournalExists) {
  const CheckThrowScope throw_scope;
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());
  EXPECT_THROW(kv.begin_txn(), CheckFailure);
}

TEST(TxnTest, CommitAppliesEveryBufferedOp) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  EXPECT_TRUE(kv.put("stale", "old"));

  Txn txn = kv.begin_txn();
  txn.put("a", "1");
  txn.put("b", value_of(150, 'b'));  // multi-line value
  txn.erase("stale");
  EXPECT_TRUE(kv.commit_txn(txn));

  EXPECT_EQ(kv.get("a").value(), "1");
  EXPECT_EQ(kv.get("b").value(), value_of(150, 'b'));
  EXPECT_FALSE(kv.get("stale").has_value());
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.stats().txn_commits, 1u);
}

TEST(TxnTest, LastWriterWinsPerKeyAndPendingExposesTheBuffer) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  Txn txn = kv.begin_txn();
  txn.put("k", "first");
  txn.put("k", "second");
  txn.erase("gone");
  EXPECT_EQ(txn.size(), 2u);
  ASSERT_NE(txn.pending("k"), nullptr);
  EXPECT_EQ(txn.pending("k")->value(), "second");
  ASSERT_NE(txn.pending("gone"), nullptr);
  EXPECT_FALSE(txn.pending("gone")->has_value());
  EXPECT_EQ(txn.pending("untouched"), nullptr);

  EXPECT_TRUE(kv.commit_txn(txn));
  EXPECT_EQ(kv.get("k").value(), "second");
}

TEST(TxnTest, AbortDiscardsWithoutTouchingTheStore) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  const std::uint64_t journal_before = kv.stats().txn_journal_writes;
  Txn txn = kv.begin_txn();
  txn.put("x", "doomed");
  kv.abort_txn(txn);
  EXPECT_TRUE(txn.empty());
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.stats().txn_journal_writes, journal_before);
}

TEST(TxnTest, EraseOfAbsentKeysCommitsWithoutJournaling) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  Txn txn = kv.begin_txn();
  txn.erase("never-existed");
  EXPECT_TRUE(kv.commit_txn(txn));
  EXPECT_EQ(kv.stats().txn_journal_writes, 0u);
  EXPECT_EQ(kv.stats().txn_commits, 0u);
}

TEST(TxnTest, OverCapacityFailsAndReclaimsEveryStagedExtent) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config(/*ops=*/2));
  const std::uint64_t free_before = kv.free_heap_lines(0);
  Txn txn = kv.begin_txn();
  txn.put("a", "1");
  txn.put("b", "2");
  txn.put("c", "3");
  EXPECT_FALSE(kv.commit_txn(txn));
  EXPECT_EQ(kv.size(), 0u);
  EXPECT_EQ(kv.free_heap_lines(0), free_before);
  EXPECT_EQ(kv.free_heap_lines(1), free_before);
}

TEST(TxnTest, InvalidOpFailsTheWholeTxn) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  Txn txn = kv.begin_txn();
  txn.put("ok", "fine");
  txn.put(std::string(SecureKvStore::kMaxKeyBytes + 1, 'k'), "oops");
  EXPECT_FALSE(kv.commit_txn(txn));
  EXPECT_FALSE(kv.get("ok").has_value());
}

TEST(TxnTest, HomeBucketCollisionsWithinOneTxnGetDistinctSlots) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  const StoreConfig cfg = txn_store_config();
  SecureKvStore kv(design, cfg);

  // Find three keys sharing a shard AND a home bucket, so the staged
  // probe must walk past slots claimed earlier in the same txn.
  std::vector<std::string> colliders;
  const std::uint64_t h0 = SecureKvStore::hash_key("c-0");
  const std::uint64_t want_shard = (h0 >> 40) % cfg.shards;
  const std::uint64_t want_home = h0 % cfg.buckets_per_shard;
  for (int i = 0; colliders.size() < 3 && i < 100000; ++i) {
    const std::string key = "c-" + std::to_string(i);
    const std::uint64_t h = SecureKvStore::hash_key(key);
    if ((h >> 40) % cfg.shards == want_shard &&
        h % cfg.buckets_per_shard == want_home) {
      colliders.push_back(key);
    }
  }
  ASSERT_EQ(colliders.size(), 3u);

  Txn txn = kv.begin_txn();
  for (const std::string& key : colliders) txn.put(key, "v-" + key);
  EXPECT_TRUE(kv.commit_txn(txn));
  for (const std::string& key : colliders) {
    EXPECT_EQ(kv.get(key).value(), "v-" + key) << key;
  }

  // The reopen scan cross-checks that no two entries share a heap line.
  design.crash_power_loss();
  EXPECT_TRUE(design.recover().clean);
  SecureKvStore reopened = SecureKvStore::open(design, cfg);
  for (const std::string& key : colliders) {
    EXPECT_EQ(reopened.get(key).value(), "v-" + key) << key;
  }
}

// --- Crash all-or-nothing at every phase ---------------------------------

struct CrashAt {
  SecureKvStore::TxnCrashPhase phase;
  bool committed;  // must the txn be visible after reopen?
  const char* name;
};

// Without a printer gtest names each case after the raw bytes of CrashAt,
// padding included, so the case names would change from run to run.
void PrintTo(const CrashAt& at, std::ostream* os) { *os << at.name; }

class TxnCrashPhaseTest : public ::testing::TestWithParam<CrashAt> {};

TEST_P(TxnCrashPhaseTest, KillYieldsAllOrNothingOnReopen) {
  const CrashAt param = GetParam();
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  const StoreConfig cfg = txn_store_config();
  {
    SecureKvStore kv(design, cfg);
    EXPECT_TRUE(kv.put("pre", "kept"));
    EXPECT_TRUE(kv.put("old", "v0"));
    kv.checkpoint();

    kv.set_txn_test_hook([&](SecureKvStore::TxnCrashPhase phase) {
      if (phase == param.phase) throw core::InjectedPowerLoss{};
    });
    Txn txn = kv.begin_txn();
    txn.put("old", "v1");
    txn.put("fresh", value_of(100, 'f'));
    txn.erase("pre");
    EXPECT_THROW(kv.commit_txn(txn), core::InjectedPowerLoss);
  }

  design.crash_power_loss();
  EXPECT_TRUE(design.recover().clean);
  SecureKvStore kv = SecureKvStore::open(design, cfg);
  if (param.committed) {
    EXPECT_EQ(kv.get("old").value(), "v1");
    EXPECT_EQ(kv.get("fresh").value(), value_of(100, 'f'));
    EXPECT_FALSE(kv.get("pre").has_value());
    EXPECT_EQ(kv.size(), 2u);
  } else {
    EXPECT_EQ(kv.get("old").value(), "v0");
    EXPECT_FALSE(kv.get("fresh").has_value());
    EXPECT_EQ(kv.get("pre").value(), "kept");
    EXPECT_EQ(kv.size(), 2u);
  }

  // The journal is released either way: the next txn starts clean.
  Txn next = kv.begin_txn();
  next.put("after", "crash");
  EXPECT_TRUE(kv.commit_txn(next));
  EXPECT_EQ(kv.get("after").value(), "crash");
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, TxnCrashPhaseTest,
    ::testing::Values(
        CrashAt{SecureKvStore::TxnCrashPhase::kAfterStage, false, "AfterStage"},
        CrashAt{SecureKvStore::TxnCrashPhase::kAfterStatusFlip, true,
                "AfterStatusFlip"},
        CrashAt{SecureKvStore::TxnCrashPhase::kMidRedo, true, "MidRedo"},
        CrashAt{SecureKvStore::TxnCrashPhase::kBeforeRelease, true,
                "BeforeRelease"}));

// --- Distributed half (prepare / decide / finalize) ----------------------

TEST(TxnTwoPhaseTest, PrepareThenFinalizeApplies) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  Txn txn = kv.begin_txn();
  txn.put("p", "v");
  EXPECT_TRUE(kv.prepare_txn(txn, /*txn_id=*/42, /*coordinator=*/0));
  EXPECT_FALSE(kv.get("p").has_value()) << "prepared txns stay invisible";
  kv.finalize_txn(42);
  EXPECT_EQ(kv.get("p").value(), "v");
  EXPECT_EQ(kv.stats().txn_prepares, 1u);
  EXPECT_EQ(kv.stats().txn_commits, 1u);
}

TEST(TxnTwoPhaseTest, PrepareThenAbortRevertsAndReclaims) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  const std::uint64_t free_before = kv.free_heap_lines(0);
  Txn txn = kv.begin_txn();
  txn.put("p", "v");
  EXPECT_TRUE(kv.prepare_txn(txn, 42, 0));
  kv.abort_prepared_txn(42);
  EXPECT_FALSE(kv.get("p").has_value());
  EXPECT_EQ(kv.free_heap_lines(0), free_before);
  EXPECT_EQ(kv.free_heap_lines(1), free_before);
  // The slot is free again: a fresh txn can prepare.
  Txn next = kv.begin_txn();
  next.put("q", "w");
  EXPECT_TRUE(kv.prepare_txn(next, 43, 0));
  kv.finalize_txn(43);
  EXPECT_EQ(kv.get("q").value(), "w");
}

TEST(TxnTwoPhaseTest, CrashedPrepareWithoutDecisionIsPresumedAborted) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  const StoreConfig cfg = txn_store_config();
  {
    SecureKvStore kv(design, cfg);
    Txn txn = kv.begin_txn();
    txn.put("p", "v");
    EXPECT_TRUE(kv.prepare_txn(txn, 42, /*coordinator=*/1));
  }
  design.crash_power_loss();
  EXPECT_TRUE(design.recover().clean);
  SecureKvStore kv = SecureKvStore::open(design, cfg);
  EXPECT_FALSE(kv.get("p").has_value());
}

TEST(TxnTwoPhaseTest, CoordinatorsOwnDecisionCommitsItsPreparedTxn) {
  // The decision line names the txn, or a younger one decided after the
  // txn's finalize was cut off.
  const StoreConfig cfg = txn_store_config();
  for (const std::uint64_t decided : {42u, 43u}) {
    core::CcNvmDesign design(small_design_config(),
                             /*deferred_spreading=*/true);
    {
      SecureKvStore kv(design, cfg);
      Txn txn = kv.begin_txn();
      txn.put("p", "v");
      EXPECT_TRUE(kv.prepare_txn(txn, 42, /*coordinator=*/0));
      kv.decide_txn_commit(decided);
      // Crash before finalize: the decision line alone must commit it.
    }
    design.crash_power_loss();
    EXPECT_TRUE(design.recover().clean);
    SecureKvStore kv = SecureKvStore::open(design, cfg);
    EXPECT_EQ(kv.get("p").value(), "v");
    EXPECT_EQ(kv.last_txn_decision(), std::optional<std::uint64_t>(decided));
  }
}

TEST(TxnTwoPhaseTest, StaleDecisionForAnOlderTxnDoesNotCommit) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  const StoreConfig cfg = txn_store_config();
  {
    SecureKvStore kv(design, cfg);
    Txn a = kv.begin_txn();
    a.put("a", "v");
    EXPECT_TRUE(kv.prepare_txn(a, 41, 0));
    kv.decide_txn_commit(41);
    kv.finalize_txn(41);
    Txn b = kv.begin_txn();
    b.put("b", "v");
    EXPECT_TRUE(kv.prepare_txn(b, 42, 0));
    // Crash before deciding 42: the stale decision(41) must not apply.
  }
  design.crash_power_loss();
  EXPECT_TRUE(design.recover().clean);
  SecureKvStore kv = SecureKvStore::open(design, cfg);
  EXPECT_EQ(kv.get("a").value(), "v");
  EXPECT_FALSE(kv.get("b").has_value());
}

TEST(TxnTwoPhaseTest, ResolverDecidesForeignCoordinatedTxns) {
  const StoreConfig cfg = txn_store_config();
  for (const bool decided_commit : {true, false}) {
    core::CcNvmDesign design(small_design_config(),
                             /*deferred_spreading=*/true);
    {
      SecureKvStore kv(design, cfg);
      Txn txn = kv.begin_txn();
      txn.put("p", "v");
      EXPECT_TRUE(kv.prepare_txn(txn, 42, /*coordinator=*/1));
    }
    design.crash_power_loss();
    EXPECT_TRUE(design.recover().clean);
    std::uint64_t asked_id = 0;
    std::uint32_t asked_coord = 0;
    SecureKvStore kv = SecureKvStore::open(
        design, cfg,
        [&](std::uint64_t txn_id, std::uint32_t coordinator) {
          asked_id = txn_id;
          asked_coord = coordinator;
          return decided_commit;
        });
    EXPECT_EQ(asked_id, 42u);
    EXPECT_EQ(asked_coord, 1u);
    EXPECT_EQ(kv.get("p").has_value(), decided_commit);
  }
}

TEST(TxnTwoPhaseTest, ADecisionAtOrPastThePreparedIdCommitsIt) {
  // Participant store P holds txn 42 prepared under coordinator store C.
  // C's decision line names 41, 42 or 43: an acked txn's finalize can be
  // cut off after C already decided a younger txn, so 42 and 43 redo the
  // txn on reopen, and only 41 (42 never decided) aborts it.
  const StoreConfig cfg = txn_store_config();
  for (const std::uint64_t decided : {41u, 42u, 43u}) {
    core::CcNvmDesign coord(small_design_config(),
                            /*deferred_spreading=*/true);
    core::CcNvmDesign part(small_design_config(),
                           /*deferred_spreading=*/true);
    {
      SecureKvStore c(coord, cfg);
      SecureKvStore p(part, cfg);
      Txn txn = p.begin_txn();
      txn.put("p", "v");
      EXPECT_TRUE(p.prepare_txn(txn, 42, /*coordinator=*/0));
      c.decide_txn_commit(decided);
    }
    for (core::CcNvmDesign* d : {&coord, &part}) {
      d->crash_power_loss();
      EXPECT_TRUE(d->recover().clean);
    }
    SecureKvStore c = SecureKvStore::open(coord, cfg);
    SecureKvStore p = SecureKvStore::open(
        part, cfg, [&c](std::uint64_t txn_id, std::uint32_t coordinator) {
          EXPECT_EQ(coordinator, 0u);
          return c.decided_commit(txn_id);
        });
    EXPECT_EQ(p.get("p").has_value(), decided >= 42) << "decided " << decided;
  }
}

TEST(TxnTwoPhaseTest, OnePhaseCommitWritesNoDecisionLine) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  Txn txn = kv.begin_txn();
  txn.put("a", "1");
  txn.put("b", "2");
  ASSERT_TRUE(kv.commit_txn(txn));
  EXPECT_EQ(kv.last_txn_decision(), std::nullopt);
  EXPECT_FALSE(kv.decided_commit(1));
  EXPECT_EQ(kv.stats().txn_prepares, 0u);
  EXPECT_EQ(kv.stats().txn_commits, 1u);
}

TEST(TxnTwoPhaseTest, SecondPrepareWithoutFinalizeIsAProtocolBug) {
  const CheckThrowScope throw_scope;
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  Txn a = kv.begin_txn();
  a.put("a", "1");
  EXPECT_TRUE(kv.prepare_txn(a, 1, 0));
  Txn b = kv.begin_txn();
  b.put("b", "2");
  EXPECT_THROW(kv.prepare_txn(b, 2, 0), CheckFailure);
}

TEST(TxnTwoPhaseTest, ReadOnlyParticipantFinalizeIsANoOp) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, txn_store_config());
  // Nothing prepared (e.g. every sub-op was a get or an absent-erase).
  kv.finalize_txn(7);
  kv.abort_prepared_txn(7);
  EXPECT_EQ(kv.stats().txn_commits, 0u);
}

}  // namespace
}  // namespace ccnvm::store
