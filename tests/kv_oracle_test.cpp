// The KV crash oracle's verdicts: a small in-memory store whose contents
// break the contract in one specific way must be rejected by the shared
// check with the matching reason, and stores that honour it (in-flight
// units applied whole or rolled back whole) must pass.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/kv_oracle.h"
#include "common/check.h"
#include "core/design.h"
#include "store/kv_store.h"

namespace ccnvm::audit {
namespace {

KvOp put(const std::string& key, const std::string& value) {
  return KvOp{KvOpKind::kPut, key, value};
}

KvOp erase(const std::string& key) { return KvOp{KvOpKind::kErase, key, ""}; }

/// Submits and acknowledges `unit` on thread 0.
void acked(KvModel& model, KvUnit unit) {
  model.submit(std::move(unit));
  model.ack();
}

class KvOracleTest : public ::testing::Test {
 protected:
  KvOracleTest()
      : design_(core::make_design(core::DesignKind::kCcNvm, design_config())),
        kv_(dynamic_cast<core::SecureNvmBase&>(*design_), store_config()) {}

  static core::DesignConfig design_config() {
    core::DesignConfig cfg;
    cfg.data_capacity = 64 * kPageSize;
    return cfg;
  }

  static store::StoreConfig store_config() {
    store::StoreConfig cfg;
    cfg.shards = 1;
    cfg.buckets_per_shard = 16;
    cfg.heap_lines_per_shard = 32;
    return cfg;
  }

  std::vector<std::optional<std::string>> check(const KvModel& model) {
    return check_reopened(model, {{&kv_, keys_}});
  }

  /// The check must throw, and for the expected reason.
  void expect_rejected(const KvModel& model, const std::string& reason) {
    CheckThrowScope throw_scope;
    try {
      check(model);
      ADD_FAILURE() << "accepted a store that should fail: " << reason;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
  }

  std::unique_ptr<core::SecureNvmDesign> design_;
  store::SecureKvStore kv_;
  const std::vector<std::string> keys_ = numbered_keys("k", 4);
};

TEST_F(KvOracleTest, AcceptsAStoreThatHonoursTheContract) {
  KvModel model;
  acked(model, {put("k0", "a")});
  acked(model, {put("k1", "b")});
  acked(model, {erase("k1")});
  model.submit({put("k2", "c"), put("k3", "d")}, /*thread=*/1);  // applied
  model.submit({erase("k0")}, /*thread=*/2);  // rolled back
  ASSERT_TRUE(kv_.put("k0", "a"));
  ASSERT_TRUE(kv_.put("k2", "c"));
  ASSERT_TRUE(kv_.put("k3", "d"));
  CheckThrowScope throw_scope;
  const auto reads = check(model);
  ASSERT_EQ(reads.size(), 4u);
  EXPECT_EQ(reads[0], std::optional<std::string>("a"));
  EXPECT_EQ(reads[1], std::nullopt);
  EXPECT_EQ(reads[2], std::optional<std::string>("c"));
}

TEST_F(KvOracleTest, InFlightSingleOpMaySurfaceOldOrNew) {
  for (const bool applied : {false, true}) {
    KvModel model;
    acked(model, {put("k0", "old")});
    model.submit({put("k0", "new")});
    ASSERT_TRUE(kv_.put("k0", applied ? "new" : "old"));
    CheckThrowScope throw_scope;
    EXPECT_NO_THROW(check(model)) << "applied=" << applied;
  }
}

TEST_F(KvOracleTest, RejectsALostAckedPut) {
  KvModel model;
  acked(model, {put("k0", "a")});
  expect_rejected(model, "acknowledged write lost");
}

TEST_F(KvOracleTest, RejectsAnInFlightKeyInAThirdState) {
  KvModel model;
  acked(model, {put("k0", "old")});
  model.submit({put("k0", "new")});
  ASSERT_TRUE(kv_.put("k0", "neither"));
  expect_rejected(model, "third state");
}

TEST_F(KvOracleTest, RejectsATornTwoKeyUnit) {
  KvModel model;
  model.submit({put("k0", "a"), put("k1", "b")});
  ASSERT_TRUE(kv_.put("k0", "a"));  // k1 never landed
  expect_rejected(model, "torn");
}

TEST_F(KvOracleTest, RejectsAnErasedKeyThatReappears) {
  KvModel model;
  acked(model, {put("k0", "a")});
  acked(model, {erase("k0")});
  ASSERT_TRUE(kv_.put("k0", "a"));
  expect_rejected(model, "reappeared");
}

TEST_F(KvOracleTest, RejectsASpuriousEntry) {
  KvModel model;
  acked(model, {put("k0", "a")});
  ASSERT_TRUE(kv_.put("k0", "a"));
  ASSERT_TRUE(kv_.put("stray", "x"));  // outside the keyspace
  expect_rejected(model, "spurious");
}

TEST(KvModelTest, OneUnitInFlightPerThread) {
  KvModel model;
  model.submit({put("k0", "a")}, 0);
  model.submit({put("k1", "b")}, 1);
  CheckThrowScope throw_scope;
  EXPECT_THROW(model.submit({put("k2", "c")}, 0), CheckFailure);
  EXPECT_THROW(model.ack(2), CheckFailure);
  model.ack(0);
  EXPECT_EQ(model.acked().at("k0"), "a");
  EXPECT_EQ(model.in_flight().size(), 1u);
}

TEST(KvDrawTest, FixedSeedReplaysByteForByte) {
  Rng a(42);
  Rng b(42);
  std::uint64_t tag_a = 0;
  std::uint64_t tag_b = 0;
  bool saw_put = false;
  for (int i = 0; i < 64; ++i) {
    const KvOp x = draw_op(a, "k", 140, 29, tag_a);
    const KvOp y = draw_op(b, "k", 140, 29, tag_b);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.value, y.value);
    if (x.kind != KvOpKind::kPut) {
      EXPECT_TRUE(x.value.empty());
      continue;
    }
    saw_put = true;
    EXPECT_LT(x.value.size(), 140u);
    for (std::size_t j = 0; j < x.value.size(); ++j) {
      EXPECT_EQ(static_cast<std::uint8_t>(x.value[j]),
                static_cast<std::uint8_t>(tag_a * 167 + j + 29));
    }
  }
  EXPECT_TRUE(saw_put);
}

}  // namespace
}  // namespace ccnvm::audit
