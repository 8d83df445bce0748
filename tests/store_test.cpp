// Functional tests for the KV service layer: probing, multi-line values,
// tombstone reuse, fullness behaviour, and the open() scan-rebuild path.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/cc_nvm.h"
#include "core/design.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"
#include "support/design_helpers.h"
#include "support/store_helpers.h"
#include "trace/ycsb.h"

namespace ccnvm::store {
namespace {

using testsupport::small_design_config;
using testsupport::small_store_config;
using testsupport::value_of;

TEST(StoreConfigTest, FootprintArithmetic) {
  const StoreConfig cfg = small_store_config();
  EXPECT_EQ(cfg.lines_per_shard(), 256u);
  EXPECT_EQ(cfg.footprint_bytes(), 2u * 256u * kLineSize);
}

TEST(StoreConfigTest, SizedForFitsItsAdvertisedLoad) {
  const StoreConfig cfg = StoreConfig::sized_for(500, 100, 4);
  cfg.validate();
  // Room for every key even if they all hashed into one shard would be
  // too strong; but per-shard slack must cover an even spread twice over.
  EXPECT_GE(cfg.buckets_per_shard * cfg.shards, 2u * 500u);
  const std::uint64_t lines_per_value = (100 + kLineSize - 1) / kLineSize;
  EXPECT_GE(cfg.heap_lines_per_shard * cfg.shards,
            2u * 500u * lines_per_value);
}

TEST(StoreConfigTest, ValidateRejectsZeroShards) {
  const CheckThrowScope throw_scope;
  StoreConfig cfg = small_store_config();
  cfg.shards = 0;
  EXPECT_THROW(cfg.validate(), CheckFailure);
}

TEST(StoreConfigTest, ValidateRejectsHeapTooSmallForOneValue) {
  const CheckThrowScope throw_scope;
  StoreConfig cfg = small_store_config();
  cfg.heap_lines_per_shard = 0;
  EXPECT_THROW(cfg.validate(), CheckFailure);
}

TEST(StoreTest, PutGetEraseRoundTrip) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());

  EXPECT_TRUE(kv.put("alpha", "one"));
  EXPECT_TRUE(kv.put("beta", "two"));
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.get("alpha").value(), "one");
  EXPECT_EQ(kv.get("beta").value(), "two");
  EXPECT_FALSE(kv.get("gamma").has_value());

  EXPECT_TRUE(kv.erase("alpha"));
  EXPECT_FALSE(kv.erase("alpha"));
  EXPECT_FALSE(kv.get("alpha").has_value());
  EXPECT_EQ(kv.size(), 1u);
}

TEST(StoreTest, UpdateReplacesValueWithoutGrowingTheTable) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());
  EXPECT_TRUE(kv.put("k", "short"));
  EXPECT_TRUE(kv.put("k", value_of(200, 'a')));
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.get("k").value(), value_of(200, 'a'));
  EXPECT_EQ(kv.stats().inserts, 1u);
  EXPECT_EQ(kv.stats().updates, 1u);
}

TEST(StoreTest, MultiLineAndEmptyValues) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());
  const std::string big = value_of(3 * kLineSize + 17, 'x');
  EXPECT_TRUE(kv.put("big", big));
  EXPECT_TRUE(kv.put("empty", ""));
  EXPECT_EQ(kv.get("big").value(), big);
  EXPECT_EQ(kv.get("empty").value(), "");
}

TEST(StoreTest, RejectsOversizeKeyAndValueWithoutMutation) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());
  const std::string long_key(SecureKvStore::kMaxKeyBytes + 1, 'k');
  EXPECT_FALSE(kv.put(long_key, "v"));
  const std::string long_value(SecureKvStore::kMaxValueBytes + 1, 'v');
  EXPECT_FALSE(kv.put("k", long_value));
  // Headers encode klen in 1..48, so the empty key is rejected too.
  EXPECT_FALSE(kv.put("", "v"));
  EXPECT_FALSE(kv.get("").has_value());
  EXPECT_FALSE(kv.erase(""));
  EXPECT_EQ(kv.stats().failed_puts, 3u);
  EXPECT_EQ(kv.size(), 0u);
}

TEST(StoreTest, FullShardFailsPutGracefully) {
  // 2 shards x 4 buckets: ~8 keys saturate the table; the put that finds
  // its shard full must return false and leave the store readable.
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  StoreConfig cfg = small_store_config();
  cfg.buckets_per_shard = 4;
  SecureKvStore kv(design, cfg);

  std::vector<std::string> kept;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (kv.put(key, "v")) kept.push_back(key);
  }
  EXPECT_LE(kept.size(), 8u);
  EXPECT_GT(kv.stats().failed_puts, 0u);
  for (const std::string& key : kept) {
    EXPECT_EQ(kv.get(key).value(), "v") << key;
  }
}

TEST(StoreTest, HeapExhaustionFailsPutGracefully) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  StoreConfig cfg = small_store_config();
  cfg.heap_lines_per_shard = 4;
  SecureKvStore kv(design, cfg);
  const std::string big = value_of(4 * kLineSize, 'h');
  int stored = 0;
  for (int i = 0; i < 8; ++i) {
    if (kv.put("h" + std::to_string(i), big)) ++stored;
  }
  EXPECT_LT(stored, 8);
  EXPECT_GT(kv.stats().failed_puts, 0u);
}

TEST(StoreTest, TombstonesAreReusedByLaterInserts) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  StoreConfig cfg = small_store_config();
  cfg.buckets_per_shard = 8;
  SecureKvStore kv(design, cfg);
  // Churn far past the bucket count: without tombstone reuse the table
  // would wedge.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i) {
      const std::string key = "churn-" + std::to_string(i);
      ASSERT_TRUE(kv.put(key, value_of(70, static_cast<char>('a' + i))));
    }
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(kv.erase("churn-" + std::to_string(i)));
    }
  }
  EXPECT_EQ(kv.size(), 0u);
}

TEST(StoreTest, HeapLinesAreRecycled) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());
  // Alloc/free churn of multi-line extents with a working set far larger
  // than the heap: only recycling makes this succeed.
  for (int round = 0; round < 50; ++round) {
    const std::string key = "cycle";
    ASSERT_TRUE(kv.put(key, value_of(3 * kLineSize, 'r')));
    ASSERT_TRUE(kv.erase(key));
  }
  EXPECT_EQ(kv.size(), 0u);
}

TEST(StoreTest, ForEachSeesExactlyTheLiveEntries) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  SecureKvStore kv(design, small_store_config());
  ASSERT_TRUE(kv.put("a", "1"));
  ASSERT_TRUE(kv.put("b", "2"));
  ASSERT_TRUE(kv.put("c", "3"));
  ASSERT_TRUE(kv.erase("b"));
  std::map<std::string, std::string> seen;
  kv.for_each([&](std::string_view k, std::string_view v) {
    seen.emplace(std::string(k), std::string(v));
  });
  const std::map<std::string, std::string> want{{"a", "1"}, {"c", "3"}};
  EXPECT_EQ(seen, want);
}

TEST(StoreTest, OpenRebuildsStateAfterQuiesce) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  const StoreConfig cfg = small_store_config();
  const std::string big = value_of(150, 'p');
  {
    SecureKvStore kv(design, cfg);
    ASSERT_TRUE(kv.put("persist", big));
    ASSERT_TRUE(kv.put("gone", "x"));
    ASSERT_TRUE(kv.erase("gone"));
    kv.checkpoint();
  }
  SecureKvStore reopened = SecureKvStore::open(design, cfg);
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.get("persist").value(), big);
  EXPECT_FALSE(reopened.get("gone").has_value());
  // The rebuilt allocator must keep working: churn after reopen.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(reopened.put("post-" + std::to_string(i), value_of(100, 'q')));
  }
  EXPECT_EQ(reopened.size(), 21u);
}

TEST(StoreTest, OpenAfterCrashRecovery) {
  core::CcNvmDesign design(small_design_config(), /*deferred_spreading=*/true);
  const StoreConfig cfg = small_store_config();
  SecureKvStore kv(design, cfg);
  ASSERT_TRUE(kv.put("stable", "before-crash"));
  kv.checkpoint();
  ASSERT_TRUE(kv.put("late", "after-checkpoint"));

  design.crash_power_loss();
  const core::RecoveryReport report = design.recover();
  ASSERT_TRUE(report.clean);

  SecureKvStore reopened = SecureKvStore::open(design, cfg);
  EXPECT_EQ(reopened.get("stable").value(), "before-crash");
  // Data persists through ADR as written, so even the unchecked-pointed
  // acknowledged put survives (§4.2: epochs batch only metadata).
  EXPECT_EQ(reopened.get("late").value(), "after-checkpoint");
}

TEST(StoreTest, WorksOnEveryDesign) {
  for (const core::DesignKind kind :
       {core::DesignKind::kWoCc, core::DesignKind::kStrict,
        core::DesignKind::kOsirisPlus, core::DesignKind::kCcNvmNoDs,
        core::DesignKind::kCcNvm, core::DesignKind::kCcNvmPlus}) {
    auto design = core::make_design(kind, small_design_config());
    auto& base = dynamic_cast<core::SecureNvmBase&>(*design);
    SecureKvStore kv(base, small_store_config());
    ASSERT_TRUE(kv.put("k", value_of(90, 'd'))) << design->name();
    EXPECT_EQ(kv.get("k").value(), value_of(90, 'd')) << design->name();
    ASSERT_TRUE(kv.erase("k")) << design->name();
    kv.checkpoint();
  }
}

TEST(StoreTest, CapacityForYieldsAValidGeometry) {
  const StoreConfig cfg = StoreConfig::sized_for(200, 100, 2);
  const std::uint64_t capacity = capacity_for(cfg);
  EXPECT_GE(capacity, cfg.footprint_bytes());
  core::DesignConfig dcfg;
  dcfg.data_capacity = capacity;
  core::CcNvmDesign design(dcfg, /*deferred_spreading=*/true);  // layout CHECKs pages
  SecureKvStore kv(design, cfg);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(kv.put("cap-" + std::to_string(i), value_of(100, 'c')));
  }
}

TEST(StoreTest, YcsbRunnerExecutesAWorkloadEndToEnd) {
  const trace::YcsbWorkload workload = trace::ycsb_by_name("ycsb-a");
  trace::YcsbWorkload small = workload;
  small.record_count = 64;
  const StoreConfig cfg = StoreConfig::sized_for(
      small.record_count + 64, SecureKvStore::kMaxKeyBytes + 100, 2);
  core::DesignConfig dcfg;
  dcfg.data_capacity = capacity_for(cfg);
  core::CcNvmDesign design(dcfg, /*deferred_spreading=*/true);
  YcsbRunOptions options;
  options.ops = 200;
  const YcsbRunResult r = run_ycsb_workload(design, cfg, small, options);
  EXPECT_EQ(r.ops, 200u);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.mutations, 0u);
  EXPECT_GT(r.traffic.total_writes(), 0u);
  EXPECT_GT(r.ops_per_sec(), 0.0);
  EXPECT_GT(r.writes_per_op(), 0.0);
}


/// A kvbench-style payload: `bytes` pseudo-random bytes fixed by
/// (key id, version).
std::string versioned_value(std::uint64_t key_id, std::uint64_t version,
                            std::size_t bytes) {
  std::string v(bytes, '\0');
  const std::uint64_t tag = derive_seed(1, key_id, version);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(
        static_cast<std::uint8_t>(splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

/// The crashed-store reopen at a quarter of kvbench `restart`'s size: a
/// 16 384-key cc-NVM store, 4 096 unquiesced zipf updates through the
/// bare store, then a power cut. Recovery must be clean (no false "data
/// HMAC exhausted" attack report) and every acknowledged value must read
/// back.
class SmallCrashedStoreTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SmallCrashedStoreTest, RecoversCleanWithEveryAckedValue) {
  constexpr std::uint64_t kRecords = 16384;
  constexpr std::uint64_t kUpdates = 4096;
  trace::YcsbWorkload w = trace::ycsb_by_name("ycsb-a");
  const StoreConfig cfg =
      StoreConfig::sized_for(kRecords, w.value_bytes, /*shards=*/1);
  core::DesignConfig dc;
  dc.data_capacity = capacity_for(cfg);
  dc.update_limit = 1u << 20;
  dc.daq_entries = 1024;
  dc.wpq_entries = 1024;
  core::CcNvmDesign design(dc, /*deferred_spreading=*/true);

  std::map<std::string, std::string> acked;
  SecureKvStore kv(design, cfg);
  for (std::uint64_t id = 0; id < kRecords; ++id) {
    const std::string key = trace::YcsbGenerator::key_name(id);
    std::string value = versioned_value(id, 0, w.value_bytes);
    ASSERT_TRUE(kv.put(key, value));
    acked[key] = std::move(value);
  }
  kv.checkpoint();
  w.read_prop = 0.0;
  w.update_prop = 1.0;
  w.record_count = kRecords;
  trace::YcsbGenerator gen(w, derive_seed(GetParam(), 0x4e57));
  for (std::uint64_t i = 0; i < kUpdates; ++i) {
    const trace::KvOp op = gen.next();
    const std::string key = trace::YcsbGenerator::key_name(op.key_id);
    std::string value = versioned_value(op.key_id, i + 1, op.value_bytes);
    ASSERT_TRUE(kv.put(key, value));
    acked[key] = std::move(value);
  }

  design.crash_power_loss();
  const core::RecoveryReport report = design.recover();
  ASSERT_TRUE(report.clean) << report.detail;
  ASSERT_TRUE(report.metadata_recovered);
  SecureKvStore reopened = SecureKvStore::open(design, cfg);
  EXPECT_EQ(reopened.size(), kRecords);
  for (const auto& [key, value] : acked) {
    const std::optional<std::string> got = reopened.get(key);
    ASSERT_TRUE(got.has_value()) << key;
    ASSERT_EQ(*got, value) << key;
  }
}

// kvbench's README once listed seeds 1 and 4 at this size as failing.
INSTANTIATE_TEST_SUITE_P(Seeds, SmallCrashedStoreTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ccnvm::store
