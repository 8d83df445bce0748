// The multi-lane batching of the drain / re-encryption / scan paths is a
// pure software optimization: forcing the serial vs AVX2 batch tier, or
// modeling 1 vs 8 HMAC lanes, must leave every NVM image bit-identical —
// only the modeled drain cycles may move (and only downward with more
// lanes). Likewise read_blocks must be observationally equal to a
// read_block loop: same plaintexts, same latencies, same stats, same
// alert order — including when the image has been tampered with.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/design.h"
#include "crypto/dispatch.h"
#include "store/kv_store.h"

namespace ccnvm {
namespace {

core::DesignConfig drain_heavy_config(std::uint64_t hmac_lanes) {
  core::DesignConfig cfg;
  cfg.data_capacity = 1ull << 20;  // 256 pages
  cfg.daq_entries = 16;            // drains fire on queue pressure
  cfg.update_limit = 8;            // and on the §4.2 update limit
  cfg.wpq_entries = 32;
  cfg.timing.hmac_lanes = hmac_lanes;
  return cfg;
}

store::StoreConfig small_store_config() {
  store::StoreConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.heap_lines_per_shard = 256;
  return cfg;
}

/// Order-insensitive position-sensitive fold over the sorted populated
/// lines: equal digests mean byte-equal NVM images.
std::uint64_t image_digest(const nvm::NvmImage& image) {
  std::vector<std::pair<Addr, Line>> lines;
  image.for_each_line(
      [&](Addr addr, const Line& value) { lines.emplace_back(addr, value); });
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t d = 0x9e3779b97f4a7c15ULL;
  for (const auto& [addr, value] : lines) {
    d = splitmix64(d ^ splitmix64(addr));
    for (std::size_t i = 0; i < kLineSize; i += 8) {
      std::uint64_t word = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        word |= static_cast<std::uint64_t>(value[i + b]) << (8 * b);
      }
      d = splitmix64(d ^ word);
    }
  }
  return d;
}

struct WorkloadOutcome {
  std::uint64_t digest = 0;
  std::uint64_t drains = 0;
  std::uint64_t drain_cycles = 0;
  std::uint64_t hmac_ops = 0;
};

/// Fixed-seed KV workload on cc-NVM: enough puts/erases over few pages
/// to force DAQ-pressure and update-limit drains, then a quiesce so the
/// image reflects the committed state.
WorkloadOutcome run_drain_workload(std::uint64_t hmac_lanes) {
  auto design =
      core::make_design(core::DesignKind::kCcNvm, drain_heavy_config(hmac_lanes));
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  EXPECT_NE(base, nullptr);
  store::SecureKvStore kv(*base, small_store_config());
  Rng rng(2024);
  for (int op = 0; op < 400; ++op) {
    const std::string key = "k" + std::to_string(rng.below(48));
    if (rng.below(10) < 7) {
      std::string value(1 + rng.below(120), 'x');
      for (auto& c : value) {
        c = static_cast<char>('a' + rng.below(26));
      }
      EXPECT_TRUE(kv.put(key, value));
    } else {
      kv.erase(key);
    }
  }
  base->quiesce();
  WorkloadOutcome out;
  out.digest = image_digest(base->image());
  out.drains = base->stats().drains;
  out.drain_cycles = base->stats().drain_cycles;
  out.hmac_ops = base->stats().hmac_ops;
  return out;
}

TEST(DrainPipelineTest, ImageBitIdenticalAcrossBatchTiersAndLanes) {
  const crypto::Sha1ManyImpl saved = crypto::active_sha1_many_impl();
  std::vector<WorkloadOutcome> outcomes;
  for (const crypto::Sha1ManyImpl impl : crypto::available_sha1_many_impls()) {
    crypto::force_sha1_many_impl(impl);
    for (const std::uint64_t lanes : {1ull, 8ull}) {
      outcomes.push_back(run_drain_workload(lanes));
    }
  }
  crypto::force_sha1_many_impl(saved);
  ASSERT_GE(outcomes.size(), 2u);
  EXPECT_GT(outcomes[0].drains, 4u);  // the workload actually drained
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].digest, outcomes[0].digest) << "config " << i;
    EXPECT_EQ(outcomes[i].drains, outcomes[0].drains) << "config " << i;
    EXPECT_EQ(outcomes[i].hmac_ops, outcomes[0].hmac_ops) << "config " << i;
  }
}

TEST(DrainPipelineTest, MoreLanesOnlyShrinkDrainCycles) {
  const WorkloadOutcome one = run_drain_workload(1);
  const WorkloadOutcome eight = run_drain_workload(8);
  EXPECT_EQ(one.digest, eight.digest);
  EXPECT_GT(one.drain_cycles, 0u);
  // ceil(edges/8) strictly beats edges whenever a drain tracked > 1 edge.
  EXPECT_LT(eight.drain_cycles, one.drain_cycles);
}

// --- read_blocks equivalence --------------------------------------------

/// Builds a design with a deterministic population of written blocks and
/// one tampered data line, so batch and serial readers can be compared
/// on fresh-but-identical instances.
struct ReadFixture {
  std::unique_ptr<core::SecureNvmDesign> design;
  core::SecureNvmBase* base = nullptr;
  std::vector<Addr> addrs;  // written + unwritten + the tampered block
};

ReadFixture make_read_fixture() {
  ReadFixture f;
  core::DesignConfig cfg;
  cfg.data_capacity = 1ull << 20;
  f.design = core::make_design(core::DesignKind::kCcNvm, cfg);
  f.base = dynamic_cast<core::SecureNvmBase*>(f.design.get());
  Rng rng(77);
  std::vector<Addr> written;
  for (int i = 0; i < 48; ++i) {
    const Addr addr = (rng.below(200) * 5 + static_cast<Addr>(i)) * kLineSize;
    Line pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    f.base->write_back(addr, pt);
    written.push_back(addr);
  }
  f.base->quiesce();
  // Tamper one written ciphertext behind the controller's back.
  const Addr victim = written[7];
  Line ct = f.base->image().read_line(victim);
  ct[13] ^= 0x40;
  f.base->image().restore_line(victim, ct);
  // Read set: every written block (incl. the victim, twice) plus
  // never-written holes.
  f.addrs = written;
  f.addrs.push_back(victim);
  f.addrs.push_back((1ull << 19) + 64 * kLineSize);
  f.addrs.push_back(3 * kLineSize);
  return f;
}

TEST(BatchReadTest, ReadBlocksMatchesSerialLoopIncludingAlertOrder) {
  ReadFixture serial = make_read_fixture();
  ReadFixture batched = make_read_fixture();

  std::vector<core::ReadResult> expect;
  expect.reserve(serial.addrs.size());
  for (const Addr a : serial.addrs) {
    expect.push_back(serial.base->read_block(a));
  }
  const std::vector<core::ReadResult> got =
      batched.base->read_blocks(batched.addrs);

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].plaintext, expect[i].plaintext) << "i=" << i;
    EXPECT_EQ(got[i].latency, expect[i].latency) << "i=" << i;
    EXPECT_EQ(got[i].integrity_ok, expect[i].integrity_ok) << "i=" << i;
  }
  // The tampered block was read twice: two alerts, same order, same
  // positions as the serial loop produced.
  EXPECT_EQ(batched.base->alerts(), serial.base->alerts());
  EXPECT_EQ(batched.base->stats().runtime_alerts,
            serial.base->stats().runtime_alerts);
  EXPECT_GE(serial.base->stats().runtime_alerts, 2u);
  EXPECT_EQ(batched.base->stats().reads, serial.base->stats().reads);
  EXPECT_EQ(batched.base->stats().hmac_ops, serial.base->stats().hmac_ops);
  EXPECT_EQ(batched.base->stats().read_latency_cycles,
            serial.base->stats().read_latency_cycles);
}

/// Every DesignStats field, for whole-struct equality.
void expect_same_stats(const core::DesignStats& a, const core::DesignStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.write_backs, b.write_backs) << where;
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.drains, b.drains) << where;
  EXPECT_EQ(a.drains_by_trigger, b.drains_by_trigger) << where;
  EXPECT_EQ(a.page_reencryptions, b.page_reencryptions) << where;
  EXPECT_EQ(a.hmac_ops, b.hmac_ops) << where;
  EXPECT_EQ(a.aes_ops, b.aes_ops) << where;
  EXPECT_EQ(a.online_counter_recoveries, b.online_counter_recoveries)
      << where;
  EXPECT_EQ(a.engine_busy_cycles, b.engine_busy_cycles) << where;
  EXPECT_EQ(a.drain_cycles, b.drain_cycles) << where;
  EXPECT_EQ(a.read_latency_cycles, b.read_latency_cycles) << where;
  EXPECT_EQ(a.runtime_alerts, b.runtime_alerts) << where;
}

/// A chunk of written blocks over a cold, tiny Meta Cache, with one data
/// line and one counter line tampered behind the controller's back. Every
/// fetch of the tampered counter line fails its tree check mid-chunk, so
/// the deferred data-HMAC failures must interleave with metadata alerts.
ReadFixture make_tampered_chunk(std::size_t jobs) {
  ReadFixture f;
  core::DesignConfig cfg;
  cfg.data_capacity = 1ull << 20;
  cfg.meta_cache_bytes = 4 * kLineSize;  // nearly every counter misses
  cfg.meta_cache_ways = 2;
  cfg.recovery_jobs = jobs;
  f.design = core::make_design(core::DesignKind::kCcNvm, cfg);
  f.base = dynamic_cast<core::SecureNvmBase*>(f.design.get());
  Rng rng(91);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Addr addr = (i * 13 % 4096) * kLineSize;
    Line pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    f.base->write_back(addr, pt);
    f.addrs.push_back(addr);
  }
  f.base->quiesce();
  const Addr data_victim = f.addrs[40];
  Line ct = f.base->image().read_line(data_victim);
  ct[5] ^= 0x11;
  f.base->image().restore_line(data_victim, ct);
  const Addr counter_victim = f.base->layout().counter_line_addr(f.addrs[200]);
  Line counters = f.base->image().read_line(counter_victim);
  counters[0] ^= 0x02;
  f.base->image().restore_line(counter_victim, counters);
  f.addrs.push_back(data_victim);  // a second failing read of the victim
  return f;
}

TEST(BatchReadTest, TamperedChunkMatchesSerialLoopAtEveryJobs) {
  for (const std::size_t jobs :
       {std::size_t{1}, core::DesignConfig{}.recovery_jobs}) {
    const std::string where = "jobs=" + std::to_string(jobs);
    ReadFixture serial = make_tampered_chunk(jobs);
    ReadFixture batched = make_tampered_chunk(jobs);
    std::vector<core::ReadResult> expect;
    for (const Addr a : serial.addrs) {
      expect.push_back(serial.base->read_block(a));
    }
    const std::vector<core::ReadResult> got =
        batched.base->read_blocks(batched.addrs);
    ASSERT_EQ(got.size(), expect.size()) << where;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].plaintext, expect[i].plaintext) << where << " i=" << i;
      EXPECT_EQ(got[i].latency, expect[i].latency) << where << " i=" << i;
      EXPECT_EQ(got[i].integrity_ok, expect[i].integrity_ok)
          << where << " i=" << i;
      failed += expect[i].integrity_ok ? 0 : 1;
    }
    EXPECT_EQ(failed, 2u) << where << ": both reads of the data victim fail";
    EXPECT_GT(serial.base->alerts().size(), failed)
        << where << ": the counter's tree check must alert too";
    EXPECT_EQ(batched.base->alerts(), serial.base->alerts()) << where;
    expect_same_stats(batched.base->stats(), serial.base->stats(), where);
  }
}

TEST(BatchReadTest, ReadBlocksAgreesAcrossBatchTiers) {
  const crypto::Sha1ManyImpl saved = crypto::active_sha1_many_impl();
  std::vector<std::vector<core::ReadResult>> per_tier;
  std::vector<std::vector<Addr>> per_tier_alerts;
  for (const crypto::Sha1ManyImpl impl : crypto::available_sha1_many_impls()) {
    crypto::force_sha1_many_impl(impl);
    ReadFixture f = make_read_fixture();
    per_tier.push_back(f.base->read_blocks(f.addrs));
    per_tier_alerts.push_back(f.base->alerts());
  }
  crypto::force_sha1_many_impl(saved);
  for (std::size_t t = 1; t < per_tier.size(); ++t) {
    ASSERT_EQ(per_tier[t].size(), per_tier[0].size());
    for (std::size_t i = 0; i < per_tier[t].size(); ++i) {
      EXPECT_EQ(per_tier[t][i].plaintext, per_tier[0][i].plaintext);
      EXPECT_EQ(per_tier[t][i].integrity_ok, per_tier[0][i].integrity_ok);
    }
    EXPECT_EQ(per_tier_alerts[t], per_tier_alerts[0]);
  }
}

}  // namespace
}  // namespace ccnvm
