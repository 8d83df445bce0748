// Crash recovery hashes in batches: the tree check runs once for both TCB
// roots, the counter search tries one candidate of every unresolved block
// per tag_many wave, and the data-HMAC scans go a run of pages at a time,
// with the hashing spread over `recovery_jobs` workers. None of that may
// be observable: for every design and every attack shape below, the
// report and the repaired image are the same on every batch tier and for
// every worker count — and equal to the pinned digests, which the serial
// one-candidate-at-a-time search produced before batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attacks/injector.h"
#include "common/rng.h"
#include "core/design.h"
#include "crypto/dispatch.h"
#include "support/design_helpers.h"

namespace ccnvm {
namespace {

using testsupport::pattern_line;

std::uint64_t fold(std::uint64_t d, std::uint64_t v) {
  return splitmix64(d ^ splitmix64(v));
}

std::uint64_t fold_line(std::uint64_t d, const Line& line) {
  for (std::size_t i = 0; i < kLineSize; i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      word |= static_cast<std::uint64_t>(line[i + b]) << (8 * b);
    }
    d = fold(d, word);
  }
  return d;
}

/// Every field of the report, in order.
std::uint64_t report_digest(const core::RecoveryReport& r) {
  std::uint64_t d = 0x9e3779b97f4a7c15ULL;
  for (const bool flag : {r.clean, r.metadata_recovered, r.attack_detected,
                          r.attack_located, r.potential_replay,
                          r.data_dropped, r.unrecoverable}) {
    d = fold(d, flag ? 1 : 0);
  }
  d = fold(d, r.tampered_blocks.size());
  for (const Addr a : r.tampered_blocks) d = fold(d, a);
  d = fold(d, r.replayed_nodes.size());
  for (const nvm::NodeId& id : r.replayed_nodes) {
    d = fold(fold(d, id.level), id.index);
  }
  for (const std::uint64_t v :
       {r.total_retries, r.counters_recovered, r.rebuild_hash_ops,
        r.tree_nodes_rebuilt, r.ecc_checks}) {
    d = fold(d, v);
  }
  d = fold_line(d, r.recovered_root);
  for (const char c : r.detail) d = fold(d, static_cast<std::uint8_t>(c));
  return d;
}

/// Position-sensitive digest of every populated line.
std::uint64_t image_digest(const nvm::NvmImage& image) {
  std::vector<std::pair<Addr, Line>> lines;
  image.for_each_line(
      [&](Addr addr, const Line& value) { lines.emplace_back(addr, value); });
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t d = 0;
  for (const auto& [addr, value] : lines) d = fold_line(fold(d, addr), value);
  return d;
}

struct Scenario {
  const char* name;
  core::DesignKind kind;
  /// Drives the design to a crashed (and possibly attacked) image.
  std::function<void(core::SecureNvmBase&)> prepare;
  std::uint64_t want_report;
  std::uint64_t want_image;
  std::uint32_t update_limit = 16;
  std::uint64_t pages = 64;
  std::uint64_t meta_cache_lines = 32;  // evictions mid-run
};

/// Random write-backs over the first `blocks` lines of the image,
/// a third of them to eight hot lines so counters go stale by several
/// increments.
void scatter(core::SecureNvmBase& d, std::uint64_t seed, int ops,
             std::uint64_t blocks = 64 * kBlocksPerPage) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t line =
        rng.below(3) == 0 ? rng.below(8) * 97 : rng.below(blocks);
    d.write_back(line * kLineSize, pattern_line(seed * 10000 + i));
  }
}

std::vector<Scenario> scenarios() {
  return {
      {"ccnvm-stale-counters", core::DesignKind::kCcNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 1, 900);
         d.crash_power_loss();
       },
       5023997575716645800ULL,
       17755536340713036682ULL},
      {"ccnvm-spoof-and-splice", core::DesignKind::kCcNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 2, 700);
         d.write_back(5 * kLineSize, pattern_line(7));  // a cold block
         for (std::uint64_t i = 0; i < 115; ++i) {  // minor near the top
           d.write_back(200 * kLineSize, pattern_line(i));
         }
         d.crash_power_loss();
         // Line 200's candidates leave the 7-bit minor range a few waves
         // in, long before the other failures exhaust N; the report must
         // still list every failure in address order.
         Rng rng(5);
         attacks::spoof_data(d, 97 * kLineSize, rng);
         attacks::spoof_data(d, 5 * kLineSize, rng);
         attacks::spoof_data(d, 200 * kLineSize, rng);
         attacks::splice_data(d, 0, 2 * 97 * kLineSize);
       },
       6554816232948917447ULL,
       485723992749452287ULL},
      {"ccnvm-replayed-node", core::DesignKind::kCcNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 3, 400);
         d.quiesce();
         const nvm::NvmImage before = d.image().snapshot();
         scatter(d, 4, 400);
         d.quiesce();
         d.crash_power_loss();
         attacks::replay_node(d, before, {1, 2});
       },
       3293978598770846938ULL,
       6403537757275889888ULL},
      {"ccnvm-overflow-window", core::DesignKind::kCcNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 5, 300);
         d.quiesce();
         for (std::uint64_t i = 0; i < 130; ++i) {  // one overflow
           d.write_back(3 * kPageSize + 7 * kLineSize, pattern_line(i));
         }
         EXPECT_TRUE(d.tcb().overflow_pending);
         d.crash_power_loss();
       },
       2384056293881352013ULL,
       4991818006022150365ULL, /*update_limit=*/200},
      {"ccnvm-plus-epoch-replay", core::DesignKind::kCcNvmPlus,
       [](core::SecureNvmBase& d) {
         scatter(d, 6, 300);
         d.quiesce();
         d.write_back(5 * kLineSize, pattern_line(1));
         const nvm::NvmImage before = d.image().snapshot();
         d.write_back(5 * kLineSize, pattern_line(2));
         d.crash_power_loss();
         attacks::replay_data(d, before, 5 * kLineSize);
       },
       107265617142161848ULL,
       16959998042299941502ULL},
      {"osiris-ecc-oracle", core::DesignKind::kOsirisPlus,
       [](core::SecureNvmBase& d) {
         scatter(d, 7, 900);
         d.crash_power_loss();
       },
       16721785553793838315ULL,
       13758280434265455171ULL},
      {"strict-spoofed", core::DesignKind::kStrict,
       [](core::SecureNvmBase& d) {
         scatter(d, 8, 500);
         d.crash_power_loss();
         Rng rng(9);
         attacks::spoof_data(d, 97 * kLineSize, rng);
       },
       16610229921304756118ULL,
       8673277533596706233ULL},
      {"triad-spoofed", core::DesignKind::kTriadNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 10, 500);
         d.crash_power_loss();
         Rng rng(11);
         attacks::spoof_dh(d, 2 * 97 * kLineSize, rng);
       },
       5121636640947252136ULL,
       15658533092554048234ULL},
      {"phoenix-clean", core::DesignKind::kPhoenix,
       [](core::SecureNvmBase& d) {
         scatter(d, 12, 500);
         d.crash_power_loss();
       },
       6315247346922716752ULL,
       4953094743580542239ULL},
      {"strict-clean", core::DesignKind::kStrict,
       [](core::SecureNvmBase& d) {
         scatter(d, 13, 500);
         d.crash_power_loss();
       },
       2741649396779412214ULL,
       5535139869116136135ULL},
      {"strict-counter-replay", core::DesignKind::kStrict,
       [](core::SecureNvmBase& d) {
         scatter(d, 14, 300);
         const nvm::NvmImage before = d.image().snapshot();
         // Blocks 1 and 5 of page 3 move past the snapshot's counters, so
         // the replayed counter line fails both the tree check (page 3)
         // and the data-HMAC scan (its two blocks): the report's order
         // of the two kinds of finding is pinned.
         d.write_back(3 * kPageSize + 1 * kLineSize, pattern_line(1));
         d.write_back(3 * kPageSize + 5 * kLineSize, pattern_line(2));
         d.crash_power_loss();
         attacks::replay_counter(d, before, 3 * kPageSize);
       },
       5313336951274580858ULL,
       11293627354918062437ULL},
      // Frontier 1 of the 64-page tree (root level 3): recovery rebuilds
      // level 2 and writes it back into the image.
      {"triad-clean", core::DesignKind::kTriadNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 15, 500);
         d.crash_power_loss();
       },
       16365228897454591129ULL,
       6142320766120675980ULL},
      {"phoenix-spoofed", core::DesignKind::kPhoenix,
       [](core::SecureNvmBase& d) {
         scatter(d, 16, 500);
         d.crash_power_loss();
         Rng rng(17);
         attacks::spoof_data(d, 3 * 97 * kLineSize, rng);
       },
       9289610958321441746ULL,
       16187252858506164739ULL},
      // 1 024 pages make four 256-page scan runs, so the counter search
      // overlaps one run's hashing with the next run's scan. Stale
      // counters sit in every run, and the overflow page is in run 2:
      // its serial search runs inside the scan of that run.
      {"ccnvm-four-runs-late-overflow", core::DesignKind::kCcNvm,
       [](core::SecureNvmBase& d) {
         scatter(d, 18, 600, 1024 * kBlocksPerPage);
         d.quiesce();
         for (std::uint64_t i = 0; i < 24; ++i) {
           d.write_back(41 * kPageSize + 5 * kLineSize, pattern_line(i));
           d.write_back(303 * kPageSize + 9 * kLineSize, pattern_line(i));
           if (i % 3 == 0) {
             d.write_back(613 * kPageSize + 1 * kLineSize, pattern_line(i));
           }
           d.write_back(899 * kPageSize + 2 * kLineSize, pattern_line(i));
         }
         for (std::uint64_t i = 0; i < 130; ++i) {  // one overflow
           d.write_back(600 * kPageSize + 7 * kLineSize, pattern_line(i));
         }
         EXPECT_TRUE(d.tcb().overflow_pending);
         EXPECT_EQ(d.tcb().overflow_leaf, 600u);
         d.crash_power_loss();
       },
       8418956410968666834ULL,
       9369423462826156900ULL, /*update_limit=*/200, /*pages=*/1024,
       // Roomy enough that no dirty eviction drains the stale counters.
       /*meta_cache_lines=*/512},
      // The same four runs through the data-HMAC scan that SC, Triad-NVM
      // and Phoenix share, with spoofed blocks in the first and the last run.
      {"phoenix-four-runs-spoofed", core::DesignKind::kPhoenix,
       [](core::SecureNvmBase& d) {
         scatter(d, 19, 600, 1024 * kBlocksPerPage);
         d.write_back(800 * kPageSize + 3 * kLineSize, pattern_line(1));
         d.crash_power_loss();
         Rng rng(20);
         attacks::spoof_data(d, 3 * 97 * kLineSize, rng);
         attacks::spoof_data(d, 800 * kPageSize + 3 * kLineSize, rng);
       },
       2115405397720764156ULL,
       8950421632654781911ULL, /*update_limit=*/16, /*pages=*/1024,
       /*meta_cache_lines=*/512},
  };
}

struct Outcome {
  std::uint64_t report = 0;
  std::uint64_t image = 0;
  std::string detail;
};

Outcome run(const Scenario& s, std::size_t jobs) {
  core::DesignConfig c = testsupport::small_design_config(
      /*daq_entries=*/64, s.update_limit);
  c.meta_cache_bytes = s.meta_cache_lines * kLineSize;
  c.meta_cache_ways = 4;
  c.recovery_jobs = jobs;
  c.data_capacity = s.pages * kPageSize;
  auto design = core::make_design(s.kind, c);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  EXPECT_NE(base, nullptr);
  s.prepare(*base);
  const core::RecoveryReport report = design->recover();
  return {report_digest(report), image_digest(base->image()), report.detail};
}

TEST(RecoveryBatchTest, ReportAndImageMatchSerialSearchOnEveryTierAndJobs) {
  const crypto::Sha1ManyImpl saved = crypto::active_sha1_many_impl();
  for (const Scenario& s : scenarios()) {
    for (const crypto::Sha1ManyImpl impl :
         crypto::available_sha1_many_impls()) {
      crypto::force_sha1_many_impl(impl);
      // 1 = inline, 3 = a fixed fan-out, and the default (auto: the
      // process-wide pool at the hardware concurrency).
      for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                     core::DesignConfig{}.recovery_jobs}) {
        const Outcome got = run(s, jobs);
        EXPECT_EQ(got.report, s.want_report)
            << s.name << " tier=" << crypto::impl_name(impl)
            << " jobs=" << jobs << " detail: " << got.detail;
        EXPECT_EQ(got.image, s.want_image)
            << s.name << " tier=" << crypto::impl_name(impl)
            << " jobs=" << jobs;
      }
    }
  }
  crypto::force_sha1_many_impl(saved);
}

}  // namespace
}  // namespace ccnvm
