// Behavioural tests every secure-NVM design must pass: encrypted
// write/read round-trips, metadata-cache pressure, counter overflow,
// traffic accounting, and runtime integrity auditing.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cc_nvm.h"
#include "core/design.h"

namespace ccnvm::core {
namespace {

Line pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 131 + i);
  }
  return l;
}

DesignConfig small_config() {
  DesignConfig cfg;
  cfg.data_capacity = 64 * kPageSize;  // 64 pages, root level 3
  cfg.functional = true;
  return cfg;
}

class DesignTest : public ::testing::TestWithParam<DesignKind> {
 protected:
  std::unique_ptr<SecureNvmDesign> make(const DesignConfig& cfg) {
    return make_design(GetParam(), cfg);
  }
};

TEST_P(DesignTest, WriteReadRoundTrip) {
  auto design = make(small_config());
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Addr addr = i * 3 * kLineSize % design->layout().data_capacity();
    design->write_back(line_base(addr), pattern_line(i));
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Addr addr = i * 3 * kLineSize % design->layout().data_capacity();
    const ReadResult r = design->read_block(line_base(addr));
    EXPECT_TRUE(r.integrity_ok);
    EXPECT_EQ(r.plaintext, pattern_line(i)) << "block " << i;
  }
}

TEST_P(DesignTest, CiphertextDiffersFromPlaintext) {
  auto design = make(small_config());
  const Line pt = pattern_line(7);
  design->write_back(0, pt);
  EXPECT_NE(design->image().read_line(0), pt)
      << "data must not be stored in the clear";
}

TEST_P(DesignTest, UnwrittenBlockReadsZero) {
  auto design = make(small_config());
  const ReadResult r = design->read_block(5 * kPageSize);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.plaintext, zero_line());
}

TEST_P(DesignTest, OverwriteReturnsLatest) {
  auto design = make(small_config());
  design->write_back(0x40, pattern_line(1));
  design->write_back(0x40, pattern_line(2));
  design->write_back(0x40, pattern_line(3));
  EXPECT_EQ(design->read_block(0x40).plaintext, pattern_line(3));
}

TEST_P(DesignTest, SameValueDifferentCiphertextOverTime) {
  // Temporal seed uniqueness: re-writing identical plaintext must yield a
  // different ciphertext (counter advanced).
  auto design = make(small_config());
  design->write_back(0x80, pattern_line(9));
  const Line ct1 = design->image().read_line(0x80);
  design->write_back(0x80, pattern_line(9));
  const Line ct2 = design->image().read_line(0x80);
  EXPECT_NE(ct1, ct2);
}

TEST_P(DesignTest, AuditCleanAfterQuiesce) {
  auto design = make(small_config());
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Addr addr =
        rng.below(design->layout().data_capacity() / kLineSize) * kLineSize;
    design->write_back(addr, pattern_line(rng.next()));
  }
  auto* base = dynamic_cast<SecureNvmBase*>(design.get());
  ASSERT_NE(base, nullptr);
  EXPECT_TRUE(base->audit_image().empty());
  EXPECT_TRUE(base->alerts().empty());
}

TEST_P(DesignTest, MetaCachePressureKeepsCorrectness) {
  // A tiny Meta Cache forces constant metadata evictions and refetches —
  // the spill-up / drop / drain policies all get exercised.
  DesignConfig cfg = small_config();
  cfg.meta_cache_bytes = 8 * kLineSize;
  cfg.meta_cache_ways = 2;
  auto design = make(cfg);
  Rng rng(11);
  std::vector<std::pair<Addr, std::uint64_t>> written;
  for (std::uint64_t i = 0; i < 400; ++i) {
    const Addr addr =
        rng.below(cfg.data_capacity / kLineSize) * kLineSize;
    design->write_back(addr, pattern_line(i));
    written.emplace_back(addr, i);
  }
  // Latest value per address wins.
  std::unordered_map<Addr, std::uint64_t> latest;
  for (const auto& [addr, tag] : written) latest[addr] = tag;
  for (const auto& [addr, tag] : latest) {
    const ReadResult r = design->read_block(addr);
    EXPECT_TRUE(r.integrity_ok) << addr_str(addr);
    EXPECT_EQ(r.plaintext, pattern_line(tag)) << addr_str(addr);
  }
  auto* base = dynamic_cast<SecureNvmBase*>(design.get());
  EXPECT_TRUE(base->alerts().empty()) << "no attack, no alert";
  EXPECT_GT(design->meta_cache_stats().evictions, 0u)
      << "the test must actually stress evictions";
}

TEST_P(DesignTest, CounterOverflowReencryptsPage) {
  auto design = make(small_config());
  const Addr victim = 2 * kPageSize;         // block 0 of page 2
  const Addr neighbour = victim + kLineSize;  // same page
  design->write_back(neighbour, pattern_line(1000));
  for (std::uint64_t i = 0; i < 130; ++i) {
    design->write_back(victim, pattern_line(i));
  }
  EXPECT_GE(design->stats().page_reencryptions, 1u);
  EXPECT_EQ(design->read_block(victim).plaintext, pattern_line(129));
  // The neighbour was re-encrypted under the new major and must survive.
  const ReadResult r = design->read_block(neighbour);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.plaintext, pattern_line(1000));
}

TEST_P(DesignTest, TrafficAccountingIsConsistent) {
  auto design = make(small_config());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    design->write_back(rng.below(64) * kPageSize, pattern_line(i));
  }
  const nvm::TrafficStats& t = design->traffic();
  EXPECT_EQ(t.data_writes, design->stats().write_backs)
      << "one data-line write per write-back (no overflow in this run)";
  EXPECT_EQ(t.dh_writes, t.data_writes)
      << "the data HMAC travels with its block";
  EXPECT_EQ(t.total_writes(),
            t.data_writes + t.dh_writes + t.counter_writes + t.mt_writes);
}

TEST_P(DesignTest, EachWritebackAdvancesNwbUntilDesignResets) {
  auto design = make(small_config());
  design->write_back(0, pattern_line(0));
  design->write_back(kLineSize, pattern_line(1));
  // SC and Osiris Plus reset N_wb every write-back (their data/root
  // updates are atomic); epoch designs accumulate it.
  const std::uint64_t n = design->tcb().n_wb;
  if (GetParam() == DesignKind::kCcNvm || GetParam() == DesignKind::kCcNvmNoDs) {
    EXPECT_EQ(n, 2u);
  } else if (GetParam() != DesignKind::kWoCc) {
    EXPECT_EQ(n, 0u);
  }
}

std::string design_param_name(
    const ::testing::TestParamInfo<DesignKind>& info) {
  switch (info.param) {
    case DesignKind::kWoCc: return "WoCc";
    case DesignKind::kStrict: return "SC";
    case DesignKind::kOsirisPlus: return "OsirisPlus";
    case DesignKind::kCcNvmNoDs: return "CcNvmNoDs";
    case DesignKind::kCcNvm: return "CcNvm";
    case DesignKind::kCcNvmPlus: return "CcNvmPlus";
    case DesignKind::kTriadNvm: return "TriadNvm";
    case DesignKind::kPhoenix: return "Phoenix";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignTest,
                         ::testing::Values(DesignKind::kWoCc,
                                           DesignKind::kStrict,
                                           DesignKind::kOsirisPlus,
                                           DesignKind::kCcNvmNoDs,
                                           DesignKind::kCcNvm,
                                           DesignKind::kTriadNvm,
                                           DesignKind::kPhoenix),
                         design_param_name);

// --- write_blocks: one group against the same lines as a write_back loop

void expect_same_stats(const DesignStats& a, const DesignStats& b) {
  EXPECT_EQ(a.write_backs, b.write_backs);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.drains, b.drains);
  EXPECT_EQ(a.drains_by_trigger, b.drains_by_trigger);
  EXPECT_EQ(a.page_reencryptions, b.page_reencryptions);
  EXPECT_EQ(a.hmac_ops, b.hmac_ops);
  EXPECT_EQ(a.aes_ops, b.aes_ops);
  EXPECT_EQ(a.online_counter_recoveries, b.online_counter_recoveries);
  EXPECT_EQ(a.engine_busy_cycles, b.engine_busy_cycles);
  EXPECT_EQ(a.drain_cycles, b.drain_cycles);
  EXPECT_EQ(a.read_latency_cycles, b.read_latency_cycles);
  EXPECT_EQ(a.runtime_alerts, b.runtime_alerts);
}

/// Every line (data, DH, counters, tree) and ECC side-band entry, plus the
/// register slot. Wear counters are left out: they count DH writes.
struct ImageContents {
  std::vector<std::pair<Addr, Line>> lines;
  std::vector<std::pair<Addr, nvm::EccBytes>> ecc;
  TcbBlob registers{};
  bool operator==(const ImageContents&) const = default;
};

ImageContents contents_of(const nvm::NvmImage& image) {
  ImageContents c;
  image.for_each_line(
      [&](Addr a, const Line& l) { c.lines.emplace_back(a, l); });
  image.for_each_ecc(
      [&](Addr a, const nvm::EccBytes& e) { c.ecc.emplace_back(a, e); });
  image.load_registers(c.registers.data(), c.registers.size());
  return c;
}

/// Two twins of one design: `group` takes each extent as one write_blocks
/// call, `loop` as a write_back per line.
struct Twins {
  std::unique_ptr<SecureNvmDesign> group;
  std::unique_ptr<SecureNvmDesign> loop;
  /// Lines that shared the DH line of the line before them in a group.
  std::uint64_t shared = 0;

  Twins(DesignKind kind, const DesignConfig& cfg)
      : group(make_design(kind, cfg)), loop(make_design(kind, cfg)) {}

  void write(const std::vector<Addr>& addrs, const std::vector<Line>& lines) {
    group->write_blocks(addrs, lines);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      loop->write_back(addrs[i], lines[i]);
      if (i > 0 && group->layout().dh_line_addr(addrs[i]) ==
                       group->layout().dh_line_addr(addrs[i - 1])) {
        ++shared;
      }
    }
  }
};

class WriteBlocksTest : public ::testing::TestWithParam<DesignKind> {};

TEST_P(WriteBlocksTest, GroupMatchesTheLoopButWritesSharedDhLinesOnce) {
  for (const bool functional : {true, false}) {
    SCOPED_TRACE(functional ? "functional" : "timing-only");
    DesignConfig cfg = small_config();
    cfg.functional = functional;
    Twins t(GetParam(), cfg);
    Rng rng(31);
    const std::uint64_t lines = cfg.data_capacity / kLineSize;
    std::uint64_t tag = 0;
    for (int g = 0; g < 120; ++g) {
      // Extents of 1..9 consecutive lines, some across page boundaries;
      // every fifth group strides, so its DH lines alternate.
      const std::uint64_t n = 1 + rng.below(9);
      const std::uint64_t stride = g % 5 == 4 ? 5 : 1;
      const std::uint64_t first = rng.below(lines - n * stride);
      std::vector<Addr> addrs;
      std::vector<Line> data;
      for (std::uint64_t i = 0; i < n; ++i) {
        addrs.push_back((first + i * stride) * kLineSize);
        data.push_back(pattern_line(++tag));
      }
      t.write(addrs, data);
    }
    ASSERT_EQ(t.group->stats().page_reencryptions, 0u);
    ASSERT_GT(t.shared, 100u) << "the run must actually share DH lines";
    expect_same_stats(t.group->stats(), t.loop->stats());
    const nvm::TrafficStats& a = t.group->traffic();
    const nvm::TrafficStats& b = t.loop->traffic();
    EXPECT_EQ(a.data_writes, b.data_writes);
    EXPECT_EQ(a.counter_writes, b.counter_writes);
    EXPECT_EQ(a.mt_writes, b.mt_writes);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.dh_writes + t.shared, b.dh_writes);
    if (functional) {
      EXPECT_TRUE(contents_of(t.group->image()) ==
                  contents_of(t.loop->image()));
    }
  }
}

TEST_P(WriteBlocksTest, OverflowOnTheSecondLineReencryptsWithTheDhFlushed) {
  // Block 1 of page 2 sits at its minor's ceiling; the group writes the
  // never-written block 0, then block 1, whose increment overflows. The
  // page re-encryption must see block 0's fresh tag, which is still
  // pending in the group's DH line when the overflow starts.
  Twins t(GetParam(), small_config());
  const Addr block0 = 2 * kPageSize;
  const Addr block1 = block0 + kLineSize;
  for (std::uint64_t i = 0; i < secure::CounterBlock::kMinorMax; ++i) {
    t.write({block1}, {pattern_line(i)});
  }
  ASSERT_EQ(t.group->stats().page_reencryptions, 0u);
  t.write({block0, block1}, {pattern_line(1000), pattern_line(1001)});
  EXPECT_EQ(t.group->stats().page_reencryptions, 1u);
  expect_same_stats(t.group->stats(), t.loop->stats());
  EXPECT_TRUE(contents_of(t.group->image()) ==
              contents_of(t.loop->image()));
  // The re-encryption flushed the shared line, so nothing was saved.
  EXPECT_EQ(t.group->traffic().dh_writes, t.loop->traffic().dh_writes);
  for (SecureNvmDesign* d : {t.group.get(), t.loop.get()}) {
    const ReadResult r0 = d->read_block(block0);
    const ReadResult r1 = d->read_block(block1);
    EXPECT_TRUE(r0.integrity_ok);
    EXPECT_TRUE(r1.integrity_ok);
    EXPECT_EQ(r0.plaintext, pattern_line(1000));
    EXPECT_EQ(r1.plaintext, pattern_line(1001));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, WriteBlocksTest,
                         ::testing::Values(DesignKind::kWoCc,
                                           DesignKind::kStrict,
                                           DesignKind::kOsirisPlus,
                                           DesignKind::kCcNvmNoDs,
                                           DesignKind::kCcNvm,
                                           DesignKind::kCcNvmPlus,
                                           DesignKind::kTriadNvm,
                                           DesignKind::kPhoenix),
                         design_param_name);

class WriteBlocksCrashTest : public ::testing::TestWithParam<DrainCrashPoint> {
};

TEST_P(WriteBlocksCrashTest, DrainCrashMidGroupRecoversClean) {
  // update_limit = 1: the first line's counter update fires a drain while
  // that line's DH tag is still pending in the group, and the armed crash
  // cuts power there. What the power-loss hook sees is what a kill-9
  // leaves (crashd kills from the hook, so nothing unwinds): that image
  // must match a write_back loop's and recover clean.
  DesignConfig cfg = small_config();
  cfg.update_limit = 1;
  const std::vector<Addr> addrs = {8 * kLineSize, 9 * kLineSize,
                                   10 * kLineSize, 11 * kLineSize};
  const std::vector<Line> data = {pattern_line(1), pattern_line(2),
                                  pattern_line(3), pattern_line(4)};
  struct AtCut {
    std::optional<nvm::NvmImage> image;
    TcbRegisters tcb;
  };
  const auto cut = [&](bool grouped) {
    CcNvmDesign d(cfg, /*deferred_spreading=*/true);
    AtCut at;
    d.set_power_loss_hook([&] {
      at.image = d.image();
      at.tcb = d.tcb();
    });
    d.arm_drain_crash(GetParam());
    try {
      if (grouped) {
        d.write_blocks(addrs, data);
      } else {
        for (std::size_t i = 0; i < addrs.size(); ++i) {
          d.write_back(addrs[i], data[i]);
        }
      }
      ADD_FAILURE() << "the armed drain never fired";
    } catch (const InjectedPowerLoss&) {
    }
    return at;
  };
  AtCut group = cut(/*grouped=*/true);
  const AtCut loop = cut(/*grouped=*/false);
  ASSERT_TRUE(group.image.has_value() && loop.image.has_value());
  EXPECT_TRUE(contents_of(*group.image) == contents_of(*loop.image));

  CcNvmDesign reboot(cfg, /*deferred_spreading=*/true);
  reboot.restore_from_power_down(std::move(*group.image), group.tcb);
  const RecoveryReport report = reboot.recover();
  ASSERT_TRUE(report.clean);
  EXPECT_TRUE(report.metadata_recovered);
  EXPECT_FALSE(report.attack_detected);
  EXPECT_TRUE(report.tampered_blocks.empty());
  EXPECT_TRUE(report.replayed_nodes.empty());
  const ReadResult r = reboot.read_block(addrs[0]);
  EXPECT_TRUE(r.integrity_ok);
  EXPECT_EQ(r.plaintext, data[0]);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDrainCrashPoint, WriteBlocksCrashTest,
    ::testing::Values(DrainCrashPoint::kMidBatch,
                      DrainCrashPoint::kAfterBatchBeforeEnd,
                      DrainCrashPoint::kAfterEndBeforeCommit),
    [](const auto& info) {
      switch (info.param) {
        case DrainCrashPoint::kMidBatch: return "MidBatch";
        case DrainCrashPoint::kAfterBatchBeforeEnd:
          return "AfterBatchBeforeEnd";
        case DrainCrashPoint::kAfterEndBeforeCommit:
          return "AfterEndBeforeCommit";
        case DrainCrashPoint::kNone: break;
      }
      return "None";
    });

TEST(DesignComparisonTest, WriteTrafficOrderingMatchesPaper) {
  // SC writes the whole branch per write-back; cc-NVM batches per epoch;
  // Osiris Plus persists almost nothing beyond data+DH. Figure 5(b).
  std::map<DesignKind, std::uint64_t> writes;
  for (DesignKind kind :
       {DesignKind::kWoCc, DesignKind::kStrict, DesignKind::kOsirisPlus,
        DesignKind::kCcNvm}) {
    auto design = make_design(kind, small_config());
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      design->write_back(rng.below(500) * kLineSize, pattern_line(i));
    }
    writes[kind] = design->traffic().total_writes();
  }
  EXPECT_GT(writes[DesignKind::kStrict], writes[DesignKind::kCcNvm]);
  EXPECT_GE(writes[DesignKind::kCcNvm], writes[DesignKind::kOsirisPlus]);
  EXPECT_GE(writes[DesignKind::kCcNvm], writes[DesignKind::kWoCc]);
}

TEST(DesignComparisonTest, BlockingCyclesOrderingMatchesPaper) {
  // Per-write-back engine occupancy: the serial chain-to-root designs
  // (SC, Osiris Plus, cc-NVM w/o DS) block longer than cc-NVM. The effect
  // needs the paper's deep tree (12 levels at 16 GB), so this runs the
  // timing-only engine on the full geometry.
  std::map<DesignKind, double> busy;
  for (DesignKind kind :
       {DesignKind::kStrict, DesignKind::kOsirisPlus, DesignKind::kCcNvmNoDs,
        DesignKind::kCcNvm}) {
    DesignConfig cfg;
    cfg.data_capacity = 16ull << 30;
    cfg.functional = false;
    auto design = make_design(kind, cfg);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      design->write_back(rng.below(1 << 16) * kLineSize, pattern_line(i));
    }
    busy[kind] = static_cast<double>(design->stats().engine_busy_cycles) /
                 static_cast<double>(design->stats().write_backs);
  }
  EXPECT_LT(busy[DesignKind::kCcNvm], busy[DesignKind::kStrict]);
  EXPECT_LT(busy[DesignKind::kCcNvm], busy[DesignKind::kOsirisPlus]);
  EXPECT_LT(busy[DesignKind::kCcNvm], busy[DesignKind::kCcNvmNoDs]);
}

TEST(DesignComparisonTest, LevelPersistedPresetsDifferOnlyInTransferOverlap) {
  // SC, Phoenix and a Triad-NVM whose frontier clamps to the whole tree
  // persist the same lines. SC and Triad-NVM add the 4-cycle-per-line
  // WPQ transfer to the walk; Phoenix overlaps it.
  DesignConfig cfg = small_config();
  cfg.persist_level = 64;
  std::map<DesignKind, std::uint64_t> writes;
  std::map<DesignKind, std::uint64_t> busy;
  for (DesignKind kind :
       {DesignKind::kStrict, DesignKind::kTriadNvm, DesignKind::kPhoenix}) {
    auto design = make_design(kind, cfg);
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      design->write_back(rng.below(500) * kLineSize, pattern_line(i));
    }
    writes[kind] = design->traffic().total_writes();
    busy[kind] = design->stats().engine_busy_cycles;
  }
  EXPECT_EQ(writes[DesignKind::kTriadNvm], writes[DesignKind::kStrict]);
  EXPECT_EQ(writes[DesignKind::kPhoenix], writes[DesignKind::kStrict]);
  EXPECT_EQ(busy[DesignKind::kTriadNvm], busy[DesignKind::kStrict]);
  EXPECT_LT(busy[DesignKind::kPhoenix], busy[DesignKind::kStrict]);
}

TEST(ParseDesignTest, NamesAndTriadLevels) {
  EXPECT_EQ(parse_design("wocc"), DesignKind::kWoCc);
  EXPECT_EQ(parse_design("sc"), DesignKind::kStrict);
  EXPECT_EQ(parse_design("osiris"), DesignKind::kOsirisPlus);
  EXPECT_EQ(parse_design("ccnvm-nods"), DesignKind::kCcNvmNoDs);
  EXPECT_EQ(parse_design("ccnvm"), DesignKind::kCcNvm);
  EXPECT_EQ(parse_design("ccnvm-plus"), DesignKind::kCcNvmPlus);
  EXPECT_EQ(parse_design("phoenix"), DesignKind::kPhoenix);
  std::uint32_t level = 7;
  EXPECT_EQ(parse_design("triad", &level), DesignKind::kTriadNvm);
  EXPECT_EQ(level, 7u) << "plain triad leaves the caller's default";
  EXPECT_EQ(parse_design("triad-n64", &level), DesignKind::kTriadNvm);
  EXPECT_EQ(level, 64u);
  EXPECT_EQ(parse_design("triad-n007", &level), DesignKind::kTriadNvm);
  EXPECT_EQ(level, 7u);
  for (const char* bad : {"", "triad-n", "triad-n0", "triad-n65",
                          "triad-n4294967297", "triad-n18446744073709551617",
                          "triad-n-1", "triad-n2x", "ccnvm+", "CCNVM"}) {
    EXPECT_EQ(parse_design(bad), std::nullopt) << bad;
  }
}

}  // namespace
}  // namespace ccnvm::core
