// Dirty Address Queue: the CAM semantics pre_write_back's reservation
// logic depends on — duplicate-free tracking, [[nodiscard]] rejection
// only when genuinely full, can_accept counting fresh lines only — plus
// capacity regressions at the protocol level (a DAQ sized to exactly one
// write-back's metadata path must sustain any workload; one entry smaller
// is a protocol bug the CCNVM_CHECK must name).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "core/cc_nvm.h"
#include "core/daq.h"

namespace ccnvm::core {
namespace {

TEST(DaqTest, PushRejectsOnlyWhenFull) {
  DirtyAddressQueue daq(2);
  EXPECT_TRUE(daq.push(0x000));
  EXPECT_TRUE(daq.push(0x040));
  EXPECT_FALSE(daq.push(0x080)) << "third unique line exceeds capacity 2";
  EXPECT_EQ(daq.size(), 2u);
  EXPECT_EQ(daq.free_entries(), 0u);
  EXPECT_TRUE(daq.contains(0x040));
  EXPECT_FALSE(daq.contains(0x080)) << "a rejected push must not track";
}

TEST(DaqTest, DuplicatePushesAreFreeAndSubLineAddressesShareAnEntry) {
  DirtyAddressQueue daq(1);
  EXPECT_TRUE(daq.push(0x100));
  EXPECT_TRUE(daq.push(0x100)) << "re-dirtying a tracked line is free";
  EXPECT_TRUE(daq.push(0x100 + 7)) << "same 64 B line, different byte";
  EXPECT_EQ(daq.size(), 1u);
  EXPECT_TRUE(daq.contains(0x100 + 63));
}

TEST(DaqTest, CanAcceptCountsOnlyFreshLines) {
  DirtyAddressQueue daq(2);
  ASSERT_TRUE(daq.push(0x000));
  // One tracked + one fresh, capacity for one more: fits.
  EXPECT_TRUE(daq.can_accept({0x000, 0x040}));
  // Duplicates inside the request count once.
  EXPECT_TRUE(daq.can_accept({0x040, 0x040 + 8}));
  // Two fresh lines need two free entries; only one remains.
  EXPECT_FALSE(daq.can_accept({0x040, 0x080}));
}

TEST(DaqTest, ClearResetsEverything) {
  DirtyAddressQueue daq(4);
  ASSERT_TRUE(daq.push(0x000));
  ASSERT_TRUE(daq.push(0x040));
  daq.clear();
  EXPECT_TRUE(daq.empty());
  EXPECT_FALSE(daq.contains(0x000));
  EXPECT_EQ(daq.free_entries(), 4u);
  EXPECT_TRUE(daq.push(0x000)) << "cleared entries are reusable";
}

TEST(DaqTest, EntriesKeepInsertionOrder) {
  DirtyAddressQueue daq(4);
  ASSERT_TRUE(daq.push(0x0c0));
  ASSERT_TRUE(daq.push(0x000));
  ASSERT_TRUE(daq.push(0x080));
  const std::vector<Addr> expected = {0x0c0, 0x000, 0x080};
  EXPECT_EQ(daq.entries(), expected);
}

/// `count` distinct line addresses that share one home slot in `daq`'s
/// membership table, found by search from line 1 up.
std::vector<Addr> colliding_lines(const DirtyAddressQueue& daq,
                                  std::size_t count) {
  std::vector<Addr> lines;
  const std::size_t home = daq.home_slot(kLineSize);
  for (Addr a = kLineSize; lines.size() < count; a += kLineSize) {
    if (daq.home_slot(a) == home) lines.push_back(a);
  }
  return lines;
}

TEST(DaqTest, CollidingLinesAreAllTrackedAndFound) {
  // A full queue of lines with one home slot is one probe run, every link
  // of which must still be found, and lines off the run are not.
  constexpr std::size_t kLines = 1024;
  DirtyAddressQueue daq(kLines);
  const std::vector<Addr> lines = colliding_lines(daq, kLines + 1);
  for (std::size_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(daq.push(lines[i])) << i;
  }
  EXPECT_EQ(daq.size(), kLines);
  EXPECT_FALSE(daq.push(lines[kLines])) << "queue full";
  EXPECT_FALSE(daq.contains(lines[kLines])) << "colliding, never pushed";
  for (std::size_t i = 0; i < kLines; ++i) {
    EXPECT_TRUE(daq.contains(lines[i] + 5)) << i;
    EXPECT_TRUE(daq.push(lines[i])) << "duplicate is free";
  }
  for (Addr a = 0; a < 64 * kLineSize; a += kLineSize) {
    const auto pushed = lines.begin() + kLines;
    if (std::find(lines.begin(), pushed, a) != pushed) continue;
    EXPECT_FALSE(daq.contains(a)) << a;
  }
  EXPECT_EQ(daq.size(), kLines);
  EXPECT_EQ(daq.entries(),
            std::vector<Addr>(lines.begin(), lines.begin() + kLines));
}

TEST(DaqTest, ClearForgetsEveryMemberAndAllRePush) {
  constexpr std::size_t kLines = 1024;
  DirtyAddressQueue daq(kLines);
  const std::vector<Addr> chain = colliding_lines(daq, kLines / 2);
  std::vector<Addr> lines;
  for (std::size_t i = 0; i < kLines / 2; ++i) {
    lines.push_back(chain[i]);                      // one probe run
    lines.push_back((1ULL << 40) + i * kPageSize);  // and scattered lines
  }
  for (int round = 0; round < 3; ++round) {
    for (Addr a : lines) ASSERT_TRUE(daq.push(a)) << round;
    ASSERT_EQ(daq.size(), kLines);
    EXPECT_EQ(daq.entries(), lines) << "drain order is insertion order";
    daq.clear();
    EXPECT_TRUE(daq.empty());
    for (Addr a : lines) ASSERT_FALSE(daq.contains(a)) << round;
  }
}

// --- protocol-level capacity regressions --------------------------------

DesignConfig tiny_daq_config(std::size_t daq_entries) {
  DesignConfig c;
  c.data_capacity = 64 * kPageSize;  // path: counter line + 2 tree nodes
  c.daq_entries = daq_entries;
  return c;
}

TEST(DaqCapacityTest, PathSizedQueueSustainsAnyWorkload) {
  // The smallest legal DAQ holds exactly one write-back's metadata path
  // (3 entries at this geometry): every write-back to a fresh page then
  // drains on queue pressure first, and must still complete.
  CcNvmDesign design(tiny_daq_config(3), /*deferred_spreading=*/true);
  Line l{};
  for (std::uint64_t i = 0; i < 40; ++i) {
    l[0] = static_cast<std::uint8_t>(i);
    design.write_back((i % 64) * kPageSize, l);
  }
  EXPECT_GT(design.stats().drains_by_trigger[0], 0u)
      << "a path-sized DAQ must drain on pressure";
  design.quiesce();
  for (std::uint64_t i = 24; i < 40; ++i) {
    EXPECT_TRUE(design.read_block((i % 64) * kPageSize).integrity_ok);
  }
}

TEST(DaqCapacityTest, QueueBelowOnePathIsAProtocolBug) {
  // 2 entries cannot fit counter + 2 nodes even after a drain: the
  // uniform daq_track path must trip with the sizing message rather than
  // silently dropping a tracked line.
  CcNvmDesign design(tiny_daq_config(2), /*deferred_spreading=*/true);
  const CheckThrowScope throw_scope;
  try {
    design.write_back(0, Line{});
    FAIL() << "an undersized DAQ must be rejected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("DAQ sized below"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ccnvm::core
