// Unit tests for the memory controller's WPQ / ADR / atomic-batch
// semantics — the hardware mechanism cc-NVM's drain protocol builds on.
#include <gtest/gtest.h>

#include "nvm/controller.h"

namespace ccnvm::nvm {
namespace {

Line line_of(std::uint8_t fill) {
  Line l;
  l.fill(fill);
  return l;
}

TEST(ControllerTest, LegacyWritePersistsImmediately) {
  NvmImage image;
  MemoryController mc(image);
  mc.write(0x40, line_of(7), LineKind::kData);
  EXPECT_EQ(image.read_line(0x40), line_of(7));
  EXPECT_EQ(mc.stats().data_writes, 1u);
}

TEST(ControllerTest, UnwrittenLinesReadZero) {
  NvmImage image;
  MemoryController mc(image);
  EXPECT_EQ(mc.read(0x1000), zero_line());
}

TEST(ControllerTest, BatchIsInvisibleUntilEnd) {
  NvmImage image;
  MemoryController mc(image);
  mc.begin_atomic_batch();
  EXPECT_TRUE(mc.batch_write(0x80, line_of(1), LineKind::kCounter));
  EXPECT_EQ(image.read_line(0x80), zero_line()) << "media untouched mid-batch";
  mc.end_atomic_batch();
  EXPECT_EQ(image.read_line(0x80), line_of(1));
  EXPECT_EQ(mc.stats().counter_writes, 1u);
}

TEST(ControllerTest, ReadSeesOwnBatchedWrite) {
  NvmImage image;
  MemoryController mc(image);
  mc.begin_atomic_batch();
  mc.batch_write(0x80, line_of(9), LineKind::kMtNode);
  EXPECT_EQ(mc.read(0x80), line_of(9));
  mc.end_atomic_batch();
}

TEST(ControllerTest, CrashBeforeEndDropsWholeBatch) {
  NvmImage image;
  MemoryController mc(image);
  mc.write(0x0, line_of(1), LineKind::kData);  // legacy write: durable
  mc.begin_atomic_batch();
  mc.batch_write(0x80, line_of(2), LineKind::kCounter);
  mc.batch_write(0xc0, line_of(3), LineKind::kMtNode);
  EXPECT_EQ(mc.crash(), 2u);
  EXPECT_EQ(image.read_line(0x0), line_of(1)) << "ADR keeps legacy writes";
  EXPECT_EQ(image.read_line(0x80), zero_line());
  EXPECT_EQ(image.read_line(0xc0), zero_line());
  EXPECT_FALSE(mc.batch_open());
}

TEST(ControllerTest, CrashAfterEndLosesNothing) {
  NvmImage image;
  MemoryController mc(image);
  mc.begin_atomic_batch();
  mc.batch_write(0x80, line_of(2), LineKind::kCounter);
  mc.end_atomic_batch();
  EXPECT_EQ(mc.crash(), 0u);
  EXPECT_EQ(image.read_line(0x80), line_of(2));
}

TEST(ControllerTest, BatchCoalescesSameLine) {
  NvmImage image;
  MemoryController mc(image);
  mc.begin_atomic_batch();
  mc.batch_write(0x80, line_of(1), LineKind::kCounter);
  mc.batch_write(0x80, line_of(2), LineKind::kCounter);
  EXPECT_EQ(mc.batch_size(), 1u) << "WPQ holds one entry per line";
  mc.end_atomic_batch();
  EXPECT_EQ(image.read_line(0x80), line_of(2)) << "last write wins";
  EXPECT_EQ(mc.stats().counter_writes, 1u) << "one media write after coalesce";
}

TEST(ControllerTest, BatchRespectsWpqCapacity) {
  NvmImage image;
  MemoryController mc(image, /*wpq_entries=*/4);
  mc.begin_atomic_batch();
  for (Addr a = 0; a < 4 * kLineSize; a += kLineSize) {
    EXPECT_TRUE(mc.batch_write(a, line_of(1), LineKind::kMtNode));
  }
  EXPECT_FALSE(mc.batch_write(4 * kLineSize, line_of(1), LineKind::kMtNode))
      << "WPQ full: entry must be refused, not silently dropped";
  mc.end_atomic_batch();
  EXPECT_EQ(mc.stats().mt_writes, 4u);
}

TEST(ControllerTest, FullBatchRefusesEvenARewriteOfABatchedLine) {
  // The capacity check runs before the coalesce: once the WPQ is full, a
  // write of a line it already holds is refused too, and the held value
  // stays the one that lands.
  NvmImage image;
  MemoryController mc(image, /*wpq_entries=*/4);
  mc.begin_atomic_batch();
  for (Addr a = 0; a < 4 * kLineSize; a += kLineSize) {
    ASSERT_TRUE(mc.batch_write(a, line_of(1), LineKind::kMtNode));
  }
  EXPECT_FALSE(mc.batch_write(2 * kLineSize, line_of(5), LineKind::kMtNode));
  EXPECT_EQ(mc.batch_size(), 4u);
  EXPECT_EQ(mc.read(2 * kLineSize), line_of(1));
  mc.end_atomic_batch();
  EXPECT_EQ(image.read_line(2 * kLineSize), line_of(1));
  EXPECT_EQ(mc.stats().mt_writes, 4u);
}

TEST(ControllerTest, FullSizeBatchCoalescesAtBothEnds) {
  // A 1 024-line drain batch (kvbench kv-b-large's drain size): re-writes
  // of the first and the last line coalesce in place, reads see them, and
  // media receive every line once. One spare slot keeps the WPQ from
  // filling, so the full-batch rule does not refuse the re-writes.
  constexpr std::size_t kLines = 1024;
  NvmImage image;
  MemoryController mc(image, kLines + 1);
  const auto addr_of = [](std::size_t i) {
    return static_cast<Addr>((i * 7 + 3) * kLineSize);
  };
  mc.begin_atomic_batch();
  for (std::size_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(mc.batch_write(addr_of(i), line_of(3), LineKind::kMtNode));
  }
  EXPECT_TRUE(mc.batch_write(addr_of(0), line_of(4), LineKind::kCounter));
  EXPECT_TRUE(mc.batch_write(addr_of(kLines - 1), line_of(5),
                             LineKind::kMtNode));
  EXPECT_TRUE(mc.batch_write(addr_of(kLines - 1) + 9, line_of(6),
                             LineKind::kMtNode))
      << "a sub-line address names the same entry";
  EXPECT_EQ(mc.batch_size(), kLines);
  EXPECT_EQ(mc.read(addr_of(0)), line_of(4));
  EXPECT_EQ(mc.read(addr_of(kLines - 1)), line_of(6));
  EXPECT_EQ(mc.read(addr_of(kLines / 2)), line_of(3));
  EXPECT_EQ(image.read_line(addr_of(0)), zero_line()) << "media untouched";
  mc.end_atomic_batch();
  EXPECT_EQ(image.read_line(addr_of(0)), line_of(4));
  EXPECT_EQ(image.read_line(addr_of(kLines - 1)), line_of(6));
  EXPECT_EQ(image.read_line(addr_of(kLines / 2)), line_of(3));
  EXPECT_EQ(mc.stats().counter_writes, 1u) << "the last kind written wins";
  EXPECT_EQ(mc.stats().mt_writes, kLines - 1);
}

TEST(ControllerTest, NoStaleEntryOutlivesCrashOrEnd) {
  NvmImage image;
  MemoryController mc(image, /*wpq_entries=*/4);
  mc.write(0x80, line_of(1), LineKind::kCounter);

  mc.begin_atomic_batch();
  ASSERT_TRUE(mc.batch_write(0x80, line_of(2), LineKind::kCounter));
  ASSERT_TRUE(mc.batch_write(0xc0, line_of(2), LineKind::kMtNode));
  EXPECT_EQ(mc.crash(), 2u);
  EXPECT_EQ(mc.read(0x80), line_of(1)) << "dropped batch must not be read";
  EXPECT_EQ(mc.read(0xc0), zero_line());
  mc.begin_atomic_batch();
  EXPECT_EQ(mc.batch_size(), 0u);
  EXPECT_EQ(mc.read(0x80), line_of(1));
  for (Addr a = 0x100; a < 0x100 + 4 * kLineSize; a += kLineSize) {
    EXPECT_TRUE(mc.batch_write(a, line_of(3), LineKind::kMtNode))
        << "all four slots free after the crash";
  }
  mc.end_atomic_batch();

  EXPECT_EQ(mc.read(0x100), line_of(3));
  mc.write(0x100, line_of(7), LineKind::kMtNode);
  EXPECT_EQ(mc.read(0x100), line_of(7)) << "a committed batch is not re-read";
  mc.begin_atomic_batch();
  EXPECT_EQ(mc.batch_size(), 0u);
  EXPECT_EQ(mc.read(0x140), line_of(3));
  EXPECT_TRUE(mc.batch_write(0x100, line_of(8), LineKind::kMtNode));
  EXPECT_EQ(mc.batch_size(), 1u) << "a fresh entry, not a stale coalesce";
  mc.end_atomic_batch();
  EXPECT_EQ(image.read_line(0x100), line_of(8));
}

TEST(ControllerTest, TrafficBreakdownByKind) {
  NvmImage image;
  MemoryController mc(image);
  mc.write(0x0, line_of(0), LineKind::kData);
  mc.write(0x40, line_of(0), LineKind::kDataHmac);
  mc.write(0x80, line_of(0), LineKind::kCounter);
  mc.write(0xc0, line_of(0), LineKind::kMtNode);
  mc.write(0x100, line_of(0), LineKind::kData);
  EXPECT_EQ(mc.stats().data_writes, 2u);
  EXPECT_EQ(mc.stats().dh_writes, 1u);
  EXPECT_EQ(mc.stats().counter_writes, 1u);
  EXPECT_EQ(mc.stats().mt_writes, 1u);
  EXPECT_EQ(mc.stats().total_writes(), 5u);
}

TEST(ControllerTest, ImageSnapshotIsIndependent) {
  NvmImage image;
  MemoryController mc(image);
  mc.write(0x0, line_of(1), LineKind::kData);
  NvmImage snap = image.snapshot();
  mc.write(0x0, line_of(2), LineKind::kData);
  EXPECT_EQ(snap.read_line(0x0), line_of(1));
  EXPECT_EQ(image.read_line(0x0), line_of(2));
}

}  // namespace
}  // namespace ccnvm::nvm
