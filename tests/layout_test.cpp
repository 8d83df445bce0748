// Unit tests for the NVM physical layout / Merkle-tree geometry.
#include <gtest/gtest.h>

#include <set>

#include "nvm/layout.h"

namespace ccnvm::nvm {
namespace {

TEST(LayoutTest, PaperGeometryAt16GB) {
  // The paper: 16 GB NVM, 128-bit HMACs -> 4-ary tree with 12 levels.
  const NvmLayout layout(16ull << 30);
  EXPECT_EQ(layout.tree_levels(), 12u);
  EXPECT_EQ(layout.root_level(), 11u);
  EXPECT_EQ(layout.num_pages(), (16ull << 30) / kPageSize);
  // SC write-back path: leaf counter + internal nodes; the paper counts
  // "10 internal path nodes and the leaf-level counter".
  EXPECT_EQ(layout.root_level() - 1, 10u);
}

TEST(LayoutTest, RegionsAreDisjointAndOrdered) {
  const NvmLayout layout(16ull << 20);
  const Addr data_end = layout.data_capacity();
  EXPECT_TRUE(layout.is_data_addr(0));
  EXPECT_TRUE(layout.is_data_addr(data_end - 1));
  EXPECT_FALSE(layout.is_data_addr(data_end));
  EXPECT_TRUE(layout.is_counter_addr(layout.counter_line_addr(0)));

  // Every address class is mutually exclusive.
  for (Addr a : {Addr{0}, layout.counter_line_addr(0),
                 layout.node_addr({1, 0}), layout.dh_line_addr(0)}) {
    int classes = 0;
    classes += layout.is_data_addr(a) ? 1 : 0;
    classes += layout.is_counter_addr(a) ? 1 : 0;
    classes += layout.is_mt_addr(a) ? 1 : 0;
    classes += layout.is_dh_addr(a) ? 1 : 0;
    EXPECT_EQ(classes, 1) << addr_str(a);
  }
}

TEST(LayoutTest, CounterLineCoversPage) {
  const NvmLayout layout(1ull << 20);
  // All blocks of page 3 share one counter line; page 4 uses the next.
  const Addr page3 = 3 * kPageSize;
  const Addr expect = layout.counter_line_addr(page3);
  for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
    EXPECT_EQ(layout.counter_line_addr(page3 + b * kLineSize), expect);
  }
  EXPECT_EQ(layout.counter_line_addr(4 * kPageSize), expect + kLineSize);
  EXPECT_EQ(layout.counter_line_index(expect), 3u);
}

TEST(LayoutTest, DhTagsPackFourPerLine) {
  const NvmLayout layout(1ull << 20);
  const Addr l0 = layout.dh_line_addr(0 * kLineSize);
  EXPECT_EQ(layout.dh_line_addr(1 * kLineSize), l0);
  EXPECT_EQ(layout.dh_line_addr(3 * kLineSize), l0);
  EXPECT_EQ(layout.dh_line_addr(4 * kLineSize), l0 + kLineSize);
  EXPECT_EQ(layout.dh_offset_in_line(0 * kLineSize), 0u);
  EXPECT_EQ(layout.dh_offset_in_line(1 * kLineSize), 16u);
  EXPECT_EQ(layout.dh_offset_in_line(2 * kLineSize), 32u);
  EXPECT_EQ(layout.dh_offset_in_line(3 * kLineSize), 48u);
}

TEST(LayoutTest, NodeAddrRoundTrips) {
  const NvmLayout layout(16ull << 20);  // 4096 pages, root level 6
  ASSERT_EQ(layout.root_level(), 6u);
  std::set<Addr> seen;
  for (std::uint32_t level = 1; level < layout.root_level(); ++level) {
    for (std::uint64_t i = 0; i < layout.nodes_at_level(level); ++i) {
      const NodeId id{level, i};
      const Addr a = layout.node_addr(id);
      EXPECT_TRUE(layout.is_mt_addr(a));
      EXPECT_TRUE(seen.insert(a).second) << "address reuse at " << addr_str(a);
      EXPECT_EQ(layout.node_id_of(a), id);
    }
  }
}

TEST(LayoutTest, ParentChildAreInverse) {
  const NvmLayout layout(16ull << 20);
  const NodeId leaf{0, 1234};
  const NodeId p = layout.parent(leaf);
  EXPECT_EQ(p.level, 1u);
  EXPECT_EQ(p.index, 1234u / NvmLayout::kArity);
  EXPECT_EQ(layout.child(p, layout.slot_in_parent(leaf)), leaf);
}

TEST(LayoutTest, PathToRootIsBottomUpInternalNodes) {
  const NvmLayout layout(16ull << 20);
  const Addr data = 5 * kPageSize + 3 * kLineSize;
  const auto path = layout.path_to_root(data);
  ASSERT_EQ(path.size(), layout.root_level() - 1);
  NodeId expect{0, data / kPageSize};
  for (const NodeId& id : path) {
    expect = layout.parent(expect);
    EXPECT_EQ(id, expect);
  }
  EXPECT_EQ(path.back().level, layout.root_level() - 1);
}

TEST(LayoutTest, InlinePathAt16GBIsTheParentChain) {
  // The paper's geometry: 10 internal levels, held inline. Check first,
  // middle and last page.
  const NvmLayout layout(16ull << 30);
  for (const std::uint64_t page :
       {std::uint64_t{0}, layout.num_pages() / 3, layout.num_pages() - 1}) {
    const Addr data = page * kPageSize + 5 * kLineSize;
    const auto path = layout.path_to_root(data);
    ASSERT_EQ(path.size(), 10u);
    NodeId expect{0, page};
    for (std::size_t i = 0; i < path.size(); ++i) {
      expect = layout.parent(expect);
      EXPECT_EQ(path[i], expect) << "page " << page << " level " << i + 1;
    }
    EXPECT_EQ(path.back().level, layout.root_level() - 1);
    EXPECT_EQ(layout.parent(path.back()), (NodeId{layout.root_level(), 0}));
  }
}

TEST(LayoutTest, LevelCountsShrinkByArity) {
  const NvmLayout layout(64ull << 20);
  std::uint64_t prev = layout.num_pages();
  for (std::uint32_t level = 1; level <= layout.root_level(); ++level) {
    const std::uint64_t n = layout.nodes_at_level(level);
    EXPECT_EQ(n, (prev + NvmLayout::kArity - 1) / NvmLayout::kArity);
    prev = n;
  }
  EXPECT_EQ(prev, 1u) << "root must be a single node";
}

TEST(LayoutTest, SinglePageDeviceStillHasATree) {
  const NvmLayout layout(kPageSize);
  EXPECT_EQ(layout.root_level(), 1u);
  EXPECT_TRUE(layout.path_to_root(0).empty());
}

class LayoutCapacityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayoutCapacityTest, FootprintAccounting) {
  const NvmLayout layout(GetParam());
  // Total footprint = data + counters + internal nodes + DH tags; storage
  // overhead must stay within ~27% (25% DH + ~1.6% counters + tree).
  const double overhead =
      static_cast<double>(layout.total_bytes() - layout.data_capacity()) /
      static_cast<double>(layout.data_capacity());
  EXPECT_GT(overhead, 0.25);
  EXPECT_LT(overhead, 0.28);
}

INSTANTIATE_TEST_SUITE_P(Capacities, LayoutCapacityTest,
                         ::testing::Values(1ull << 20, 16ull << 20,
                                           64ull << 20, 1ull << 30,
                                           16ull << 30));

}  // namespace
}  // namespace ccnvm::nvm
