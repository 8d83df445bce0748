// Unit tests for the Bonsai Merkle tree engine and the metadata store.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "secure/merkle.h"
#include "secure/metadata_store.h"

namespace ccnvm::secure {
namespace {

class MerkleFixture : public ::testing::Test {
 protected:
  MerkleFixture()
      : layout_(1ull << 20),  // 256 pages -> root level 4
        engine_(crypto::HmacKey::from_seed(77), layout_),
        store_(layout_, engine_) {}

  MerkleEngine::NodeReader store_reader() {
    return [this](const NodeId& id) { return store_.node_line(id); };
  }

  NvmLayout layout_;
  MerkleEngine engine_;
  MetadataStore store_;
};

TEST_F(MerkleFixture, FreshStoreIsConsistent) {
  EXPECT_TRUE(
      engine_.find_inconsistencies(store_reader(), store_.root()).empty());
}

TEST_F(MerkleFixture, FreshPathsVerify) {
  for (Addr a : {Addr{0}, Addr{100 * kPageSize}, Addr{255 * kPageSize}}) {
    EXPECT_FALSE(engine_.verify_path(a, store_reader(), store_.root()));
  }
}

TEST_F(MerkleFixture, CounterChangeWithoutTreeUpdateIsDetected) {
  store_.counter(10).increment(0);
  const auto bad = engine_.verify_path(10 * kPageSize, store_reader(),
                                       store_.root());
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, (NodeId{0, 10})) << "mismatch localizes to the leaf";
}

TEST_F(MerkleFixture, RebuildRestoresConsistency) {
  store_.counter(10).increment(0);
  store_.counter(200).increment(5);
  store_.format();
  EXPECT_TRUE(
      engine_.find_inconsistencies(store_reader(), store_.root()).empty());
}

TEST_F(MerkleFixture, IncrementalPathUpdateMatchesFullRebuild) {
  // Update one counter, recompute only its path — the root must equal the
  // root of a full rebuild (this is the identity the write-back fast path
  // depends on).
  store_.counter(42).increment(3);
  NodeId node{0, 42};
  while (node.level < layout_.root_level()) {
    const NodeId par = layout_.parent(node);
    store_.set_node(par, engine_.compute_node(par, store_reader()));
    node = par;
  }
  const Line incremental_root = store_.root();

  MetadataStore fresh(layout_, engine_);
  fresh.counter(42).increment(3);
  fresh.format();
  EXPECT_EQ(incremental_root, fresh.root());
}

TEST_F(MerkleFixture, TamperedInternalNodeIsLocated) {
  const NodeId victim{2, 5};
  Line v = store_.node_line(victim);
  v[0] ^= 0xff;
  store_.set_node(victim, v);
  const auto bad = engine_.find_inconsistencies(store_reader(), store_.root());
  // The tampered node disagrees with its parent, and its own children now
  // disagree with it; the victim itself must be among the reports.
  bool found = false;
  for (const NodeId& id : bad) found |= (id == victim);
  EXPECT_TRUE(found);
}

TEST_F(MerkleFixture, RootTamperIsDetected) {
  Line bad_root = store_.root();
  bad_root[5] ^= 0x1;
  const auto bad = engine_.find_inconsistencies(store_reader(), bad_root);
  EXPECT_FALSE(bad.empty());
}

TEST_F(MerkleFixture, DifferentKeysProduceDifferentRoots) {
  MerkleEngine other(crypto::HmacKey::from_seed(78), layout_);
  MetadataStore other_store(layout_, other);
  EXPECT_NE(store_.root(), other_store.root());
}

TEST_F(MerkleFixture, NodeTagMatchesManualHmac) {
  const Line contents = store_.node_line({1, 0});
  const Tag128 tag = engine_.node_tag(contents);
  EXPECT_EQ(tag, crypto::hmac_tag(crypto::HmacKey::from_seed(77), contents));
}

// Property suite over several capacities: a full build is internally
// consistent, and flipping any single counter breaks exactly its path.
class MerklePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MerklePropertyTest, SingleCounterFlipBreaksOnlyItsPath) {
  const NvmLayout layout(GetParam());
  const MerkleEngine engine(crypto::HmacKey::from_seed(5), layout);
  MetadataStore store(layout, engine);
  const auto reader = [&](const NodeId& id) { return store.node_line(id); };

  Rng rng(GetParam());
  const std::uint64_t victim_page = rng.below(layout.num_pages());
  store.counter(victim_page).increment(rng.below(kBlocksPerPage));

  // The victim page's path fails...
  EXPECT_TRUE(engine.verify_path(victim_page * kPageSize, reader,
                                 store.root()));
  // ...and pages under a different level-1 parent still verify.
  const std::uint64_t other_page =
      (victim_page / NvmLayout::kArity + 1) % layout.num_pages() *
      NvmLayout::kArity % layout.num_pages();
  if (other_page / NvmLayout::kArity != victim_page / NvmLayout::kArity) {
    EXPECT_FALSE(engine.verify_path(other_page * kPageSize, reader,
                                    store.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, MerklePropertyTest,
                         ::testing::Values(kPageSize, 4 * kPageSize,
                                           16 * kPageSize, 1ull << 20,
                                           4ull << 20));

// find_inconsistencies tags each level in one batch and checks several
// roots in one pass; it must report exactly what the per-parent walk
// does — recompute each stored parent's slots from its stored children
// and blame every real child whose slot disagrees — root by root, in
// the walk's order, for any worker count.
std::vector<NodeId> walk_inconsistencies(const NvmLayout& layout,
                                         const MerkleEngine& engine,
                                         const MerkleEngine::NodeReader& read,
                                         const Line& root) {
  std::vector<NodeId> bad;
  for (std::uint32_t level = 1; level <= layout.root_level(); ++level) {
    for (std::uint64_t i = 0; i < layout.nodes_at_level(level); ++i) {
      const NodeId id{level, i};
      const Line stored = level == layout.root_level() ? root : read(id);
      for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
        const NodeId child = layout.child(id, slot);
        if (child.index >= layout.nodes_at_level(child.level)) continue;
        const Tag128 tag = engine.node_tag(read(child));
        if (std::memcmp(stored.data() + slot * sizeof(Tag128),
                        tag.bytes.data(), sizeof(Tag128)) != 0) {
          bad.push_back(child);
        }
      }
    }
  }
  return bad;
}

class MerkleMultiRootTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleMultiRootTest, MatchesPerParentWalkForEveryRoot) {
  const NvmLayout layout(4ull << 20);  // 1024 pages, root level 5
  const MerkleEngine engine(crypto::HmacKey::from_seed(3), layout);
  MetadataStore store(layout, engine);
  Rng rng(GetParam() + 11);
  for (int i = 0; i < 40; ++i) {
    store.counter(rng.below(layout.num_pages())).increment(rng.below(64));
  }
  store.format();
  const Line committed = store.root();
  // Tamper a counter line and an internal node behind the tree's back;
  // the second root is a forgery of the committed one.
  store.counter(17).increment(2);
  Line node = store.node_line({2, 9});
  node[33] ^= 0x10;
  store.set_node({2, 9}, node);
  const auto reader = [&](const NodeId& id) { return store.node_line(id); };
  Line other_root = committed;
  other_root[3] ^= 0x80;

  const std::vector<Line> roots = {committed, other_root, store.root()};
  const auto got = engine.find_inconsistencies(reader, roots, GetParam());
  ASSERT_EQ(got.size(), roots.size());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    EXPECT_EQ(got[r], walk_inconsistencies(layout, engine, reader, roots[r]))
        << "root " << r;
    EXPECT_EQ(engine.find_inconsistencies(reader, roots[r]), got[r]);
  }
  EXPECT_FALSE(got[0].empty());
}

INSTANTIATE_TEST_SUITE_P(Jobs, MerkleMultiRootTest,
                         ::testing::Values(1, 3));

// build_full_tree is bit-identical for every worker count: the per-level
// fan-out only changes which thread computes a node, never its value, and
// writes are always issued sequentially in index order.
class MerkleParallelBuildTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleParallelBuildTest, MatchesSequentialBuild) {
  const NvmLayout layout(1ull << 20);
  const MerkleEngine engine(crypto::HmacKey::from_seed(9), layout);
  Rng rng(9);
  std::vector<Line> leaves(layout.num_pages());
  for (Line& l : leaves) {
    for (auto& b : l) b = static_cast<std::uint8_t>(rng.next());
  }
  const auto reader = [&](const NodeId& id) -> Line {
    return leaves[id.index];
  };

  std::map<NodeId, Line> seq_nodes;
  std::vector<NodeId> seq_order;
  const Line seq_root = engine.build_full_tree(
      reader, [&](const NodeId& id, const Line& v) {
        seq_nodes[id] = v;
        seq_order.push_back(id);
      });

  std::map<NodeId, Line> par_nodes;
  std::vector<NodeId> par_order;
  const Line par_root = engine.build_full_tree(
      reader,
      [&](const NodeId& id, const Line& v) {
        par_nodes[id] = v;
        par_order.push_back(id);
      },
      GetParam());

  EXPECT_EQ(par_root, seq_root);
  EXPECT_EQ(par_nodes, seq_nodes);
  EXPECT_EQ(par_order, seq_order) << "write order must not depend on jobs";
}

INSTANTIATE_TEST_SUITE_P(Jobs, MerkleParallelBuildTest,
                         ::testing::Values(0, 1, 2, 7));

}  // namespace
}  // namespace ccnvm::secure
