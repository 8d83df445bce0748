// The processor's current (logical) view of all security metadata.
//
// Architecturally this state is spread across the Meta Cache and NVM; the
// *values* however are uniquely determined — a line's current value is the
// cached copy when present, else the NVM copy. MetadataStore materializes
// that merged view so the functional engine can update counters and tree
// nodes without round-tripping through cache payload modelling. The Meta
// Cache model (src/cache) still decides *presence and dirtiness*, which is
// what drives timing and crash behaviour; on a crash the MetadataStore is
// discarded wholesale and the system is left with only the NVM image —
// exactly the paper's failure model.
#pragma once

#include <vector>

#include "common/check.h"
#include "secure/counter_block.h"
#include "secure/merkle.h"

namespace ccnvm::secure {

class MetadataStore {
 public:
  /// `jobs` spreads the construction-time format() (see build_full_tree).
  MetadataStore(const NvmLayout& layout, const MerkleEngine& engine,
                std::size_t jobs = 1)
      : layout_(&layout), engine_(&engine) {
    counters_.resize(layout.num_pages());
    levels_.resize(layout.root_level());  // levels 1..root-1 stored; [0] unused
    for (std::uint32_t level = 1; level < layout.root_level(); ++level) {
      levels_[level].resize(layout.nodes_at_level(level));
    }
    format(jobs);
  }

  /// (Re)computes every tree node from the current counters — used at
  /// construction ("formatting" the secure DIMM with an all-zero
  /// consistent tree) and by tests.
  void format(std::size_t jobs = 1) {
    root_ = engine_->build_full_tree(
        [this](const NodeId& id) { return node_line(id); },
        [this](const NodeId& id, const Line& value) { set_node(id, value); },
        jobs);
  }

  CounterBlock& counter(std::uint64_t leaf_index) {
    CCNVM_CHECK(leaf_index < counters_.size());
    return counters_[leaf_index];
  }
  const CounterBlock& counter(std::uint64_t leaf_index) const {
    CCNVM_CHECK(leaf_index < counters_.size());
    return counters_[leaf_index];
  }

  /// Contents of any tree level: packed counter line at level 0, internal
  /// node, or the root.
  Line node_line(const NodeId& id) const {
    if (id.level == 0) return counters_[id.index].pack();
    if (id.level == layout_->root_level()) return root_;
    CCNVM_CHECK(id.index < levels_[id.level].size());
    return levels_[id.level][id.index];
  }

  void set_node(const NodeId& id, const Line& value) {
    CCNVM_CHECK_MSG(id.level >= 1, "leaf contents come from counters");
    if (id.level == layout_->root_level()) {
      root_ = value;
      return;
    }
    CCNVM_CHECK(id.index < levels_[id.level].size());
    levels_[id.level][id.index] = value;
  }

  const Line& root() const { return root_; }

  const NvmLayout& layout() const { return *layout_; }
  const MerkleEngine& engine() const { return *engine_; }

 private:
  const NvmLayout* layout_;
  const MerkleEngine* engine_;
  std::vector<CounterBlock> counters_;
  std::vector<std::vector<Line>> levels_;
  Line root_{};
};

}  // namespace ccnvm::secure
