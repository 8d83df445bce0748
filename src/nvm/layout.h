// Physical layout of a secure NVM DIMM.
//
// The paper's memory is one flat physical address space that holds four
// kinds of lines (Figure 1):
//   [ data | encryption counters | Merkle-tree internal nodes | data HMACs ]
// NvmLayout computes, for a given data capacity, where each region lives
// and how a data address maps to its counter line, its tree path, and its
// data-HMAC slot. All security metadata addressing in the system funnels
// through this class, which is what makes the Drainer's "the related
// metadata addresses are deterministic" property (§4.2) hold.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/inline_vec.h"
#include "common/types.h"

namespace ccnvm::nvm {

/// Identifies a Merkle-tree node. Level 0 is the counter-line leaf level;
/// the root (held in the TCB, not in NVM) is level `depth`.
struct NodeId {
  std::uint32_t level = 0;
  std::uint64_t index = 0;

  friend bool operator==(const NodeId&, const NodeId&) = default;
  friend auto operator<=>(const NodeId&, const NodeId&) = default;
};

class NvmLayout {
 public:
  /// Tree arity: each counter-HMAC node authenticates 4 children (128-bit
  /// HMACs, 4 per 64 B node), giving the paper's 4-ary tree with 12 levels
  /// at 16 GB.
  static constexpr std::uint64_t kArity = 4;

  /// Builds a layout for `data_capacity` bytes of protected data.
  /// Capacity must be a multiple of the page size and a power-of-kArity
  /// number of pages so that the tree is complete.
  explicit NvmLayout(std::uint64_t data_capacity);

  std::uint64_t data_capacity() const { return data_capacity_; }
  std::uint64_t num_pages() const { return num_pages_; }
  std::uint64_t num_data_lines() const { return data_capacity_ / kLineSize; }

  /// Number of tree levels counting leaves and root, e.g. 12 at 16 GB.
  std::uint32_t tree_levels() const { return depth_ + 1; }
  /// Level index of the root (== number of edge hops from a leaf).
  std::uint32_t root_level() const { return depth_; }
  /// Internal NVM-resident levels are 1 .. root_level()-1.
  std::uint64_t nodes_at_level(std::uint32_t level) const;

  bool is_data_addr(Addr a) const { return a < data_capacity_; }
  bool is_counter_addr(Addr a) const {
    return a >= counter_base_ && a < counter_base_ + counter_bytes_;
  }
  bool is_mt_addr(Addr a) const {
    return a >= mt_base_ && a < mt_base_ + mt_bytes_;
  }
  bool is_dh_addr(Addr a) const {
    return a >= dh_base_ && a < dh_base_ + dh_bytes_;
  }
  /// True for counter or Merkle-tree lines — the state the Meta Cache holds.
  bool is_metadata_addr(Addr a) const {
    return is_counter_addr(a) || is_mt_addr(a);
  }

  /// Address of the counter line covering the page of `data_addr`.
  Addr counter_line_addr(Addr data_addr) const;
  /// Inverse: which leaf index (page) a counter line covers.
  std::uint64_t counter_line_index(Addr counter_addr) const;

  /// Address of the 64 B line holding the 16 B data HMAC of the block at
  /// `data_addr` (4 tags per line).
  Addr dh_line_addr(Addr data_addr) const;
  /// Byte offset of the tag within its line (0, 16, 32 or 48).
  std::size_t dh_offset_in_line(Addr data_addr) const;

  /// NVM address of an internal tree node. Precondition:
  /// 1 <= id.level < root_level().
  Addr node_addr(const NodeId& id) const;
  /// Inverse of node_addr.
  NodeId node_id_of(Addr mt_addr) const;

  NodeId parent(const NodeId& id) const {
    CCNVM_CHECK(id.level < depth_);
    return {id.level + 1, id.index / kArity};
  }
  NodeId child(const NodeId& id, std::uint64_t slot) const {
    CCNVM_CHECK(id.level >= 1 && slot < kArity);
    return {id.level - 1, id.index * kArity + slot};
  }
  /// Which of its parent's kArity slots this node occupies.
  std::uint64_t slot_in_parent(const NodeId& id) const {
    return id.index % kArity;
  }

  /// The tree path for a data address: its leaf counter line's ancestors
  /// from level 1 up to (and excluding) the root. Ordered bottom-up.
  /// Held inline: a 64-bit capacity has at most 2^52 pages, so at most 25 nodes.
  InlineVec<NodeId, 32> path_to_root(Addr data_addr) const;

  /// Total physical footprint (end of the DH region).
  std::uint64_t total_bytes() const { return dh_base_ + dh_bytes_; }

 private:
  std::uint64_t data_capacity_;
  std::uint64_t num_pages_;
  std::uint32_t depth_ = 0;  // root level
  std::vector<std::uint64_t> level_offset_lines_;  // per level 1..depth-1

  Addr counter_base_ = 0;
  std::uint64_t counter_bytes_ = 0;
  Addr mt_base_ = 0;
  std::uint64_t mt_bytes_ = 0;
  Addr dh_base_ = 0;
  std::uint64_t dh_bytes_ = 0;
};

}  // namespace ccnvm::nvm
