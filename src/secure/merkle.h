// Bonsai Merkle tree engine (§2.2, Figure 1).
//
// Geometry comes from NvmLayout: leaves (level 0) are the counter lines,
// internal nodes (levels 1 .. root-1) live in NVM, and the root lives in a
// TCB register. Every node is a 64-byte line holding kArity 128-bit
// counter-HMACs over the children's *contents* — position binding is
// implicit in path verification, as in a standard Merkle tree: relocating
// a node changes which parent slot its hash is checked against, and the
// leaf counters themselves are bound to data addresses through the data
// HMACs.
//
// The engine is deliberately storage-agnostic: callers pass reader/writer
// functions, so the same code computes over the TCB's logical state, over
// an NVM image during recovery, or over a hypothetical state in tests.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "crypto/hmac_sha1.h"
#include "nvm/layout.h"

namespace ccnvm::secure {

using nvm::NodeId;
using nvm::NvmLayout;

class MerkleEngine {
 public:
  using NodeReader = std::function<Line(const NodeId&)>;
  using NodeWriter = std::function<void(const NodeId&, const Line&)>;

  MerkleEngine(const crypto::HmacKey& key, const NvmLayout& layout)
      : mac_(key), layout_(&layout) {}

  /// Counter-HMAC of a node's contents.
  Tag128 node_tag(const Line& contents) const;

  /// Recomputes node `id` (level >= 1) from its children via `read_child`.
  /// Children beyond the last real node at a level hash as zero lines, so
  /// incomplete bottom levels are well defined.
  Line compute_node(const NodeId& id, const NodeReader& read_child) const;

  /// Batch form: out[i] = compute_node(ids[i], read_child), with the
  /// children's counter-HMACs of the whole group tagged through
  /// HmacEngine::tag_many so they fill SIMD lanes (4*kArity tags per
  /// 4-node group). Bit-identical to the serial loop; `read_child` is
  /// invoked in the same order the serial loop would. ids and out must
  /// have the same size.
  void compute_nodes(std::span<const NodeId> ids, const NodeReader& read_child,
                     std::span<Line> out) const;

  /// Root node id for this geometry.
  NodeId root_id() const { return {layout_->root_level(), 0}; }

  /// Rebuilds the whole tree bottom-up from leaves. `read` must serve
  /// level-0 reads (counter lines); every computed internal node is handed
  /// to `write` and also served back to further computation. Returns the
  /// root line.
  ///
  /// Nodes within a level have no mutual dependencies, so each level is
  /// computed over the deterministic executor with `jobs` workers (1 =
  /// inline, 0 = hardware concurrency). `read` must then be safe to call
  /// concurrently; `write` is always invoked sequentially in index order
  /// from the calling thread, and the result is bit-identical for any
  /// `jobs` value.
  Line build_full_tree(const NodeReader& read, const NodeWriter& write,
                       std::size_t jobs = 1) const;

  /// Verifies the stored tree (served by `read`, including level 0 leaves
  /// and internal nodes) against `root`. Returns every node id whose
  /// stored contents disagree with the slot its parent committed to — for
  /// a replay of node X, this reports X (parent mismatch localizes the
  /// replayed subtree, recovery step 1 of §4.4) — ordered by level, then
  /// index. Every stored node is read once (from the calling thread,
  /// bottom-up) and tagged once, level by level through tag_many with
  /// `jobs` workers (1 = inline, 0 = hardware concurrency).
  std::vector<NodeId> find_inconsistencies(const NodeReader& read,
                                           const Line& root,
                                           std::size_t jobs = 1) const;

  /// Multi-root form: out[r] == find_inconsistencies(read, roots[r]), in
  /// the same single pass — only the comparison against the root is
  /// repeated per candidate. Recovery checks ROOT_new and ROOT_old this
  /// way for the price of one.
  std::vector<std::vector<NodeId>> find_inconsistencies(
      const NodeReader& read, std::span<const Line> roots,
      std::size_t jobs = 1) const;

  /// Verifies only the path covering `data_addr` (runtime read-side
  /// verification). Returns the first mismatching node bottom-up, or
  /// nullopt when the path checks out against `root`.
  std::optional<NodeId> verify_path(Addr data_addr, const NodeReader& read,
                                    const Line& root) const;

  const NvmLayout& layout() const { return *layout_; }

 private:
  bool node_exists(const NodeId& id) const {
    return id.index < layout_->nodes_at_level(id.level);
  }

  /// out[i] = node_tag(lines[i]), through tag_many in fixed chunks spread
  /// over `jobs` workers; bit-identical for any `jobs`.
  void node_tags(std::span<const Line> lines, std::span<Tag128> out,
                 std::size_t jobs) const;

  // Midstate-cached HMAC context for the counter-HMAC key; computing a
  // node tag costs three SHA-1 compressions instead of five.
  crypto::HmacEngine mac_;
  const NvmLayout* layout_;
};

}  // namespace ccnvm::secure
