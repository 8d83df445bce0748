#include "secure/merkle.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"

namespace ccnvm::secure {

Tag128 MerkleEngine::node_tag(const Line& contents) const {
  return mac_.tag(contents);
}

Line MerkleEngine::compute_node(const NodeId& id,
                                const NodeReader& read_child) const {
  CCNVM_CHECK_MSG(id.level >= 1, "leaves are counter lines, not computed");
  Line node{};
  for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
    const NodeId child = layout_->child(id, slot);
    const Line contents = node_exists(child) ? read_child(child) : zero_line();
    const Tag128 tag = node_tag(contents);
    std::memcpy(node.data() + slot * sizeof(Tag128), tag.bytes.data(),
                sizeof(Tag128));
  }
  return node;
}

void MerkleEngine::compute_nodes(std::span<const NodeId> ids,
                                 const NodeReader& read_child,
                                 std::span<Line> out) const {
  CCNVM_CHECK_MSG(ids.size() == out.size(),
                  "compute_nodes: ids/out span sizes must match");
  // Bounded scratch: 64 nodes * kArity children = 256 lines (16 KiB) per
  // round, enough to keep 8-wide lanes saturated without scaling memory
  // with the level size.
  constexpr std::size_t kChunkNodes = 64;
  std::vector<Line> contents;
  std::vector<crypto::LineRef> refs;
  std::vector<Tag128> tags;
  for (std::size_t base = 0; base < ids.size(); base += kChunkNodes) {
    const std::size_t n = std::min(kChunkNodes, ids.size() - base);
    contents.resize(n * NvmLayout::kArity);
    refs.resize(n * NvmLayout::kArity);
    tags.resize(n * NvmLayout::kArity);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId& id = ids[base + i];
      CCNVM_CHECK_MSG(id.level >= 1, "leaves are counter lines, not computed");
      for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
        const NodeId child = layout_->child(id, slot);
        contents[k] =
            node_exists(child) ? read_child(child) : zero_line();
        refs[k] = {contents[k].data(), contents[k].size()};
        ++k;
      }
    }
    mac_.tag_many(refs, tags);
    k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Line node{};
      for (std::uint64_t slot = 0; slot < NvmLayout::kArity; ++slot) {
        std::memcpy(node.data() + slot * sizeof(Tag128), tags[k].bytes.data(),
                    sizeof(Tag128));
        ++k;
      }
      out[base + i] = node;
    }
  }
}

Line MerkleEngine::build_full_tree(const NodeReader& read,
                                   const NodeWriter& write,
                                   std::size_t jobs) const {
  // One flat vector per level: node {level, i} lives at prev[i] while the
  // next level up is computed, so each node is derived exactly once and
  // the nodes of a level — which only read the level below — can be
  // computed concurrently. `write` stays on the calling thread, issued in
  // index order after the level completes, so the writer sees the same
  // sequence for every `jobs` value.
  std::vector<Line> prev;
  for (std::uint32_t level = 1; level <= layout_->root_level(); ++level) {
    const std::uint64_t count = layout_->nodes_at_level(level);
    const NodeReader reader = [&](const NodeId& id) -> Line {
      if (id.level == 0) return read(id);
      CCNVM_CHECK_MSG(id.level == level - 1, "bottom-up order violated");
      return prev[id.index];
    };
    // Each worker owns a contiguous chunk of the level and batches its
    // nodes' child tags through tag_many (compute_nodes); results land by
    // index, so the output stays bit-identical for any `jobs` value.
    constexpr std::uint64_t kChunkNodes = 64;
    const std::size_t chunks =
        static_cast<std::size_t>((count + kChunkNodes - 1) / kChunkNodes);
    std::vector<Line> cur(count);
    parallel_for(chunks, jobs, [&](std::size_t c) {
      const std::uint64_t begin = static_cast<std::uint64_t>(c) * kChunkNodes;
      const std::uint64_t end = std::min(begin + kChunkNodes, count);
      std::vector<NodeId> ids;
      ids.reserve(end - begin);
      for (std::uint64_t i = begin; i < end; ++i) ids.push_back({level, i});
      compute_nodes(ids, reader,
                    {cur.data() + begin, static_cast<std::size_t>(end - begin)});
    });
    if (level < layout_->root_level()) {
      for (std::uint64_t i = 0; i < count; ++i) write(NodeId{level, i}, cur[i]);
    }
    prev = std::move(cur);
  }
  return prev.front();
}

void MerkleEngine::node_tags(std::span<const Line> lines, std::span<Tag128> out,
                             std::size_t jobs) const {
  CCNVM_CHECK_MSG(lines.size() == out.size(),
                  "node_tags: lines/out span sizes must match");
  constexpr std::size_t kChunk = 256;
  const std::size_t chunks = (lines.size() + kChunk - 1) / kChunk;
  parallel_for(chunks, jobs, [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t n = std::min(kChunk, lines.size() - begin);
    std::vector<crypto::LineRef> refs(n);
    for (std::size_t i = 0; i < n; ++i) {
      refs[i] = {lines[begin + i].data(), kLineSize};
    }
    mac_.tag_many(refs, out.subspan(begin, n));
  });
}

std::vector<NodeId> MerkleEngine::find_inconsistencies(const NodeReader& read,
                                                       const Line& root,
                                                       std::size_t jobs) const {
  return std::move(
      find_inconsistencies(read, std::span<const Line>(&root, 1), jobs)
          .front());
}

std::vector<std::vector<NodeId>> MerkleEngine::find_inconsistencies(
    const NodeReader& read, std::span<const Line> roots,
    std::size_t jobs) const {
  std::vector<std::vector<NodeId>> bad(roots.size());
  // Bottom-up: the stored lines of one level are tagged in a batch, and
  // each tag is compared with the slot the stored parent (or, under the
  // root, each candidate root) committed to. A disagreeing slot means the
  // child's stored contents are not what its parent committed to — the
  // child is the replayed or tampered node. Slots past the last real node
  // of a level have no stored child to blame and are never checked.
  const std::uint32_t root_level = layout_->root_level();
  std::vector<Line> children(layout_->nodes_at_level(0));
  for (std::uint64_t i = 0; i < children.size(); ++i) {
    children[i] = read(NodeId{0, i});
  }
  std::vector<Line> parents;
  std::vector<Tag128> tags;
  for (std::uint32_t level = 1; level <= root_level; ++level) {
    tags.resize(children.size());
    node_tags(children, tags, jobs);
    parents.clear();
    if (level < root_level) {
      parents.resize(layout_->nodes_at_level(level));
      for (std::uint64_t i = 0; i < parents.size(); ++i) {
        parents[i] = read(NodeId{level, i});
      }
    }
    for (std::uint64_t i = 0; i < children.size(); ++i) {
      const NodeId child{level - 1, i};
      const std::size_t off = layout_->slot_in_parent(child) * sizeof(Tag128);
      const auto committed = [&](const Line& parent) {
        return std::memcmp(parent.data() + off, tags[i].bytes.data(),
                           sizeof(Tag128)) == 0;
      };
      if (level < root_level) {
        if (committed(parents[i / NvmLayout::kArity])) continue;
        for (std::vector<NodeId>& b : bad) b.push_back(child);
      } else {
        for (std::size_t r = 0; r < roots.size(); ++r) {
          if (!committed(roots[r])) bad[r].push_back(child);
        }
      }
    }
    std::swap(children, parents);
  }
  return bad;
}

std::optional<NodeId> MerkleEngine::verify_path(Addr data_addr,
                                                const NodeReader& read,
                                                const Line& root) const {
  const NodeId leaf{0, data_addr / kPageSize};
  NodeId child = leaf;
  while (true) {
    const NodeId par = layout_->parent(child);
    const Line parent_line =
        (par.level == layout_->root_level()) ? root : read(par);
    const Line child_contents = read(child);
    const Tag128 expect = node_tag(child_contents);
    Tag128 stored_tag;
    std::memcpy(stored_tag.bytes.data(),
                parent_line.data() + layout_->slot_in_parent(child) *
                                         sizeof(Tag128),
                sizeof(Tag128));
    if (!(stored_tag == expect)) return child;
    if (par.level == layout_->root_level()) return std::nullopt;
    child = par;
  }
}

}  // namespace ccnvm::secure
