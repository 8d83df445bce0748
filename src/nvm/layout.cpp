#include "nvm/layout.h"

namespace ccnvm::nvm {

NvmLayout::NvmLayout(std::uint64_t data_capacity)
    : data_capacity_(data_capacity), num_pages_(data_capacity / kPageSize) {
  CCNVM_CHECK_MSG(data_capacity % kPageSize == 0,
                  "capacity must be whole pages");
  CCNVM_CHECK_MSG(num_pages_ >= 1, "need at least one page");

  // Depth: smallest d with kArity^d >= num_pages (complete tree).
  std::uint64_t cover = 1;
  depth_ = 0;
  while (cover < num_pages_) {
    cover *= kArity;
    ++depth_;
  }
  CCNVM_CHECK_MSG(cover == num_pages_,
                  "page count must be a power of the tree arity");
  // A single-page device would have the root directly over one counter
  // line; give it one real tree hop so the path machinery is uniform.
  if (depth_ == 0) depth_ = 1;

  counter_base_ = data_capacity_;
  counter_bytes_ = num_pages_ * kLineSize;

  mt_base_ = counter_base_ + counter_bytes_;
  std::uint64_t lines = 0;
  level_offset_lines_.assign(depth_, 0);  // index by level, 1..depth-1 used
  for (std::uint32_t level = 1; level < depth_; ++level) {
    level_offset_lines_[level] = lines;
    lines += nodes_at_level(level);
  }
  mt_bytes_ = lines * kLineSize;

  dh_base_ = mt_base_ + mt_bytes_;
  dh_bytes_ = num_data_lines() * sizeof(Tag128);
}

std::uint64_t NvmLayout::nodes_at_level(std::uint32_t level) const {
  CCNVM_CHECK(level <= depth_);
  std::uint64_t n = num_pages_;
  for (std::uint32_t i = 0; i < level; ++i) {
    n = (n + kArity - 1) / kArity;
  }
  return n == 0 ? 1 : n;
}

Addr NvmLayout::counter_line_addr(Addr data_addr) const {
  CCNVM_CHECK(is_data_addr(data_addr));
  return counter_base_ + (data_addr / kPageSize) * kLineSize;
}

std::uint64_t NvmLayout::counter_line_index(Addr counter_addr) const {
  CCNVM_CHECK(is_counter_addr(counter_addr));
  return (counter_addr - counter_base_) / kLineSize;
}

Addr NvmLayout::dh_line_addr(Addr data_addr) const {
  CCNVM_CHECK(is_data_addr(data_addr));
  const std::uint64_t tag_index = data_addr / kLineSize;
  return line_base(dh_base_ + tag_index * sizeof(Tag128));
}

std::size_t NvmLayout::dh_offset_in_line(Addr data_addr) const {
  CCNVM_CHECK(is_data_addr(data_addr));
  const std::uint64_t tag_index = data_addr / kLineSize;
  return static_cast<std::size_t>((tag_index * sizeof(Tag128)) % kLineSize);
}

Addr NvmLayout::node_addr(const NodeId& id) const {
  CCNVM_CHECK_MSG(id.level >= 1 && id.level < depth_,
                  "only internal levels live in NVM");
  CCNVM_CHECK(id.index < nodes_at_level(id.level));
  return mt_base_ + (level_offset_lines_[id.level] + id.index) * kLineSize;
}

NodeId NvmLayout::node_id_of(Addr mt_addr) const {
  CCNVM_CHECK(is_mt_addr(mt_addr));
  const std::uint64_t line = (mt_addr - mt_base_) / kLineSize;
  for (std::uint32_t level = depth_ - 1; level >= 1; --level) {
    if (line >= level_offset_lines_[level]) {
      return {level, line - level_offset_lines_[level]};
    }
  }
  CCNVM_CHECK_MSG(false, "unreachable: address not in any level");
  return {};
}

InlineVec<NodeId, 32> NvmLayout::path_to_root(Addr data_addr) const {
  CCNVM_CHECK(is_data_addr(data_addr));
  InlineVec<NodeId, 32> path;
  NodeId node{0, data_addr / kPageSize};
  while (node.level < depth_ - 1) {
    node = parent(node);
    path.push_back(node);
  }
  return path;
}

}  // namespace ccnvm::nvm
