#include "baselines/level_persisted.h"

#include <algorithm>
#include <limits>

namespace ccnvm::baselines {

LevelPersistedDesign::LevelPersistedDesign(core::DesignKind kind,
                                           const core::DesignConfig& config)
    : SecureNvmBase(config),
      kind_(kind),
      frontier_(std::min(kind == core::DesignKind::kTriadNvm
                             ? config.persist_level
                             : std::numeric_limits<std::uint32_t>::max(),
                         layout_.root_level() - 1)),
      overlap_transfer_(kind == core::DesignKind::kPhoenix) {
  CCNVM_CHECK_MSG(core::commits_every_write_back(kind),
                  "not a level-persisted design kind");
}

std::uint64_t LevelPersistedDesign::on_write_back_metadata(
    Addr addr, bool counter_was_cached, std::uint64_t crypt_cycles) {
  // Serial recomputation all the way to the root: each parent HMAC needs
  // the child's new contents, so the chain itself never overlaps (§2.3);
  // the data encryption pipeline runs alongside it.
  const std::uint64_t walk =
      propagate_path(addr, counter_was_cached, /*stop_at_cached=*/false);

  // Persistence barrier: atomically flush the counter line plus the path
  // nodes at levels 1..frontier. Levels above it never hit the WPQ — the
  // write traffic Triad-NVM saves over SC. Lines stay cached (clean) for
  // reuse.
  InlineVec<Addr, 32> branch;
  for (Addr line : metadata_addrs_for(addr)) {
    if (!above_frontier(line)) branch.push_back(line);
  }
  controller_.begin_atomic_batch();
  for (Addr line : branch) persist_metadata(line, /*batched=*/true);
  controller_.end_atomic_batch();
  for (Addr line : branch) meta_cache_.clean(line);
  tcb_.root_old = tcb_.root_new;
  tcb_.n_wb = 0;

  // On-chip transfer into the WPQ, 4 cycles per line.
  const auto transfer = static_cast<std::uint64_t>(4 * branch.size());
  return overlap_transfer_ ? std::max({crypt_cycles, walk, transfer})
                           : std::max(crypt_cycles, walk) + transfer;
}

std::uint64_t LevelPersistedDesign::on_meta_eviction(Addr line_addr,
                                                     bool dirty) {
  // Above the frontier a dirty line is dropped, recomputable from the
  // levels below. At or below it, dirty lines exist only transiently
  // inside the current write-back's propagation; the pending batch flush
  // covers their final values, making the eviction write safe (and at
  // worst redundant).
  if (dirty && !above_frontier(line_addr)) {
    persist_metadata(line_addr, /*batched=*/false);
  }
  return 0;
}

std::uint64_t LevelPersistedDesign::fetch_metadata(Addr line_addr) {
  if (above_frontier(line_addr)) {
    // No current NVM copy exists above the frontier: recompute the node
    // from its children, one counter-HMAC per child slot (Osiris-style).
    stats_.hmac_ops += nvm::NvmLayout::kArity;
    return nvm::NvmLayout::kArity * timing_.hmac_latency;
  }
  // Counters and levels up to the frontier persist on every write-back,
  // so the default fetch-and-verify against the committed chain applies.
  return SecureNvmBase::fetch_metadata(line_addr);
}

}  // namespace ccnvm::baselines
