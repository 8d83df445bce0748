// The level-persisted designs (docs/MODEL.md §5b): SC — strict
// consistency (§2.3, §5) — and, from PAPERS.md, Triad-NVM (Awad et al.,
// ISCA'19) and Phoenix (Alwadi et al.).
//
// Every write-back recomputes the branch serially to the root and
// atomically persists the counter line plus the path nodes up to a
// frontier level in one WPQ batch (atomicity piggybacks on persistent
// registers, as in Osiris). Levels above the frontier stay chip-only:
// recomputed from their children on a miss, rebuilt at recovery. Two
// preset values, fixed by the design kind, span the three designs:
//   frontier         — the whole tree for SC and Phoenix (the paper's
//                      12-level/16 GB SC writes 11 metadata lines per
//                      data line); levels 1..N for Triad-NVM
//                      (`DesignConfig::persist_level`, clamped);
//   overlap_transfer — the WPQ push of each persisted line adds 4 cycles
//                      after the walk (SC, Triad-NVM), or Phoenix streams
//                      it alongside the chain recomputation.
#pragma once

#include "core/design.h"

namespace ccnvm::baselines {

class LevelPersistedDesign : public core::SecureNvmBase {
 public:
  /// `kind` is kStrict, kTriadNvm or kPhoenix.
  LevelPersistedDesign(core::DesignKind kind,
                       const core::DesignConfig& config);

  core::DesignKind kind() const override { return kind_; }

 protected:
  std::uint64_t on_write_back_metadata(Addr addr, bool counter_was_cached,
                                       std::uint64_t crypt_cycles) override;
  std::uint64_t on_meta_eviction(Addr line_addr, bool dirty) override;
  std::uint64_t fetch_metadata(Addr line_addr) override;

  core::RecoveryMode recovery_mode() const override {
    return core::RecoveryMode::kLevelPersisted;
  }

  bool tree_level_persisted(std::uint32_t level) const override {
    return level <= frontier_;
  }

  void augment_recovery_inputs(core::RecoveryInputs& inputs) override {
    inputs.persist_level = frontier_;
  }

 private:
  /// A tree node above the frontier: never persisted, no NVM copy.
  bool above_frontier(Addr line_addr) const {
    return layout_.is_mt_addr(line_addr) &&
           layout_.node_id_of(line_addr).level > frontier_;
  }

  core::DesignKind kind_;
  std::uint32_t frontier_;  // highest tree level persisted per write-back
  bool overlap_transfer_;
};

}  // namespace ccnvm::baselines
