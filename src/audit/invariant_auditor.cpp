#include "audit/invariant_auditor.h"

#include <array>
#include <span>
#include <unordered_set>

#include "secure/counter_block.h"

namespace ccnvm::audit {

namespace {

/// NodeReader over the NVM image: level 0 serves counter lines from the
/// counter region, internal levels serve stored tree nodes. Never-written
/// lines read as zero, matching the formatted all-zero-counter tree.
secure::MerkleEngine::NodeReader image_reader(const core::AuditView& view) {
  return [&view](const nvm::NodeId& id) -> Line {
    if (id.level == 0) {
      return view.image->read_line(
          view.layout->counter_line_addr(id.index * kPageSize));
    }
    return view.image->read_line(view.layout->node_addr(id));
  };
}

/// Whether the store's (logical) value of metadata line `a` has moved past
/// its NVM copy. Only answerable for functional designs.
bool line_divergent(const core::AuditView& view, Addr a) {
  if (view.meta == nullptr) return false;
  if (view.layout->is_counter_addr(a)) {
    const auto& cb = view.meta->counter(view.layout->counter_line_index(a));
    return cb.pack() != view.image->read_line(a);
  }
  return view.meta->node_line(view.layout->node_id_of(a)) !=
         view.image->read_line(a);
}

}  // namespace

void InvariantAuditor::attach(core::SecureNvmBase& design) {
  design.attach_observer(this);
  // Baselines for a mid-life attach: trust the current registers once and
  // audit every change from here on.
  write_backs_since_commit_ = design.tcb().n_wb;
  crashed_ = design.crashed();
  drain_state_ = DrainState::kIdle;
  batch_lines_ = 0;
  evicted_this_epoch_.clear();
}

bool InvariantAuditor::is_cc_design(const core::AuditView& view) const {
  return view.daq != nullptr;
}

bool InvariantAuditor::tree_persisted(const core::AuditView& view) const {
  // w/o CC persists evicted lines with no atomicity (its image is
  // legitimately torn after a crash), Osiris Plus never persists tree
  // nodes at all, and Triad-NVM deliberately leaves the levels above its
  // frontier volatile (the image cannot verify whole against any root);
  // only SC, Phoenix and the cc-NVM family commit a consistent
  // NVM-resident tree.
  return view.kind == core::DesignKind::kStrict ||
         view.kind == core::DesignKind::kPhoenix ||
         view.kind == core::DesignKind::kCcNvmNoDs ||
         view.kind == core::DesignKind::kCcNvm ||
         view.kind == core::DesignKind::kCcNvmPlus;
}

void InvariantAuditor::check_daq(const core::AuditView& view) {
  const core::DirtyAddressQueue& daq = *view.daq;
  ++checks_;

  // I1: unique entries, queue within its capacity, capacity within WPQ.
  CCNVM_CHECK_MSG(daq.size() <= daq.capacity(), "DAQ grew past its capacity");
  CCNVM_CHECK_MSG(daq.capacity() <= view.config->wpq_entries,
                  "DAQ sized above the WPQ — a drain batch could not fit ADR");
  std::unordered_set<Addr> seen;
  for (Addr a : daq.entries()) {
    CCNVM_CHECK_MSG(seen.insert(a).second, "duplicate DAQ entry");
    CCNVM_CHECK_MSG(view.layout->is_metadata_addr(a),
                    "DAQ tracks a non-metadata address");
  }

  // I2a (cache view): every dirty Meta Cache metadata line is DAQ-tracked
  // — a dirty line outside the queue would be stranded by the next
  // drain's commit.
  view.meta_cache->for_each_dirty([&](Addr line) {
    CCNVM_CHECK_MSG(daq.contains(line),
                    "dirty Meta Cache line not tracked in the DAQ");
  });

  // I2a (store view, functional designs): every metadata line whose
  // logical value has moved past its committed NVM copy must be tracked —
  // this is the coverage invariant that makes the next drain's commit a
  // complete tree step, and it catches stranded lines the cache's dirty
  // bits no longer reflect (e.g. a line cleaned by a mid-write-back
  // commit, then updated again).
  if (view.meta != nullptr) {
    ++checks_;
    for (std::uint64_t leaf = 0; leaf < view.layout->num_pages(); ++leaf) {
      const Addr cline = view.layout->counter_line_addr(leaf * kPageSize);
      if (line_divergent(view, cline)) {
        CCNVM_CHECK_MSG(daq.contains(cline),
                        "counter line ahead of its NVM copy but untracked");
      }
      for (const nvm::NodeId& id :
           view.layout->path_to_root(leaf * kPageSize)) {
        const Addr naddr = view.layout->node_addr(id);
        if (line_divergent(view, naddr)) {
          CCNVM_CHECK_MSG(daq.contains(naddr),
                          "tree node ahead of its NVM copy but untracked");
        }
      }
    }
  }

  // I2b: every DAQ entry is accounted for — a cached line (dirty, or
  // clean because an embedded mid-write-back commit already persisted it
  // and the resumed walk conservatively re-tracked it), a line displaced
  // from the cache this epoch, a reserved spread node on the tree path of
  // a tracked counter (§4.3's deferred updates), or a line whose store
  // value moved past the NVM copy. What this rules out is garbage: an
  // address that was never part of the epoch at all.
  std::unordered_set<Addr> reserved_nodes;
  for (Addr a : daq.entries()) {
    if (!view.layout->is_counter_addr(a)) continue;
    const std::uint64_t leaf = view.layout->counter_line_index(a);
    for (const nvm::NodeId& id :
         view.layout->path_to_root(leaf * kPageSize)) {
      reserved_nodes.insert(view.layout->node_addr(id));
    }
  }
  for (Addr a : daq.entries()) {
    const bool accounted = view.meta_cache->probe(a) ||
                           evicted_this_epoch_.contains(a) ||
                           reserved_nodes.contains(a) ||
                           line_divergent(view, a);
    CCNVM_CHECK_MSG(accounted,
                    "DAQ entry is neither a cached line, an evicted line, a "
                    "reserved spread node, nor ahead of its NVM copy");
  }
}

void InvariantAuditor::check_image_against_roots(const core::AuditView& view,
                                                 bool committed_only) {
  if (!options_.verify_image) return;
  if (view.meta == nullptr) return;  // timing-only: image has no contents
  if (!tree_persisted(view)) return;
  ++checks_;
  ++image_verifications_;
  const secure::MerkleEngine::NodeReader reader = image_reader(view);
  // One pass checks the image against ROOT_old and, unless only the
  // committed state counts, ROOT_new.
  const std::array<Line, 2> roots = {view.tcb->root_old, view.tcb->root_new};
  const auto bad = view.merkle->find_inconsistencies(
      reader, std::span<const Line>(roots).first(committed_only ? 1 : 2));
  if (bad[0].empty()) return;
  const bool matches_new = !committed_only && bad[1].empty();
  CCNVM_CHECK_MSG(matches_new,
                  committed_only
                      ? "committed NVM tree does not verify against the "
                        "committed root"
                      : "NVM tree verifies against neither ROOT_old nor "
                        "ROOT_new — the §4.2 crash invariant is broken");
}

void InvariantAuditor::check_osiris_stop_loss(const core::AuditView& view,
                                              Addr data_addr) {
  if (view.meta == nullptr) return;
  ++checks_;
  const Addr cline = view.layout->counter_line_addr(data_addr);
  const auto nvm_cb =
      secure::CounterBlock::unpack(view.image->read_line(cline));
  const auto& live =
      view.meta->counter(view.layout->counter_line_index(cline));
  CCNVM_CHECK_MSG(nvm_cb.major == live.major,
                  "Osiris stop-loss: persisted major counter fell behind");
  for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
    const bool within =
        nvm_cb.minors[b] <= live.minors[b] &&
        static_cast<std::uint32_t>(live.minors[b] - nvm_cb.minors[b]) <=
            view.config->update_limit;
    CCNVM_CHECK_MSG(within,
                    "Osiris stop-loss: persisted counter stale by more than "
                    "the update limit (§3)");
  }
}

void InvariantAuditor::on_write_back_complete(const core::AuditView& view,
                                              Addr data_addr) {
  ++events_;
  if (crashed_) return;
  if (is_cc_design(view)) {
    // I3: the ++N_wb of this write-back is included unless a drain commit
    // fired later inside the same write-back (update-limit trigger) and
    // reset it.
    ++checks_;
    const std::uint64_t n_wb = view.tcb->n_wb;
    if (n_wb == write_backs_since_commit_ + 1) {
      write_backs_since_commit_ = n_wb;
    } else {
      CCNVM_CHECK_MSG(commit_since_last_write_back_ &&
                          n_wb == write_backs_since_commit_,
                      "N_wb disagrees with the write-backs observed since "
                      "the last commit (§4.3)");
    }
    check_daq(view);
  }
  if (view.kind == core::DesignKind::kOsirisPlus) {
    check_osiris_stop_loss(view, data_addr);
  }
  commit_since_last_write_back_ = false;
}

void InvariantAuditor::on_meta_eviction(const core::AuditView& view,
                                        Addr line_addr, bool /*dirty*/) {
  ++events_;
  if (is_cc_design(view)) evicted_this_epoch_.insert(line_addr);
}

void InvariantAuditor::on_propagate_step(const core::AuditView& /*view*/,
                                         Addr /*data_addr*/,
                                         std::uint32_t /*child_level*/,
                                         bool child_was_cached,
                                         bool stop_at_cached) {
  ++events_;
  ++checks_;
  // I7: a step past an already-cached child defeats deferred spreading —
  // the DAQ has reserved that subtree for drain time.
  CCNVM_CHECK_MSG(!(stop_at_cached && child_was_cached),
                  "deferred-spreading walk stepped past a cached node");
}

void InvariantAuditor::on_propagate_stop(const core::AuditView& /*view*/,
                                         Addr /*data_addr*/,
                                         std::uint32_t /*child_level*/,
                                         bool child_was_cached,
                                         bool stop_at_cached,
                                         bool reached_root) {
  ++events_;
  ++checks_;
  // I7: the walk may end early only by the stop-at-first-cached rule.
  CCNVM_CHECK_MSG(reached_root || (stop_at_cached && child_was_cached),
                  "tree walk stopped before the root without the "
                  "deferred-spreading stop condition");
}

void InvariantAuditor::on_crash(const core::AuditView& view) {
  ++events_;
  crashed_ = true;
  drain_state_ = DrainState::kIdle;
  batch_lines_ = 0;
  // I6: whatever the crash interrupted — including every DrainCrashPoint
  // — ADR's all-or-nothing batch leaves the NVM tree consistent with one
  // of the two roots.
  check_image_against_roots(view, /*committed_only=*/false);
}

void InvariantAuditor::on_recovery_complete(
    const core::AuditView& view, const core::RecoveryReport& report) {
  ++events_;
  if (!report.metadata_recovered) return;
  ++checks_;
  CCNVM_CHECK_MSG(view.tcb->n_wb == 0, "recovery left N_wb unreset");
  CCNVM_CHECK_MSG(view.tcb->root_old == view.tcb->root_new,
                  "recovery left divergent roots");
  check_image_against_roots(view, /*committed_only=*/true);
  crashed_ = false;
  write_backs_since_commit_ = 0;
  commit_since_last_write_back_ = false;
  evicted_this_epoch_.clear();
}

void InvariantAuditor::on_drain_start(const core::AuditView& view,
                                      core::DrainTrigger /*trigger*/) {
  ++events_;
  ++checks_;
  CCNVM_CHECK_MSG(drain_state_ == DrainState::kIdle,
                  "drain started inside an open drain");
  drain_state_ = DrainState::kStarted;
  batch_lines_ = 0;
  check_daq(view);
}

void InvariantAuditor::on_drain_batch_line(const core::AuditView& view,
                                           Addr line_addr) {
  ++events_;
  ++checks_;
  // I4: batching happens strictly between the start and end signals, only
  // for DAQ-tracked lines, and never beyond what ADR can flush.
  CCNVM_CHECK_MSG(drain_state_ == DrainState::kStarted,
                  "metadata batched outside the start/end window");
  CCNVM_CHECK_MSG(view.controller->batch_open(),
                  "drain streamed a line with no open WPQ batch");
  CCNVM_CHECK_MSG(view.daq->contains(line_addr),
                  "drain batched a line the DAQ never tracked");
  ++batch_lines_;
  CCNVM_CHECK_MSG(batch_lines_ <= view.config->wpq_entries,
                  "drain batch exceeded the WPQ");
}

void InvariantAuditor::on_drain_end(const core::AuditView& view) {
  ++events_;
  ++checks_;
  CCNVM_CHECK_MSG(drain_state_ == DrainState::kStarted,
                  "end signal without an open drain");
  CCNVM_CHECK_MSG(!view.controller->batch_open(),
                  "end signal left the WPQ batch open");
  drain_state_ = DrainState::kEnded;
}

void InvariantAuditor::on_drain_commit(const core::AuditView& view) {
  ++events_;
  ++checks_;
  // I4: registers may only step once the end signal has made the batch
  // durable — committing earlier reopens the torn-tree window §4.2 closes.
  CCNVM_CHECK_MSG(drain_state_ == DrainState::kEnded,
                  "registers committed before the drain's end signal");
  // I5: the committed state is quiescent and self-consistent.
  CCNVM_CHECK_MSG(view.tcb->n_wb == 0, "commit did not reset N_wb");
  CCNVM_CHECK_MSG(view.tcb->root_old == view.tcb->root_new,
                  "commit left ROOT_old behind ROOT_new");
  CCNVM_CHECK_MSG(view.daq->empty(), "commit left entries in the DAQ");
  CCNVM_CHECK_MSG(view.meta_cache->dirty_count() == 0,
                  "commit left dirty metadata in the Meta Cache");
  check_image_against_roots(view, /*committed_only=*/true);
  drain_state_ = DrainState::kIdle;
  batch_lines_ = 0;
  write_backs_since_commit_ = 0;
  commit_since_last_write_back_ = true;
  evicted_this_epoch_.clear();
}

}  // namespace ccnvm::audit
