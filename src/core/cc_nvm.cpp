#include "core/cc_nvm.h"

#include <algorithm>

namespace ccnvm::core {

void CcNvmDesign::daq_track(Addr line_addr, const char* why) {
  // pre_write_back reserved room for everything this write-back can dirty,
  // so a full queue here — whether on the reservation itself or on a
  // re-track — is always a protocol bug, never a recoverable condition.
  const bool tracked = daq_.push(line_addr);
  CCNVM_CHECK_MSG(tracked, why);
}

std::uint64_t CcNvmDesign::pre_write_back(Addr addr) {
  // The Drainer must reserve an entry for every metadata line this
  // write-back can touch — counter line plus full tree path — even with
  // deferred spreading, where most of them are not dirtied yet (§4.3):
  // the reservation is what guarantees the eventual drain fits the WPQ.
  // The data block is forwarded only after *all* addresses are in the
  // queue (§5.1), one CAM lookup each — this is cc-NVM's residual
  // write-back blocking cost. It runs in parallel with the encryption and
  // tree-update phase (§4.2), so it is folded in via max() at the
  // metadata hook rather than added here.
  const bool overflows =
      functional() &&
      meta_->counter(addr / kPageSize).minors[block_in_page(addr)] ==
          secure::CounterBlock::kMinorMax;
  if (tcb_.overflow_pending && overflows) {
    // Trigger (3), overflow form: the TCB flag names one page in the
    // re-encryption window, so a second overflow — another page's or the
    // same page's again — first commits the one in flight. Otherwise
    // recovery meets a page whose major ran ahead of an unflagged (or
    // doubly bumped) counter line and reports a spoof.
    sync_stall_ += drain(DrainCrashPoint::kNone, DrainTrigger::kUpdateLimit);
  }
  const InlineVec<Addr, 32> addrs = metadata_addrs_for(addr);
  pending_daq_cycles_ = timing_.daq_lookup_latency * addrs.size();
  if (!daq_.can_accept(addrs)) {
    // Trigger (1): queue pressure. The drain blocks all further progress.
    sync_stall_ += drain(DrainCrashPoint::kNone, DrainTrigger::kDaqPressure);
  }
  for (Addr a : addrs) {
    daq_track(a, "DAQ sized below one write-back's path");
  }
  return 0;
}

void CcNvmDesign::on_metadata_dirtied(Addr line_addr) {
  // Re-track lines dirtied after a mid-write-back drain cleared the queue;
  // sizes were reserved in pre_write_back, so this cannot overflow.
  daq_track(line_addr, "DAQ overflow on re-track");
  if (layout_.is_counter_addr(line_addr)) {
    // A counter update invalidates its whole tree path. With deferred
    // spreading the path nodes are never dirtied per write-back, so if a
    // drain cleared the DAQ after pre_write_back's reservation, they
    // would otherwise be stranded — and the next drain would commit a
    // tree whose internal nodes are stale w.r.t. this counter.
    const std::uint64_t leaf = layout_.counter_line_index(line_addr);
    for (const nvm::NodeId& id : layout_.path_to_root(leaf * kPageSize)) {
      daq_track(layout_.node_addr(id), "DAQ overflow on path re-track");
    }
  }
}

std::uint64_t CcNvmDesign::on_write_back_metadata(
    Addr addr, bool counter_was_cached, std::uint64_t crypt_cycles) {
  // Three parallel hardware activities gate the data's entry to the WPQ:
  // encryption+data-HMAC, the tree walk (full chain without DS, stop at
  // first cached node with DS), and the DAQ reservation CAM lookups.
  std::uint64_t busy = std::max(
      {crypt_cycles, pending_daq_cycles_,
       propagate_path(addr, counter_was_cached,
                      /*stop_at_cached=*/deferred_spreading_)});
  pending_daq_cycles_ = 0;
  // Trigger (3): a metadata line reached the update limit since it became
  // dirty — drain so post-crash counter recovery stays within N retries.
  // `>=`, not `>`: recovery replays at most N candidates per block, so a
  // crash inside this very drain must still find the NVM copy at most N
  // increments stale.
  const Addr cline = layout_.counter_line_addr(addr);
  if (meta_cache_.updates_since_dirty(cline) >= config_.update_limit) {
    sync_stall_ += drain(DrainCrashPoint::kNone, DrainTrigger::kUpdateLimit);
  }
  return busy;
}

std::uint64_t CcNvmDesign::on_meta_eviction(Addr line_addr, bool dirty) {
  // Trigger (2): the cache is pushing metadata out. Draining synchronously
  // keeps the invariant that any *uncached* metadata line's NVM copy is
  // its committed value — a later fetch must verify against the tree.
  // Clean lines that the DAQ still tracks (their store value moved past
  // the NVM copy inside this epoch) drain for the same reason.
  if (draining_) return 0;  // the drain itself only cleans, never strands
  if (dirty || daq_.contains(line_addr)) {
    sync_stall_ += drain(DrainCrashPoint::kNone, DrainTrigger::kDirtyEviction);
  }
  return 0;
}

std::uint64_t CcNvmDesign::on_overflow(std::uint64_t leaf) {
  // A page re-encryption is in flight: flag it persistently so recovery
  // knows the N_wb/N_retry identity does not cover this page. The flag
  // clears when the next drain commits the bumped counter line.
  tcb_.overflow_pending = true;
  tcb_.overflow_leaf = leaf;
  return 0;
}

void CcNvmDesign::post_crash_reset() {
  daq_.clear();
  draining_ = false;  // an armed crash can unwind from inside a drain
  armed_crash_ = DrainCrashPoint::kNone;
  pending_daq_cycles_ = 0;
  sync_stall_ = 0;
}

std::uint64_t CcNvmDesign::spread_deferred_updates() {
  // Functionally this always runs: a drain can fire in the middle of a
  // write-back's path propagation (dirty Meta Cache eviction), and the
  // committed tree must be consistent with the committed counters, so
  // every DAQ-tracked node is recomputed from its children. The *cycles*
  // are charged only under deferred spreading — without DS the nodes are
  // already current and hardware would not recompute them.
  const bool charge = deferred_spreading_;
  std::uint64_t busy = 0;
  // Collect the tree nodes the epoch reserved, bottom-up: each is
  // recomputed exactly once per drain (§4.3's "calculated once").
  std::vector<nvm::NodeId> nodes;
  for (Addr a : daq_.entries()) {
    if (layout_.is_mt_addr(a)) nodes.push_back(layout_.node_id_of(a));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const nvm::NodeId& a, const nvm::NodeId& b) {
                     return a.level < b.level;
                   });

  const bool any_counters = !daq_.empty();
  if (functional() && !nodes.empty()) {
    // Batch per level: nodes of one level only read the (already
    // committed) level below, so each level-group's child tags go through
    // tag_many in SIMD lanes. Same nodes, same order, same tree as the
    // per-node loop.
    const secure::MerkleEngine::NodeReader reader =
        [this](const nvm::NodeId& c) { return meta_->node_line(c); };
    std::vector<Line> computed;
    std::size_t i = 0;
    while (i < nodes.size()) {
      std::size_t j = i + 1;
      while (j < nodes.size() && nodes[j].level == nodes[i].level) ++j;
      computed.resize(j - i);
      merkle_.compute_nodes({nodes.data() + i, j - i}, reader, computed);
      for (std::size_t k = i; k < j; ++k) {
        meta_->set_node(nodes[k], computed[k - i]);
      }
      i = j;
    }
  }
  if (any_counters && functional()) {
    // The root is recomputed last and lands in ROOT_new.
    tcb_.root_new = merkle_.compute_node(
        {layout_.root_level(), 0},
        [this](const nvm::NodeId& c) { return meta_->node_line(c); });
  }
  if (charge && any_counters) {
    // Cost model: each tracked line contributes exactly one changed edge
    // into its parent, so the drain computes one counter-HMAC per DAQ
    // entry plus one for the root update — each "calculated once per
    // draining" (§4.3). Unchanged sibling slots keep their tags. With L
    // parallel HMAC lanes the independent edge updates pipeline into
    // ceil(edges/L) engine occupancies; L=1 (the paper's machine) keeps
    // the serial charge.
    const std::uint64_t edges = daq_.size() + 1;
    const std::uint64_t lanes = std::max<std::uint64_t>(timing_.hmac_lanes, 1);
    busy += ((edges + lanes - 1) / lanes) * timing_.hmac_latency;
    stats_.hmac_ops += edges;
  }
  return busy;
}

std::uint64_t CcNvmDesign::drain(DrainCrashPoint point,
                                 DrainTrigger trigger) {
  const ScopedCheckContext check_ctx(name(), commit_epoch_, "drain");
  CCNVM_CHECK_MSG(!draining_, "nested drain");
  draining_ = true;
  // An armed crash upgrades a normal drain into a fault-injected one; it
  // unwinds by throwing, because the enclosing write-back must not run on.
  const bool injected =
      point == DrainCrashPoint::kNone && armed_crash_ != DrainCrashPoint::kNone;
  if (injected) point = armed_crash_;
  armed_crash_ = DrainCrashPoint::kNone;
  const auto power_lost = [&](std::uint64_t busy) -> std::uint64_t {
    draining_ = false;
    if (injected) {
      if (power_loss_hook_) power_loss_hook_();
      throw InjectedPowerLoss{};
    }
    return busy;  // caller (drain_and_crash / a test) loses power next
  };
  ++stats_.drains;
  ++stats_.drains_by_trigger[static_cast<std::size_t>(trigger)];
  if (observer_ != nullptr) observer_->on_drain_start(audit_view(), trigger);
  std::uint64_t busy = 0;

  busy += spread_deferred_updates();
  persist_tcb();  // deferred spreading just recomputed ROOT_new

  // Atomic draining protocol (§4.2, steps Õ-œ): start signal, stream the
  // tracked lines into the WPQ, end signal, then commit the registers.
  controller_.begin_atomic_batch();
  const std::vector<Addr> lines = daq_.entries();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (mutation_ == ProtocolMutation::kLeakDaqEntry && i == 0) {
      continue;  // mutation: this tracked line never reaches the WPQ
    }
    persist_metadata(lines[i], /*batched=*/true);
    if (observer_ != nullptr) {
      observer_->on_drain_batch_line(audit_view(), lines[i]);
    }
    busy += 4;  // on-chip transfer into the WPQ
    if (point == DrainCrashPoint::kMidBatch && (i + 1) * 2 >= lines.size()) {
      return power_lost(busy);
    }
  }
  if (point == DrainCrashPoint::kAfterBatchBeforeEnd) {
    return power_lost(busy);
  }

  // Commit: the NVM tree now *is* the ROOT_new state.
  const auto commit_registers = [&] {
    tcb_.root_old = tcb_.root_new;
    if (mutation_ != ProtocolMutation::kSkipNwbReset) tcb_.n_wb = 0;
    tcb_.overflow_pending = false;
    persist_tcb();
    for (Addr a : lines) meta_cache_.clean(a);
    daq_.clear();
    ++commit_epoch_;
    on_drain_commit();
    if (observer_ != nullptr) observer_->on_drain_commit(audit_view());
  };

  if (mutation_ == ProtocolMutation::kCommitBeforeEnd) {
    // Mutation: registers step to the new state while the batch is still
    // open — a crash here would pair ROOT_old==ROOT_new with the old tree.
    commit_registers();
    controller_.end_atomic_batch();
    if (observer_ != nullptr) observer_->on_drain_end(audit_view());
  } else {
    controller_.end_atomic_batch();
    if (observer_ != nullptr) observer_->on_drain_end(audit_view());
    if (point == DrainCrashPoint::kAfterEndBeforeCommit) {
      return power_lost(busy);
    }
    commit_registers();
  }

  stats_.drain_cycles += busy;
  draining_ = false;
  return busy;
}

void CcNvmDesign::drain_and_crash(DrainCrashPoint point) {
  CCNVM_CHECK_MSG(point != DrainCrashPoint::kNone,
                  "use force_drain() for a normal drain");
  (void)drain(point);
  crash_power_loss();
}

}  // namespace ccnvm::core
