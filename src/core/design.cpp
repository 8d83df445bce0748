#include "core/design.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/thread_pool.h"

namespace ccnvm::core {

namespace {

bool tag_is_zero(const Tag128& t) {
  return std::all_of(t.bytes.begin(), t.bytes.end(),
                     [](std::uint8_t b) { return b == 0; });
}

}  // namespace

std::string_view design_name(DesignKind kind) {
  switch (kind) {
    case DesignKind::kWoCc:
      return "w/o CC";
    case DesignKind::kStrict:
      return "SC";
    case DesignKind::kOsirisPlus:
      return "Osiris Plus";
    case DesignKind::kCcNvmNoDs:
      return "cc-NVM w/o DS";
    case DesignKind::kCcNvm:
      return "cc-NVM";
    case DesignKind::kCcNvmPlus:
      return "cc-NVM+";
    case DesignKind::kTriadNvm:
      return "Triad-NVM";
    case DesignKind::kPhoenix:
      return "Phoenix";
  }
  return "?";
}

std::optional<DesignKind> parse_design(std::string_view name,
                                       std::uint32_t* persist_level) {
  constexpr std::pair<std::string_view, DesignKind> kNames[] = {
      {"wocc", DesignKind::kWoCc},
      {"sc", DesignKind::kStrict},
      {"osiris", DesignKind::kOsirisPlus},
      {"ccnvm-nods", DesignKind::kCcNvmNoDs},
      {"ccnvm", DesignKind::kCcNvm},
      {"ccnvm-plus", DesignKind::kCcNvmPlus},
      {"phoenix", DesignKind::kPhoenix},
      {"triad", DesignKind::kTriadNvm},
  };
  for (const auto& [known, kind] : kNames) {
    if (name == known) return kind;
  }
  constexpr std::string_view kTriadN = "triad-n";
  if (!name.starts_with(kTriadN) || name.size() == kTriadN.size()) {
    return std::nullopt;
  }
  std::uint32_t level = 0;
  for (const char c : name.substr(kTriadN.size())) {
    if (c < '0' || c > '9') return std::nullopt;
    level = level * 10 + static_cast<std::uint32_t>(c - '0');
    if (level > 64) return std::nullopt;  // also stops any overflow
  }
  if (level == 0) return std::nullopt;
  if (persist_level != nullptr) *persist_level = level;
  return DesignKind::kTriadNvm;
}

bool commits_every_write_back(DesignKind kind) {
  return kind == DesignKind::kStrict || kind == DesignKind::kTriadNvm ||
         kind == DesignKind::kPhoenix;
}

namespace {

nvm::NvmImage make_image(const DesignConfig& config,
                         const nvm::NvmLayout& layout) {
  if (!config.backend_factory) return nvm::NvmImage();
  return nvm::NvmImage(config.backend_factory(layout.total_bytes()));
}

}  // namespace

SecureNvmBase::SecureNvmBase(const DesignConfig& config)
    : config_(config),
      layout_(config.data_capacity),
      image_(make_image(config, layout_)),
      controller_(image_, config.wpq_entries),
      cme_(config.key_seed),
      tree_key_(crypto::HmacKey::from_seed(config.key_seed ^
                                           0x7bee5f00dULL)),
      merkle_(tree_key_, layout_),
      meta_(config.functional
                ? std::make_unique<secure::MetadataStore>(
                      layout_, merkle_, config.recovery_jobs)
                : nullptr),
      meta_cache_(layout_, config.meta_cache_bytes, config.meta_cache_ways,
                  config.split_meta_cache),
      timing_(config_.timing) {
  CCNVM_CHECK_MSG(config.daq_entries <= config.wpq_entries,
                  "a drain batch must fit in the WPQ");
  if (functional()) {
    // "Format" the DIMM: persist the all-zero-counter tree so the initial
    // NVM state is consistent with the TCB roots. Counter lines are zero
    // (the image default), so only internal nodes need writing.
    for (std::uint32_t level = 1; level < layout_.root_level(); ++level) {
      for (std::uint64_t i = 0; i < layout_.nodes_at_level(level); ++i) {
        const nvm::NodeId id{level, i};
        image_.write_line(layout_.node_addr(id), meta_->node_line(id));
      }
    }
    tcb_.root_new = tcb_.root_old = meta_->root();
  } else {
    image_.set_record_contents(false);
  }
  persist_tcb();
}

void SecureNvmBase::persist_tcb() {
  if (!functional()) return;
  const TcbBlob blob = encode_tcb(tcb_);
  image_.store_registers(blob.data(), blob.size());
}

AuditView SecureNvmBase::audit_view() const {
  AuditView v;
  v.kind = kind();
  v.config = &config_;
  v.layout = &layout_;
  v.image = &image_;
  v.controller = &controller_;
  v.meta_cache = &meta_cache_;
  v.merkle = &merkle_;
  v.meta = meta_.get();
  v.tcb = &tcb_;
  v.daq = audit_daq();
  v.epoch = commit_epoch_;
  return v;
}

void SecureNvmBase::reset_stats() {
  stats_ = DesignStats{};
  controller_.reset_stats();
  meta_cache_.reset_stats();
}

Line SecureNvmBase::logical_metadata(Addr line_addr) const {
  if (!functional()) return zero_line();
  if (layout_.is_counter_addr(line_addr)) {
    return meta_->counter(layout_.counter_line_index(line_addr)).pack();
  }
  CCNVM_CHECK(layout_.is_mt_addr(line_addr));
  return meta_->node_line(layout_.node_id_of(line_addr));
}

InlineVec<Addr, 32> SecureNvmBase::metadata_addrs_for(Addr data_addr) const {
  InlineVec<Addr, 32> addrs;
  addrs.push_back(layout_.counter_line_addr(data_addr));
  for (const nvm::NodeId& id : layout_.path_to_root(data_addr)) {
    addrs.push_back(layout_.node_addr(id));
  }
  return addrs;
}

void SecureNvmBase::persist_metadata(Addr line_addr, bool batched) {
  const Line value = logical_metadata(line_addr);
  const nvm::LineKind kind = metadata_kind(line_addr);
  if (batched) {
    CCNVM_CHECK_MSG(controller_.batch_write(line_addr, value, kind),
                    "drain batch exceeded the WPQ");
  } else {
    controller_.write(line_addr, value, kind);
  }
  if (kind == nvm::LineKind::kCounter) updates_since_persist_.erase(line_addr);
}

void SecureNvmBase::note_alert(Addr addr) {
  ++stats_.runtime_alerts;
  alerts_.push_back(addr);
}

std::uint64_t SecureNvmBase::meta_access(Addr line_addr, bool is_write) {
  std::uint64_t busy = timing_.meta_cache_latency;
  const cache::AccessOutcome out = meta_cache_.access(line_addr, is_write);
  if (!out.hit) busy += fetch_metadata(line_addr);
  if (out.evicted.has_value()) {
    if (observer_ != nullptr) {
      observer_->on_meta_eviction(audit_view(), *out.evicted,
                                  out.evicted_dirty);
    }
    busy += on_meta_eviction(*out.evicted, out.evicted_dirty);
  }
  return busy;
}

std::uint64_t SecureNvmBase::fetch_metadata(Addr line_addr) {
  // Fetch from NVM and verify the hash chain: hash the fetched line,
  // compare against the parent's slot, walking up until a cached
  // (on-chip, hence trusted) ancestor or the root anchors the chain.
  std::uint64_t busy = timing_.nvm_read_cycles();
  nvm::NodeId id = layout_.is_counter_addr(line_addr)
                       ? nvm::NodeId{0, layout_.counter_line_index(line_addr)}
                       : layout_.node_id_of(line_addr);
  while (true) {
    busy += timing_.hmac_latency;
    ++stats_.hmac_ops;
    const nvm::NodeId parent = layout_.parent(id);
    if (parent.level == layout_.root_level()) break;
    const Addr parent_addr = layout_.node_addr(parent);
    if (meta_cache_.probe(parent_addr)) break;
    busy += timing_.nvm_read_cycles();  // parent fetched for verification
    id = parent;
  }
  if (functional()) {
    // HMAC collision resistance makes the hardware chain check fail
    // exactly when the fetched bytes differ from what the (persisted,
    // consistent) tree committed to — which for chain-persisting designs
    // is the logical value, since dirty lines are never silently dropped.
    if (image_.read_line(line_addr) != logical_metadata(line_addr)) {
      note_alert(line_addr);
    }
  }
  return busy;
}

std::uint64_t SecureNvmBase::propagate_path(Addr data_addr,
                                            bool counter_was_cached,
                                            bool stop_at_cached) {
  std::uint64_t busy = 0;
  nvm::NodeId child{0, data_addr / kPageSize};
  bool child_was_cached = counter_was_cached;

  while (true) {
    // Deferred spreading (§4.3): once the child was already cached before
    // this write-back, its pending update is covered by the DAQ and the
    // spread to the root happens at drain time.
    if (stop_at_cached && child_was_cached) {
      if (observer_ != nullptr) {
        observer_->on_propagate_stop(audit_view(), data_addr, child.level,
                                     child_was_cached, stop_at_cached,
                                     /*reached_root=*/false);
      }
      break;
    }

    const nvm::NodeId parent = layout_.parent(child);
    busy += timing_.hmac_latency;  // counter-HMAC of the child's new value
    ++stats_.hmac_ops;
    if (observer_ != nullptr) {
      observer_->on_propagate_step(audit_view(), data_addr, child.level,
                                   child_was_cached, stop_at_cached);
    }

    if (parent.level == layout_.root_level()) {
      if (functional()) {
        const Tag128 tag = merkle_.node_tag(meta_->node_line(child));
        Line root = tcb_.root_new;
        std::memcpy(root.data() +
                        layout_.slot_in_parent(child) * sizeof(Tag128),
                    tag.bytes.data(), sizeof(Tag128));
        tcb_.root_new = root;
      }
      if (observer_ != nullptr) {
        observer_->on_propagate_stop(audit_view(), data_addr, child.level,
                                     child_was_cached, stop_at_cached,
                                     /*reached_root=*/true);
      }
      break;
    }

    const Addr parent_addr = layout_.node_addr(parent);
    const bool parent_was_cached = meta_cache_.probe(parent_addr);
    // A cached parent lookup is hidden under the 80-cycle HMAC of the
    // child; only a miss (fetch + verify) adds to the serial chain.
    const std::uint64_t access = meta_access(parent_addr, /*is_write=*/true);
    busy += access > timing_.meta_cache_latency
                ? access - timing_.meta_cache_latency
                : 0;
    if (functional()) {
      const Tag128 tag = merkle_.node_tag(meta_->node_line(child));
      Line pline = meta_->node_line(parent);
      std::memcpy(pline.data() +
                      layout_.slot_in_parent(child) * sizeof(Tag128),
                  tag.bytes.data(), sizeof(Tag128));
      meta_->set_node(parent, pline);
    }
    on_metadata_dirtied(parent_addr);
    child = parent;
    child_was_cached = parent_was_cached;
  }
  return busy;
}

std::uint64_t SecureNvmBase::fold_into_parent(Addr line_addr) {
  // One spill-up step: recompute the departing line's tag into its parent
  // so future chain verification of the NVM copy succeeds.
  std::uint64_t busy = timing_.hmac_latency;
  ++stats_.hmac_ops;
  const nvm::NodeId id =
      layout_.is_counter_addr(line_addr)
          ? nvm::NodeId{0, layout_.counter_line_index(line_addr)}
          : layout_.node_id_of(line_addr);
  const nvm::NodeId parent = layout_.parent(id);
  if (parent.level == layout_.root_level()) {
    if (functional()) {
      const Tag128 tag = merkle_.node_tag(logical_metadata(line_addr));
      Line root = tcb_.root_new;
      std::memcpy(root.data() + layout_.slot_in_parent(id) * sizeof(Tag128),
                  tag.bytes.data(), sizeof(Tag128));
      tcb_.root_new = root;
    }
    return busy;
  }
  const Addr parent_addr = layout_.node_addr(parent);
  busy += meta_access(parent_addr, /*is_write=*/true);
  if (functional()) {
    const Tag128 tag = merkle_.node_tag(logical_metadata(line_addr));
    Line pline = meta_->node_line(parent);
    std::memcpy(pline.data() + layout_.slot_in_parent(id) * sizeof(Tag128),
                tag.bytes.data(), sizeof(Tag128));
    meta_->set_node(parent, pline);
  }
  on_metadata_dirtied(parent_addr);
  return busy;
}

std::uint64_t SecureNvmBase::reencrypt_page(
    std::uint64_t leaf, const secure::CounterBlock& old_counters) {
  // The minor overflow already bumped the major and zeroed the minors in
  // the logical counter block; every previously written block must be
  // re-encrypted under (major+1, 0) with a fresh data HMAC.
  std::uint64_t busy = 0;
  if (!functional()) return busy;  // overflow cannot trigger without counters
  flush_pending_dh();  // the loops below read DH lines from the image
  const std::uint64_t new_major = old_counters.major + 1;
  const crypto::PadCounter fresh{new_major, 0};
  // Pass 1 — pure crypto, no NVM writes yet: decrypt/re-encrypt each
  // written block and push all fresh data HMACs through tag_many in one
  // burst. Hoisting the reads ahead of the writes is order-equivalent:
  // the data lines read here are never written by this loop, and a DH
  // line's earlier-slot updates don't touch a later block's tag slot.
  std::vector<Addr> das;
  std::vector<Line> cts;
  das.reserve(kBlocksPerPage);
  cts.reserve(kBlocksPerPage);
  for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
    const Addr da = leaf * kPageSize + b * kLineSize;
    const Line dh_line = image_.read_line(layout_.dh_line_addr(da));
    const Tag128 stored =
        secure::dh_tag_in_line(dh_line, layout_.dh_offset_in_line(da));
    if (tag_is_zero(stored)) continue;  // never written
    const Line ct_old = image_.read_line(da);
    const Line pt = cme_.crypt(ct_old, da, old_counters.pad_counter(b));
    das.push_back(da);
    cts.push_back(cme_.crypt(pt, da, fresh));
  }
  std::vector<secure::DataHmacReq> reqs(das.size());
  for (std::size_t i = 0; i < das.size(); ++i) {
    reqs[i] = {&cts[i], das[i], fresh};
  }
  std::vector<Tag128> tags(das.size());
  cme_.data_hmac_many(reqs, tags);
  // Pass 2 — the writes, in the serial loop's exact per-block order
  // (data line, then its DH line read-modify-write), so the controller
  // sees an unchanged write sequence and the image evolves identically.
  for (std::size_t i = 0; i < das.size(); ++i) {
    const Addr da = das[i];
    const Addr dh_addr = layout_.dh_line_addr(da);
    controller_.write(da, cts[i], nvm::LineKind::kData);
    Line dh_line = image_.read_line(dh_addr);
    secure::set_dh_tag_in_line(dh_line, layout_.dh_offset_in_line(da),
                               tags[i]);
    controller_.write(dh_addr, dh_line, nvm::LineKind::kDataHmac);
  }
  // Timing: one (2×AES, HMAC) stage pair per block. A single MAC lane
  // serializes the stages (the paper's machine, the old charge exactly);
  // with L lanes each block's OTP generation overlaps the previous
  // block's data-HMAC, so past the first block the page re-encryption
  // proceeds at the slower of the two stage rates.
  const std::uint64_t n = das.size();
  if (n > 0) {
    const std::uint64_t stage_aes = 2 * timing_.aes_cycles();
    const std::uint64_t lanes = std::max<std::uint64_t>(timing_.hmac_lanes, 1);
    if (lanes <= 1) {
      busy += n * (stage_aes + timing_.hmac_latency);
    } else {
      const std::uint64_t stage_hmac =
          (timing_.hmac_latency + lanes - 1) / lanes;
      busy += (stage_aes + timing_.hmac_latency) +
              (n - 1) * std::max(stage_aes, stage_hmac);
    }
    stats_.aes_ops += 2 * n;
    stats_.hmac_ops += n;
  }
  return busy;
}

std::uint64_t SecureNvmDesign::write_blocks(std::span<const Addr> addrs,
                                            std::span<const Line> lines) {
  CCNVM_CHECK(addrs.size() == lines.size());
  std::uint64_t busy = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    busy += write_back(addrs[i], lines[i]);
  }
  return busy;
}

std::uint64_t SecureNvmBase::write_back(Addr addr, const Line& plaintext) {
  return write_blocks({&addr, 1}, {&plaintext, 1});
}

std::uint64_t SecureNvmBase::write_blocks(std::span<const Addr> addrs,
                                          std::span<const Line> lines) {
  CCNVM_CHECK(addrs.size() == lines.size());
  // The last DH line lands when the group ends, also when an injected
  // power cut unwinds it (the drain has flushed it by then).
  struct FlushAtEnd {
    SecureNvmBase& self;
    ~FlushAtEnd() { self.flush_pending_dh(); }
  } flush_at_end{*this};
  std::uint64_t busy = 0;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    busy += write_back_line(addrs[i], lines[i]);
  }
  return busy;
}

void SecureNvmBase::flush_pending_dh() {
  if (pending_dh_.addr == ~Addr{0}) return;
  controller_.write(pending_dh_.addr, pending_dh_.line,
                    nvm::LineKind::kDataHmac);
  pending_dh_.addr = ~Addr{0};
}

Line& SecureNvmBase::pending_dh_line(Addr dh_addr) {
  if (pending_dh_.addr != dh_addr) {
    flush_pending_dh();
    pending_dh_ = {dh_addr,
                   functional() ? image_.read_line(dh_addr) : zero_line()};
  }
  return pending_dh_.line;
}

std::uint64_t SecureNvmBase::write_back_line(Addr addr,
                                             const Line& plaintext) {
  const ScopedCheckContext check_ctx(name(), commit_epoch_, "write_back");
  CCNVM_CHECK_MSG(!crashed_, "write_back on a crashed system");
  CCNVM_CHECK(layout_.is_data_addr(addr) && is_line_aligned(addr));
  ++stats_.write_backs;

  std::uint64_t busy = pre_write_back(addr);

  // Counter access: fetch+verify on a miss, dirty the line.
  const Addr cline = layout_.counter_line_addr(addr);
  const bool counter_was_cached = meta_cache_.probe(cline);
  busy += meta_access(cline, /*is_write=*/true);
  ++updates_since_persist_[cline];
  on_metadata_dirtied(cline);

  ++tcb_.n_wb;
  // Mirror immediately: an update-limit drain can fire *inside* this
  // write-back (on_write_back_metadata), and a kill in that drain must
  // see the N_wb that counts this very write-back, or recovery's strict
  // N_wb == N_retry replay check (§4.3) trips falsely.
  persist_tcb();

  const std::uint64_t leaf = addr / kPageSize;
  const std::size_t block = block_in_page(addr);
  bool overflow = false;
  secure::CounterBlock old_counters;
  if (functional()) {
    old_counters = meta_->counter(leaf);
    overflow = meta_->counter(leaf).increment(block);
  }
  on_counter_incremented(addr);
  if (overflow) {
    ++stats_.page_reencryptions;
    busy += reencrypt_page(leaf, old_counters);
    busy += on_overflow(leaf);
  }

  // Encrypt and MAC the evicted line (controller-side; the NVM writes
  // themselves are posted and off this blocking path). This latency
  // overlaps with the design's tree walk / DAQ work — the hook composes
  // them with max().
  const std::uint64_t crypt_cycles =
      timing_.aes_cycles() + timing_.hmac_latency;
  ++stats_.aes_ops;
  ++stats_.hmac_ops;
  const Addr dh_addr = layout_.dh_line_addr(addr);
  if (functional()) {
    const crypto::PadCounter pc = meta_->counter(leaf).pad_counter(block);
    const Line ct = cme_.crypt(plaintext, addr, pc);
    controller_.write(addr, ct, nvm::LineKind::kData);
    // ECC over the *plaintext* rides the DIMM side band with the line
    // (Osiris's recovery oracle; no extra write transaction).
    image_.write_ecc(addr, secure::ecc_of_line(plaintext).bytes);
    secure::set_dh_tag_in_line(pending_dh_line(dh_addr),
                               layout_.dh_offset_in_line(addr),
                               cme_.data_hmac(ct, addr, pc));
  } else {
    controller_.write(addr, zero_line(), nvm::LineKind::kData);
    (void)pending_dh_line(dh_addr);
  }

  busy += on_write_back_metadata(addr, counter_was_cached, crypt_cycles);
  persist_tcb();  // ROOT_new may have moved during the tree walk
  stats_.engine_busy_cycles += busy;
  if (observer_ != nullptr) {
    observer_->on_write_back_complete(audit_view(), addr);
  }
  return busy;
}

std::vector<ReadResult> SecureNvmDesign::read_blocks(
    std::span<const Addr> addrs) {
  std::vector<ReadResult> results;
  results.reserve(addrs.size());
  for (const Addr addr : addrs) results.push_back(read_block(addr));
  return results;
}

ReadResult SecureNvmBase::read_block(Addr addr) {
  return read_block_at(addr, nullptr, nullptr);
}

std::vector<ReadResult> SecureNvmBase::read_blocks(
    std::span<const Addr> addrs) {
  // The serial fetch (counter fetch, tree check, fetch alerts, image
  // reads) stays on the calling thread. The decrypt and data-HMAC check
  // of each block are deferred: each is a pure function of the
  // (ciphertext, address, counter) recorded by the fetch, so chunks of
  // them run on any worker and land by index. A batch goes in sub-batches
  // of kSubBatch blocks, and the pool verifies sub-batch j while the
  // calling thread fetches sub-batch j+1: one pool dispatch per
  // sub-batch, as many as one read_blocks call per sub-batch would make.
  constexpr std::size_t kSubBatch = 1024;
  constexpr std::size_t kChunk = 32;
  const std::size_t n = addrs.size();
  std::vector<ReadResult> results(n);
  std::vector<DeferredCheck> checks(n);
  // Indices of the deferred checks in read order; which[0, deferred) is
  // filled. Sized up front so the fetch never moves what workers read.
  std::vector<std::size_t> which(n);
  std::vector<Tag128> tags(n);
  std::size_t deferred = 0;
  DhLineCache dh;
  const auto fetch = [&](std::size_t begin) {
    const std::size_t end = std::min(begin + kSubBatch, n);
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = read_block_at(addrs[i], &checks[i], &dh);
      if (checks[i].needed) which[deferred++] = i;
    }
  };
  fetch(0);
  std::size_t verified = 0;
  for (std::size_t begin = 0; begin < n; begin += kSubBatch) {
    const std::size_t first = verified;
    const std::size_t count = deferred - first;
    const auto verify = [&, first, count](std::size_t c) {
      const std::size_t at = first + c * kChunk;
      const std::size_t m = std::min(kChunk, count - c * kChunk);
      std::array<secure::DataHmacReq, kChunk> reqs;
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t i = which[at + k];
        const DeferredCheck& d = checks[i];
        reqs[k] = {&d.ct, d.addr, d.pc};
        results[i].plaintext = cme_.crypt(d.ct, d.addr, d.pc);
      }
      cme_.data_hmac_many({reqs.data(), m}, {tags.data() + at, m});
    };
    const std::size_t chunks = (count + kChunk - 1) / kChunk;
    const std::size_t next = begin + kSubBatch;
    if (next < n) {
      parallel_for_overlapped(chunks, config_.recovery_jobs,
                              [&] { fetch(next); }, verify);
    } else {
      parallel_for(chunks, config_.recovery_jobs, verify);
    }
    verified = first + count;
  }
  // Failures surface exactly where the serial loop would have put them:
  // at the alerts_ position recorded when the check was deferred, shifted
  // by this batch's own earlier insertions (which is precisely what the
  // serial interleaving with fetch_metadata alerts would have produced).
  // Nothing is spliced before every fetch is done, so each recorded
  // position counts fetch alerts only.
  std::size_t inserted = 0;
  for (std::size_t k = 0; k < deferred; ++k) {
    const std::size_t i = which[k];
    if (tags[k] == checks[i].stored) continue;
    results[i].integrity_ok = false;
    ++stats_.runtime_alerts;
    alerts_.insert(
        alerts_.begin() +
            static_cast<std::ptrdiff_t>(checks[i].alert_pos + inserted),
        checks[i].addr);
    ++inserted;
  }
  return results;
}

ReadResult SecureNvmBase::read_block_at(Addr addr, DeferredCheck* defer,
                                        DhLineCache* dh) {
  const ScopedCheckContext check_ctx(name(), commit_epoch_, "read_block");
  CCNVM_CHECK_MSG(!crashed_, "read on a crashed system");
  CCNVM_CHECK(layout_.is_data_addr(addr) && is_line_aligned(addr));
  ++stats_.reads;

  ReadResult result;
  // Data and its DH tag are fetched in parallel from NVM.
  std::uint64_t latency = timing_.nvm_read_cycles();
  const Addr cline = layout_.counter_line_addr(addr);
  const bool counter_hit = meta_cache_.probe(cline);
  const std::uint64_t meta_busy = meta_access(cline, /*is_write=*/false);
  if (counter_hit) {
    // OTP generation overlaps the data fetch (§2.2's caching benefit).
    latency = std::max(latency, meta_busy + timing_.aes_cycles());
  } else if (config_.speculative_reads) {
    // PoisonIvy: don't wait for the metadata fetch/verification chain —
    // decrypt as soon as the counter value arrives and forward; the
    // hash checks complete in the background.
    latency = std::max(latency, timing_.nvm_read_cycles() +
                                    timing_.aes_cycles());
  } else {
    latency += meta_busy + timing_.aes_cycles();
  }
  ++stats_.aes_ops;
  if (!config_.speculative_reads) {
    latency += timing_.hmac_latency;  // data-HMAC verification
  }
  ++stats_.hmac_ops;

  if (functional()) {
    const Line ct = controller_.read(addr);
    const Addr dh_addr = layout_.dh_line_addr(addr);
    Line dh_line;
    if (dh != nullptr && dh->addr == dh_addr) {
      dh_line = dh->line;
    } else {
      dh_line = image_.read_line(dh_addr);
      if (dh != nullptr) *dh = {dh_addr, dh_line};
    }
    const Tag128 stored =
        secure::dh_tag_in_line(dh_line, layout_.dh_offset_in_line(addr));
    if (tag_is_zero(stored) && ct == zero_line()) {
      // Never-written memory reads as zero, like a fresh DIMM.
      result.plaintext = zero_line();
    } else {
      const std::uint64_t leaf = addr / kPageSize;
      const crypto::PadCounter pc =
          meta_->counter(leaf).pad_counter(block_in_page(addr));
      if (defer != nullptr) {
        defer->needed = true;
        defer->ct = ct;
        defer->addr = addr;
        defer->pc = pc;
        defer->stored = stored;
        defer->alert_pos = alerts_.size();
      } else {
        if (!(cme_.data_hmac(ct, addr, pc) == stored)) {
          result.integrity_ok = false;
          note_alert(addr);
        }
        result.plaintext = cme_.crypt(ct, addr, pc);
      }
    }
  }
  result.latency = latency;
  stats_.read_latency_cycles += latency;
  return result;
}

void SecureNvmBase::restore_from_power_down(nvm::NvmImage image,
                                            const TcbRegisters& tcb) {
  CCNVM_CHECK_MSG(functional(), "power cycling needs the functional engine");
  image_ = std::move(image);
  tcb_ = tcb;
  persist_tcb();
  controller_.crash();  // no batch can span a power cycle
  meta_cache_.invalidate_all();
  updates_since_persist_.clear();
  alerts_.clear();
  post_crash_reset();
  crashed_ = true;
  if (observer_ != nullptr) observer_->on_crash(audit_view());
}

void SecureNvmBase::crash_power_loss() {
  const ScopedCheckContext check_ctx(name(), commit_epoch_, "crash");
  controller_.crash();
  meta_cache_.invalidate_all();
  updates_since_persist_.clear();
  alerts_.clear();
  post_crash_reset();
  crashed_ = true;
  if (observer_ != nullptr) observer_->on_crash(audit_view());
}

RecoveryReport SecureNvmBase::recover() {
  const ScopedCheckContext check_ctx(name(), commit_epoch_, "recover");
  CCNVM_CHECK_MSG(crashed_, "recover() is a post-crash operation");
  RecoveryInputs inputs;
  inputs.layout = &layout_;
  inputs.image = &image_;
  inputs.cme = &cme_;
  inputs.merkle = &merkle_;
  inputs.tcb = tcb_;
  inputs.update_limit = config_.update_limit;
  inputs.mode = recovery_mode();
  inputs.jobs = config_.recovery_jobs;
  augment_recovery_inputs(inputs);
  RecoveryManager manager(inputs);
  RecoveryReport report = manager.run(kind());

  if (report.metadata_recovered && functional()) {
    // Reinstall the repaired image as the logical state and resume.
    for (std::uint64_t leaf = 0; leaf < layout_.num_pages(); ++leaf) {
      meta_->counter(leaf) = secure::CounterBlock::unpack(image_.read_line(
          layout_.data_capacity() + leaf * kLineSize));
    }
    for (std::uint32_t level = 1; level < layout_.root_level(); ++level) {
      for (std::uint64_t i = 0; i < layout_.nodes_at_level(level); ++i) {
        const nvm::NodeId id{level, i};
        meta_->set_node(id, image_.read_line(layout_.node_addr(id)));
      }
    }
    meta_->set_node({layout_.root_level(), 0}, report.recovered_root);
    tcb_.root_new = tcb_.root_old = report.recovered_root;
    tcb_.n_wb = 0;
    tcb_.overflow_pending = false;
    persist_tcb();
    crashed_ = false;
    post_recovery_reset();
  }
  if (observer_ != nullptr) {
    observer_->on_recovery_complete(audit_view(), report);
  }
  return report;
}

std::vector<Addr> SecureNvmBase::audit_image() {
  CCNVM_CHECK_MSG(functional(), "audit requires the functional engine");
  quiesce();
  std::vector<Addr> bad;

  // Per-page scratch for the batched data-HMAC sweep: one tag_many burst
  // per page instead of one HMAC per block. Same blocks, same order.
  std::array<Line, kBlocksPerPage> cts;
  std::vector<secure::DataHmacReq> reqs;
  std::vector<Tag128> stored_tags;
  std::vector<Addr> req_addrs;
  std::vector<Tag128> tags;
  for (std::uint64_t leaf = 0; leaf < layout_.num_pages(); ++leaf) {
    const Addr caddr = layout_.data_capacity() + leaf * kLineSize;
    if (image_.read_line(caddr) != meta_->counter(leaf).pack()) {
      bad.push_back(caddr);
    }
    reqs.clear();
    stored_tags.clear();
    req_addrs.clear();
    for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
      const Addr da = leaf * kPageSize + b * kLineSize;
      const Line dh_line = image_.read_line(layout_.dh_line_addr(da));
      const Tag128 stored =
          secure::dh_tag_in_line(dh_line, layout_.dh_offset_in_line(da));
      if (tag_is_zero(stored)) continue;
      const std::size_t n = reqs.size();
      cts[n] = image_.read_line(da);
      reqs.push_back({&cts[n], da, meta_->counter(leaf).pad_counter(b)});
      stored_tags.push_back(stored);
      req_addrs.push_back(da);
    }
    tags.resize(reqs.size());
    cme_.data_hmac_many(reqs, tags);
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (!(tags[i] == stored_tags[i])) bad.push_back(req_addrs[i]);
    }
  }
  for (std::uint32_t level = 1; level < layout_.root_level(); ++level) {
    if (!tree_level_persisted(level)) continue;
    for (std::uint64_t i = 0; i < layout_.nodes_at_level(level); ++i) {
      const nvm::NodeId id{level, i};
      if (image_.read_line(layout_.node_addr(id)) != meta_->node_line(id)) {
        bad.push_back(layout_.node_addr(id));
      }
    }
  }
  return bad;
}

}  // namespace ccnvm::core
