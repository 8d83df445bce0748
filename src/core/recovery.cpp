#include "core/recovery.h"

#include <algorithm>
#include <array>

#include "common/thread_pool.h"
#include "core/design.h"
#include "secure/counter_block.h"
#include "secure/ecc.h"

namespace ccnvm::core {

using nvm::NodeId;
using secure::CounterBlock;

namespace {

bool tag_is_zero(const Tag128& t) {
  return std::all_of(t.bytes.begin(), t.bytes.end(),
                     [](std::uint8_t b) { return b == 0; });
}

// Model work of reconstructing every tree level above `frontier`: one
// node-tag HMAC per child consumed, one image write per internal node
// recomputed. frontier == 0 is the full rebuild from the counter leaves.
std::uint64_t rebuild_hash_ops_above(const nvm::NvmLayout& layout,
                                     std::uint32_t frontier) {
  std::uint64_t ops = 0;
  for (std::uint32_t level = frontier + 1; level <= layout.root_level();
       ++level) {
    ops += layout.nodes_at_level(level - 1);
  }
  return ops;
}

std::uint64_t tree_nodes_above(const nvm::NvmLayout& layout,
                               std::uint32_t frontier) {
  std::uint64_t nodes = 0;
  for (std::uint32_t level = frontier + 1; level < layout.root_level();
       ++level) {
    nodes += layout.nodes_at_level(level);
  }
  return nodes;
}

// Pages per scan run: the run's written blocks are read once and then
// hashed as batches. 256 pages make a crash image's typical wave several
// data_hmacs chunks wide — one per pool worker — while the worst-case run
// buffer (16384 written blocks, ~1.6 MiB) stays small. Runs are double
// buffered: the pool hashes run k while the calling thread scans run k+1.
constexpr std::uint64_t kRunPages = 256;

// Data HMACs per pool index: small enough that a page run's wave splits
// evenly over the pool.
constexpr std::size_t kHmacChunk = 128;

}  // namespace

CounterBlock RecoveryManager::persisted_counters(std::uint64_t leaf) const {
  return CounterBlock::unpack(
      in_.image->read_line(in_.layout->data_capacity() + leaf * kLineSize));
}

void RecoveryManager::scan_page(std::uint64_t leaf,
                                std::vector<WrittenBlock>& out) const {
  const nvm::NvmLayout& layout = *in_.layout;
  // A page's tags fill whole DH lines in block order, so a line is read
  // when its first slot comes up.
  Line dh_line{};
  for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
    const Addr data_addr = leaf * kPageSize + b * kLineSize;
    const std::size_t slot = layout.dh_offset_in_line(data_addr);
    if (slot == 0) {
      dh_line = in_.image->read_line(layout.dh_line_addr(data_addr));
    }
    const Tag128 tag = secure::dh_tag_in_line(dh_line, slot);
    if (tag_is_zero(tag)) continue;
    WrittenBlock& wb = out.emplace_back();
    wb.addr = data_addr;
    wb.ciphertext = in_.image->read_line(data_addr);
    wb.stored_dh = tag;
    if (in_.use_ecc_oracle && in_.image->has_ecc(data_addr)) {
      wb.has_ecc = true;
      wb.ecc = in_.image->read_ecc(data_addr);
    }
  }
}

bool RecoveryManager::ecc_admits(const WrittenBlock& wb,
                                 crypto::PadCounter cand) const {
  if (!wb.has_ecc) return true;
  // Osiris: cheap plaintext-ECC filter before the HMAC authority.
  const Line guess = in_.cme->crypt(wb.ciphertext, wb.addr, cand);
  secure::EccBits stored;
  stored.bytes = wb.ecc;
  return secure::line_matches_ecc(guess, stored);
}

void RecoveryManager::data_hmacs(std::span<const secure::DataHmacReq> reqs,
                                 std::span<Tag128> out) const {
  const std::size_t chunks = (reqs.size() + kHmacChunk - 1) / kHmacChunk;
  parallel_for(chunks, in_.jobs, [&](std::size_t c) {
    const std::size_t begin = c * kHmacChunk;
    const std::size_t n = std::min(kHmacChunk, reqs.size() - begin);
    in_.cme->data_hmac_many(reqs.subspan(begin, n), out.subspan(begin, n));
  });
}

std::vector<RecoveryManager::Check> RecoveryManager::check_run(
    std::span<const WrittenBlock> run, std::span<const CounterBlock> counters,
    const std::function<void()>& caller_task) const {
  // Everything but the scan runs on the pool: the requests, the ECC
  // filter, the hashing and the comparison. A chunk writes only its own
  // blocks' slots.
  std::vector<Check> out(run.size(), Check::kMatch);
  const std::size_t chunks = (run.size() + kHmacChunk - 1) / kHmacChunk;
  parallel_for_overlapped(chunks, in_.jobs, caller_task, [&](std::size_t c) {
    const std::size_t begin = c * kHmacChunk;
    const std::size_t end = std::min(begin + kHmacChunk, run.size());
    std::array<secure::DataHmacReq, kHmacChunk> reqs;
    std::array<std::size_t, kHmacChunk> block;
    std::array<Tag128, kHmacChunk> tags;
    std::size_t n = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const WrittenBlock& wb = run[i];
      const crypto::PadCounter pc =
          counters[wb.addr / kPageSize].pad_counter(block_in_page(wb.addr));
      if (!ecc_admits(wb, pc)) {
        out[i] = Check::kEccRejected;
        continue;
      }
      reqs[n] = {&wb.ciphertext, wb.addr, pc};
      block[n++] = i;
    }
    in_.cme->data_hmac_many({reqs.data(), n}, {tags.data(), n});
    for (std::size_t j = 0; j < n; ++j) {
      if (!(tags[j] == run[block[j]].stored_dh)) {
        out[block[j]] = Check::kHmacMismatch;
      }
    }
  });
  return out;
}

std::vector<Addr> RecoveryManager::verify_data_hmacs() const {
  const nvm::NvmLayout& layout = *in_.layout;
  std::vector<CounterBlock> counters(layout.num_pages());
  std::vector<Addr> bad;
  pipeline_runs(
      [&](std::uint64_t first, std::vector<WrittenBlock>& run) {
        const std::uint64_t end =
            std::min(first + kRunPages, layout.num_pages());
        for (std::uint64_t leaf = first; leaf < end; ++leaf) {
          counters[leaf] = persisted_counters(leaf);
          scan_page(leaf, run);
        }
      },
      [&](std::span<const WrittenBlock> run,
          const std::function<void()>& scan_next) {
        const std::vector<Check> checks = check_run(run, counters, scan_next);
        for (std::size_t i = 0; i < run.size(); ++i) {
          if (checks[i] != Check::kMatch) bad.push_back(run[i].addr);
        }
      });
  return bad;
}

void RecoveryManager::pipeline_runs(
    const std::function<void(std::uint64_t, std::vector<WrittenBlock>&)>&
        scan,
    const std::function<void(std::span<const WrittenBlock>,
                             const std::function<void()>&)>& search) const {
  const std::uint64_t pages = in_.layout->num_pages();
  std::array<std::vector<WrittenBlock>, 2> runs;
  scan(0, runs[0]);
  std::size_t r = 0;
  for (std::uint64_t first = 0; first < pages; first += kRunPages, r ^= 1) {
    const std::uint64_t next = first + kRunPages;
    search(runs[r], [&] {
      runs[r ^ 1].clear();
      if (next < pages) scan(next, runs[r ^ 1]);
    });
  }
}

struct RecoveryManager::LevelPersistedPreset {
  const char* clean_detail;
  /// nullptr leaves `detail` empty on a located attack.
  const char* located_detail;
  /// rebuild_hash_ops counts the node tags of the rebuild above the
  /// frontier, the root recompute included.
  bool counts_rebuild;
  /// tampered_blocks lists the pages of tree-located counter lines before
  /// the data-HMAC mismatches (after them otherwise).
  bool tree_pages_first;
  /// recovered_root holds ROOT_new on an attack too (zero otherwise).
  bool root_on_attack;
};

RecoveryReport RecoveryManager::run(DesignKind kind) {
  // SC's whole-tree verification reports no rebuild work, ROOT_new as the
  // root even on an attack (the register is trusted), and its findings
  // tree-first without a detail line (tests/recovery_batch_test.cpp pins
  // each design's report).
  static constexpr LevelPersistedPreset kStrict{
      "strict consistency: NVM state current", nullptr,
      /*counts_rebuild=*/false, /*tree_pages_first=*/true,
      /*root_on_attack=*/true};
  static constexpr LevelPersistedPreset kTriad{
      "triad: persisted frontier verified, upper levels rebuilt",
      "triad: tampering located against the persisted frontier", true,
      false, false};
  static constexpr LevelPersistedPreset kPhoenix{
      "phoenix: persisted counter tree verified, nothing rebuilt",
      "phoenix: tampered persisted metadata located", true, false, false};
  switch (in_.mode) {
    case RecoveryMode::kNone: {
      RecoveryReport report;
      report.unrecoverable = true;
      report.detail =
          "w/o CC keeps the Merkle root in a volatile register; after power "
          "loss nothing in NVM can be authenticated";
      return report;
    }
    case RecoveryMode::kOsiris:
      return run_osiris();
    case RecoveryMode::kCcNvm:
      return run_cc_nvm();
    case RecoveryMode::kLevelPersisted:
      return run_level_persisted(kind == DesignKind::kStrict    ? kStrict
                                 : kind == DesignKind::kPhoenix ? kPhoenix
                                                                : kTriad);
  }
  CCNVM_CHECK_MSG(false, "unknown recovery mode");
  return {};
}

RecoveryManager::CounterRecovery RecoveryManager::recover_counters() const {
  const nvm::NvmLayout& layout = *in_.layout;
  CounterRecovery out;
  out.blocks.resize(layout.num_pages());

  // Pages go in runs: a run's written blocks are read once, then searched
  // in batched waves (search_counters), whose first wave runs while the
  // calling thread scans the next run. The overflow page is searched
  // during its run's scan, on the calling thread, since it writes the
  // image. Waves find failures out of address order, so they are sorted
  // at the end: the report lists them by address.
  std::vector<WrittenBlock> overflow_page;
  pipeline_runs(
      [&](std::uint64_t first, std::vector<WrittenBlock>& run) {
        const std::uint64_t end =
            std::min(first + kRunPages, layout.num_pages());
        for (std::uint64_t leaf = first; leaf < end; ++leaf) {
          out.blocks[leaf] = persisted_counters(leaf);
          if (in_.tcb.overflow_pending && in_.tcb.overflow_leaf == leaf) {
            overflow_page.clear();
            scan_page(leaf, overflow_page);
            recover_overflow_page(leaf, overflow_page, out);
            continue;
          }
          scan_page(leaf, run);
        }
      },
      [&](std::span<const WrittenBlock> run,
          const std::function<void()>& scan_next) {
        search_counters(run, out, scan_next);
      });
  std::sort(out.failed_blocks.begin(), out.failed_blocks.end());
  return out;
}

void RecoveryManager::search_counters(
    std::span<const WrittenBlock> run, CounterRecovery& out,
    const std::function<void()>& scan_next) const {
  // Candidate counters per block in increment order: the persisted minor
  // and up to N steps forward (N bounds per-line staleness via the
  // update-limit drain trigger). Wave k tries candidate k of every block
  // still unmatched, so per block the candidates, the first match and the
  // retry count are those of a one-block-at-a-time search; only the
  // interleaving across blocks differs, and each wave is one batch across
  // the SIMD lanes. In a crash image almost every block matches in wave 0,
  // where a match changes nothing, so wave 0 is check_run's alone; the
  // blocks it leaves go on in the wave loop, ECC rejects first, as that
  // loop would have queued them.
  const std::vector<Check> wave0 = check_run(run, out.blocks, scan_next);
  // Wave 0 ran the ECC filter on every block with a side band.
  out.ecc_checks += static_cast<std::uint64_t>(
      std::count_if(run.begin(), run.end(),
                    [](const WrittenBlock& wb) { return wb.has_ecc; }));
  std::vector<std::size_t> pending;
  for (const Check miss : {Check::kEccRejected, Check::kHmacMismatch}) {
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (wave0[i] == miss) pending.push_back(i);
    }
  }
  std::vector<std::size_t> tried;
  std::vector<std::size_t> next;
  std::vector<secure::DataHmacReq> reqs;
  std::vector<Tag128> tags;
  for (std::uint64_t k = 1; !pending.empty() && k <= in_.update_limit; ++k) {
    tried.clear();
    next.clear();
    reqs.clear();
    for (const std::size_t i : pending) {
      const WrittenBlock& wb = run[i];
      const CounterBlock& cb = out.blocks[wb.addr / kPageSize];
      const std::uint64_t minor = cb.minors[block_in_page(wb.addr)] + k;
      if (minor > CounterBlock::kMinorMax) {
        out.failed_blocks.push_back(wb.addr);
        continue;
      }
      const crypto::PadCounter cand{cb.major, minor};
      out.ecc_checks += wb.has_ecc ? 1 : 0;
      if (!ecc_admits(wb, cand)) {
        next.push_back(i);
        continue;
      }
      reqs.push_back({&wb.ciphertext, wb.addr, cand});
      tried.push_back(i);
    }
    tags.resize(reqs.size());
    data_hmacs(reqs, tags);
    for (std::size_t j = 0; j < tried.size(); ++j) {
      const WrittenBlock& wb = run[tried[j]];
      if (!(tags[j] == wb.stored_dh)) {
        next.push_back(tried[j]);
        continue;
      }
      out.blocks[wb.addr / kPageSize].minors[block_in_page(wb.addr)] =
          static_cast<std::uint8_t>(reqs[j].counter.minor);
      out.retries += k;
      out.per_block_retries[wb.addr] = k;
      ++out.advanced;
    }
    pending.swap(next);
  }
  for (const std::size_t i : pending) out.failed_blocks.push_back(run[i].addr);
}

void RecoveryManager::recover_overflow_page(
    std::uint64_t leaf, std::span<const WrittenBlock> written,
    CounterRecovery& out) const {
  // A flagged overflow means the crash hit the page re-encryption window:
  // every block is either already re-encrypted under (major+1, small
  // minor) or still under the old (major, stale minor). Recovery decides
  // per block — the two counter families cannot both match one data HMAC —
  // and then *completes* the re-encryption so the page ends uniformly at
  // major+1, which is the only state a single counter line can describe.
  // One page, entered at most once per recovery: searched serially.
  const nvm::NvmLayout& layout = *in_.layout;
  const CounterBlock persisted = out.blocks[leaf];
  CounterBlock cb;
  cb.major = persisted.major + 1;
  cb.minors.fill(0);

  for (const WrittenBlock& wb : written) {
    const Addr data_addr = wb.addr;
    const std::size_t b = block_in_page(data_addr);
    const Line& ciphertext = wb.ciphertext;
    const Tag128& want = wb.stored_dh;

    bool found = false;
    // New family first: (major+1, 0..N), within the minor range.
    const std::uint64_t new_limit =
        std::min<std::uint64_t>(in_.update_limit, CounterBlock::kMinorMax);
    for (std::uint64_t m = 0; m <= new_limit && !found; ++m) {
      const crypto::PadCounter cand{persisted.major + 1, m};
      if (in_.cme->data_hmac(ciphertext, data_addr, cand) == want) {
        cb.minors[b] = static_cast<std::uint8_t>(m);
        out.overflow_retries += m;
        out.retries += m;
        found = true;
      }
    }
    // Old family: (major, persisted minor .. +N); complete the
    // re-encryption for blocks the crash left behind.
    for (std::uint64_t k = 0; k <= in_.update_limit && !found; ++k) {
      const std::uint64_t minor = persisted.minors[b] + k;
      if (minor > CounterBlock::kMinorMax) break;
      const crypto::PadCounter old_cand{persisted.major, minor};
      if (in_.cme->data_hmac(ciphertext, data_addr, old_cand) == want) {
        const Line plaintext = in_.cme->crypt(ciphertext, data_addr, old_cand);
        const crypto::PadCounter fresh{persisted.major + 1, 0};
        const Line new_ct = in_.cme->crypt(plaintext, data_addr, fresh);
        in_.image->write_line(data_addr, new_ct);
        Line dh_line = in_.image->read_line(layout.dh_line_addr(data_addr));
        secure::set_dh_tag_in_line(
            dh_line, layout.dh_offset_in_line(data_addr),
            in_.cme->data_hmac(new_ct, data_addr, fresh));
        in_.image->write_line(layout.dh_line_addr(data_addr), dh_line);
        cb.minors[b] = 0;
        out.overflow_retries += k;
        out.retries += k;
        ++out.advanced;
        found = true;
      }
    }
    if (!found) out.failed_blocks.push_back(data_addr);
  }
  out.blocks[leaf] = cb;
}

Line RecoveryManager::rebuild_tree(const std::vector<CounterBlock>& blocks,
                                   bool persist) const {
  const nvm::NvmLayout& layout = *in_.layout;
  // Each counter line is packed once, for the tree and for the image.
  std::vector<Line> leaves(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) leaves[i] = blocks[i].pack();
  const auto leaf_reader = [&](const NodeId& id) -> Line {
    CCNVM_CHECK(id.level == 0);
    return leaves[id.index];
  };
  const auto writer = [&](const NodeId& id, const Line& value) {
    if (persist) in_.image->write_line(layout.node_addr(id), value);
  };
  const Line root = in_.merkle->build_full_tree(leaf_reader, writer, in_.jobs);
  if (persist) {
    for (std::uint64_t leaf = 0; leaf < layout.num_pages(); ++leaf) {
      in_.image->write_line(layout.data_capacity() + leaf * kLineSize,
                            leaves[leaf]);
    }
  }
  return root;
}

RecoveryReport RecoveryManager::run_osiris() {
  RecoveryReport report;
  const CounterRecovery rec = recover_counters();
  report.total_retries = rec.retries;
  report.counters_recovered = rec.advanced;
  report.ecc_checks = rec.ecc_checks;

  const Line rebuilt_root = rebuild_tree(rec.blocks, /*persist=*/false);
  const bool root_matches = rebuilt_root == in_.tcb.root_new;

  if (!rec.failed_blocks.empty() || !root_matches) {
    // Osiris detects the attack (root mismatch / HMAC exhaustion) but has
    // no second root to localize against: any spoofing or splicing also
    // poisons the reconstructed root, so nothing can be trusted (§3).
    report.attack_detected = true;
    report.attack_located = false;
    report.data_dropped = true;
    report.detail = rec.failed_blocks.empty()
                        ? "rebuilt root mismatches TCB root: replay "
                          "somewhere, all data dropped"
                        : "data HMAC exhaustion during counter recovery; "
                          "root unrecoverable, all data dropped";
    return report;
  }

  (void)rebuild_tree(rec.blocks, /*persist=*/true);
  report.rebuild_hash_ops = rebuild_hash_ops_above(*in_.layout, 0);
  report.tree_nodes_rebuilt = tree_nodes_above(*in_.layout, 0);
  report.metadata_recovered = true;
  report.recovered_root = rebuilt_root;
  report.clean = true;
  report.detail = "counters restored within the update limit";
  return report;
}

RecoveryReport RecoveryManager::run_level_persisted(
    const LevelPersistedPreset& preset) {
  RecoveryReport report;
  const nvm::NvmLayout& layout = *in_.layout;
  const std::uint32_t root_level = layout.root_level();
  const std::uint32_t frontier = std::min(in_.persist_level, root_level - 1);

  const auto stored = [&](const NodeId& id) -> Line {
    if (id.level == 0) {
      return in_.image->read_line(layout.data_capacity() +
                                  id.index * kLineSize);
    }
    return in_.image->read_line(layout.node_addr(id));
  };

  // ---- Rebuild the levels above the persisted frontier, treating the
  // frontier's stored nodes as the leaf set. Same chunked level-by-level
  // scheme as MerkleEngine::build_full_tree, so the result is
  // bit-identical for any jobs value. SC's and Phoenix's frontier is the
  // whole tree; only the root recompute (the verification) remains.
  std::vector<Line> frontier_lines(layout.nodes_at_level(frontier));
  for (std::uint64_t i = 0; i < frontier_lines.size(); ++i) {
    frontier_lines[i] = stored(NodeId{frontier, i});
  }
  std::vector<std::vector<Line>> rebuilt(root_level + 1);
  const auto node_value = [&](const NodeId& id) -> Line {
    if (id.level == frontier) return frontier_lines[id.index];
    CCNVM_CHECK_MSG(id.level > frontier, "bottom-up order violated");
    return rebuilt[id.level][id.index];
  };
  for (std::uint32_t level = frontier + 1; level <= root_level; ++level) {
    const std::uint64_t count = layout.nodes_at_level(level);
    std::vector<Line>& cur = rebuilt[level];
    cur.resize(count);
    constexpr std::uint64_t kChunkNodes = 64;
    const std::size_t chunks =
        static_cast<std::size_t>((count + kChunkNodes - 1) / kChunkNodes);
    parallel_for(chunks, in_.jobs, [&](std::size_t c) {
      const std::uint64_t begin = static_cast<std::uint64_t>(c) * kChunkNodes;
      const std::uint64_t end = std::min(begin + kChunkNodes, count);
      std::vector<NodeId> ids;
      ids.reserve(end - begin);
      for (std::uint64_t i = begin; i < end; ++i) ids.push_back({level, i});
      in_.merkle->compute_nodes(
          ids, node_value,
          {cur.data() + begin, static_cast<std::size_t>(end - begin)});
    });
  }
  if (preset.counts_rebuild) {
    report.rebuild_hash_ops = rebuild_hash_ops_above(layout, frontier);
  }
  const Line computed_root = rebuilt[root_level].front();
  const bool root_matches = computed_root == in_.tcb.root_new;

  // ---- Verify the whole tree — stored nodes at and below the frontier,
  // rebuilt nodes standing in above it — against ROOT_new. The rebuild
  // alone cannot vouch for the *stored* levels (it reads only the
  // frontier), so every persisted node is checked against the
  // recomputation from its children, which is also what localizes
  // tampering (§4.4 step 1): a mismatching child is reported directly.
  const auto hybrid = [&](const NodeId& id) -> Line {
    if (id.level <= frontier) return stored(id);
    return rebuilt[id.level][id.index];
  };
  const auto bad =
      in_.merkle->find_inconsistencies(hybrid, in_.tcb.root_new, in_.jobs);

  // ---- Data-HMAC scan against the persisted counters (they are current
  // at every crash point — each write-back persists its counter line),
  // catching spoofed/spliced/replayed data, DH and counter lines.
  report.tampered_blocks = verify_data_hmacs();

  if (root_matches && bad.empty() && report.tampered_blocks.empty()) {
    // Persist the rebuilt levels so the NVM image and the reinstalled
    // logical state agree above the frontier too.
    for (std::uint32_t level = frontier + 1; level < root_level; ++level) {
      for (std::uint64_t i = 0; i < layout.nodes_at_level(level); ++i) {
        in_.image->write_line(layout.node_addr(NodeId{level, i}),
                              rebuilt[level][i]);
      }
    }
    report.tree_nodes_rebuilt = tree_nodes_above(layout, frontier);
    report.metadata_recovered = true;
    report.recovered_root = computed_root;
    report.clean = true;
    report.detail = preset.clean_detail;
    return report;
  }

  // ---- Localize: parent/child mismatches pin tampering inside the
  // persisted region; a divergence confined above the frontier only
  // bounds the subtree — Triad's localization limit for its volatile
  // levels.
  std::vector<Addr> tree_pages;
  for (const NodeId& id : bad) {
    report.replayed_nodes.push_back(id);
    if (id.level == 0) tree_pages.push_back(id.index * kPageSize);
  }
  report.tampered_blocks.insert(preset.tree_pages_first
                                    ? report.tampered_blocks.begin()
                                    : report.tampered_blocks.end(),
                                tree_pages.begin(), tree_pages.end());
  report.attack_detected = true;
  report.attack_located =
      !report.tampered_blocks.empty() || !report.replayed_nodes.empty();
  if (preset.root_on_attack) report.recovered_root = in_.tcb.root_new;
  if (report.attack_located) {
    if (preset.located_detail != nullptr) {
      report.detail = preset.located_detail;
    }
  } else {
    report.data_dropped = true;
    report.detail = "triad: divergence above the persisted frontier; "
                    "subtree bounded but not locatable";
  }
  return report;
}

RecoveryReport RecoveryManager::run_cc_nvm() {
  RecoveryReport report;
  const nvm::NvmLayout& layout = *in_.layout;

  // ---- Step 1: locate tree-level replay attacks. ------------------------
  const auto nvm_reader = [&](const NodeId& id) -> Line {
    if (id.level == 0) {
      return in_.image->read_line(layout.data_capacity() +
                                  id.index * kLineSize);
    }
    return in_.image->read_line(layout.node_addr(id));
  };
  // One pass checks the stored tree against both roots.
  const std::array<Line, 2> roots = {in_.tcb.root_new, in_.tcb.root_old};
  const auto bad = in_.merkle->find_inconsistencies(nvm_reader, roots,
                                                    in_.jobs);
  const std::vector<NodeId>& bad_new = bad[0];
  const std::vector<NodeId>& bad_old = bad[1];

  const bool matches_new = bad_new.empty();
  const bool matches_old = bad_old.empty();
  if (!matches_new && !matches_old) {
    // The epoch invariant says the NVM tree always matches one root in the
    // absence of attacks, so any two mismatching parent/child nodes
    // pinpoint replayed (or tampered) metadata.
    report.attack_detected = true;
    report.attack_located = true;
    // Report against the committed root: those are the lines that diverge
    // from the last known-good persisted state.
    for (const NodeId& id : bad_old) {
      report.replayed_nodes.push_back(id);
      if (id.level == 0) {
        report.tampered_blocks.push_back(id.index * kPageSize);
      }
    }
    report.detail = "Merkle tree in NVM matches neither TCB root: replayed "
                    "metadata located";
    return report;
  }

  // ---- Step 2: recover stalled counters, locate spoofing/splicing. ------
  const CounterRecovery rec = recover_counters();
  report.total_retries = rec.retries;
  report.counters_recovered = rec.advanced;
  if (!rec.failed_blocks.empty()) {
    report.attack_detected = true;
    report.attack_located = true;
    report.tampered_blocks = rec.failed_blocks;
    report.detail = "data HMAC exhausted after N retries: spoofed/spliced "
                    "data or DH located";
    return report;
  }

  // ---- Step 3: N_wb vs N_retry — the deferred-spreading replay check. ---
  // If the tree matches ROOT_new while the roots differ, the crash hit the
  // window after the drain's end signal but before the register reset: the
  // committed counters already contain every write-back, so zero retries
  // are expected. Otherwise the persisted counters are N_wb increments
  // behind. A flagged overflow page is excluded (its retries are not
  // 1:1 with write-backs); the overflow flag itself bounds that window.
  const bool committed =
      matches_new && !(matches_old && in_.tcb.root_old == in_.tcb.root_new);
  const std::uint64_t expected = committed ? 0 : in_.tcb.n_wb;

  // cc-NVM+ extension: with per-block update registers, the comparison is
  // block-exact, so an epoch-window replay is *located*, not just
  // detected.
  if (in_.per_block_updates != nullptr) {
    const nvm::NvmLayout& lay = *in_.layout;
    std::vector<Addr> mismatched;
    for (const auto& [cline, counts] : *in_.per_block_updates) {
      const std::uint64_t leaf = lay.counter_line_index(cline);
      if (in_.tcb.overflow_pending && in_.tcb.overflow_leaf == leaf) continue;
      for (std::size_t b = 0; b < kBlocksPerPage; ++b) {
        const Addr da = leaf * kPageSize + b * kLineSize;
        const auto it = rec.per_block_retries.find(da);
        const std::uint64_t actual =
            it == rec.per_block_retries.end() ? 0 : it->second;
        const std::uint64_t want = committed ? 0 : counts[b];
        if (actual != want) mismatched.push_back(da);
      }
    }
    // Retries on a block whose counter line the registers do not track
    // are equally impossible without an attack.
    for (const auto& [da, actual] : rec.per_block_retries) {
      if (actual == 0) continue;
      const Addr cline = lay.counter_line_addr(da);
      if (in_.tcb.overflow_pending &&
          in_.tcb.overflow_leaf == da / kPageSize) {
        continue;
      }
      if (!in_.per_block_updates->contains(cline)) mismatched.push_back(da);
    }
    if (!mismatched.empty()) {
      report.attack_detected = true;
      report.attack_located = true;
      report.potential_replay = true;
      report.tampered_blocks = mismatched;
      report.detail = "per-block update registers: replayed data/DH pair(s) "
                      "located inside the epoch window (cc-NVM+ extension)";
      return report;
    }
  }

  const std::uint64_t comparable = rec.retries - rec.overflow_retries;
  if (in_.per_block_updates == nullptr && !in_.tcb.overflow_pending &&
      comparable != expected) {
    report.attack_detected = true;
    report.attack_located = false;
    report.potential_replay = true;
    report.detail = "N_retry != N_wb: data/DH pair replayed inside the "
                    "deferred-spreading window (detected, not locatable)";
    return report;
  }
  if (in_.tcb.overflow_pending && comparable > expected) {
    report.attack_detected = true;
    report.attack_located = false;
    report.potential_replay = true;
    report.detail = "N_retry exceeds N_wb despite overflow tolerance";
    return report;
  }

  // ---- Step 4: rebuild the tree from the recovered counters. ------------
  report.recovered_root = rebuild_tree(rec.blocks, /*persist=*/true);
  report.rebuild_hash_ops = rebuild_hash_ops_above(layout, 0);
  report.tree_nodes_rebuilt = tree_nodes_above(layout, 0);
  report.metadata_recovered = true;
  report.clean = true;
  report.detail = "counters recovered, Merkle tree rebuilt";
  return report;
}

}  // namespace ccnvm::core
