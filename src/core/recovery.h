// Crash recovery and attack locating (§4.4).
//
// After a power failure the system is left with: the NVM image (data,
// data HMACs, counters and tree nodes as of their last persist), and the
// TCB's persistent registers. RecoveryManager reconstructs the newest
// security metadata and classifies integrity attacks, per design:
//
//   kCcNvm  — the paper's 4-step procedure:
//             1. locate tree-level replay attacks: the NVM tree must match
//                ROOT_old or ROOT_new; parent/child mismatches localize
//                replayed nodes;
//             2. recover stalled counters by brute-forcing each data HMAC
//                forward (<= N retries, N being the update-limit trigger);
//                an exhausted search locates a spoofing/splicing attack;
//             3. compare the retry total against N_wb to detect the
//                deferred-spreading replay window (detected, not located);
//             4. rebuild the Merkle tree from the recovered counters.
//   kOsiris — counters brute-forced the same way, tree rebuilt, and the
//             rebuilt root compared with the TCB root: a mismatch detects
//             an attack but cannot locate it, so all data is dropped.
//   kLevelPersisted — SC, Triad-NVM and Phoenix (docs/MODEL.md §5b):
//             counters and tree levels 1..persist_level are current in
//             NVM (every level for SC and Phoenix). Recovery rebuilds the
//             unpersisted upper levels from the persisted frontier — for
//             SC and Phoenix only the root recompute is left — checks the
//             stored tree against ROOT_new and scans every data HMAC.
//             Parent/child mismatches and failing HMACs locate tampering;
//             a divergence confined above the frontier is detected but
//             not located, so the data is dropped.
//             The report's wording is the design's own.
//   kNone   — conventional secure memory: the root register is volatile,
//             so after a crash nothing can be authenticated at all.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tcb.h"
#include "nvm/image.h"
#include "nvm/layout.h"
#include "secure/cme_engine.h"
#include "secure/counter_block.h"
#include "secure/merkle.h"

namespace ccnvm::core {

enum class RecoveryMode { kNone, kOsiris, kCcNvm, kLevelPersisted };

enum class DesignKind;  // core/design.h

struct RecoveryReport {
  /// True when recovery finished with fresh, verified metadata and no
  /// attack of any kind was observed.
  bool clean = false;
  /// Counters and tree restored to their newest consistent state (and
  /// written back to the NVM image).
  bool metadata_recovered = false;
  bool attack_detected = false;
  /// The exact tampered lines were identified (cc-NVM's headline ability).
  bool attack_located = false;
  /// N_wb / N_retry mismatch: a replay in the deferred-spreading window
  /// was detected but cannot be pinpointed (§4.3).
  bool potential_replay = false;
  /// The design cannot tell which data is bad, so everything must go.
  bool data_dropped = false;
  /// No authentication possible at all (w/o CC after power loss).
  bool unrecoverable = false;

  /// Located tampered data blocks (spoofed/spliced/replayed data or DH).
  std::vector<Addr> tampered_blocks;
  /// Located replayed metadata lines (counter lines are level 0).
  std::vector<nvm::NodeId> replayed_nodes;

  std::uint64_t total_retries = 0;
  std::uint64_t counters_recovered = 0;
  /// Tree-reconstruction work this recovery performed: node-tag HMACs
  /// computed while rebuilding unpersisted levels (plus the root check),
  /// and internal node lines rewritten into the NVM image. Deterministic
  /// model quantities — the tradeoff bench derives recovery latency from
  /// them. Phoenix rebuilds 0 nodes; Triad-N shrinks both as N grows.
  std::uint64_t rebuild_hash_ops = 0;
  std::uint64_t tree_nodes_rebuilt = 0;
  /// ECC-oracle evaluations performed (Osiris's "extra online checking").
  std::uint64_t ecc_checks = 0;
  /// The Merkle root after recovery (valid when metadata_recovered).
  Line recovered_root{};
  std::string detail;
};

/// Per-block write-back counts since the last commit, keyed by counter
/// line address — the extra persistent register file of the paper's
/// closing extension ("record ... the update times of each dirty counter
/// cache ... to locate the tempered data blocks").
using PerBlockUpdates =
    std::unordered_map<Addr, std::array<std::uint8_t, kBlocksPerPage>>;

struct RecoveryInputs {
  const nvm::NvmLayout* layout = nullptr;
  nvm::NvmImage* image = nullptr;  // repaired in place on success
  const secure::CmeEngine* cme = nullptr;
  const secure::MerkleEngine* merkle = nullptr;
  TcbRegisters tcb;
  std::uint32_t update_limit = 16;  // N
  RecoveryMode mode = RecoveryMode::kCcNvm;
  /// When non-null (cc-NVM+), step 3 compares retries per *block* instead
  /// of in aggregate, turning epoch-window replays from detected into
  /// located.
  const PerBlockUpdates* per_block_updates = nullptr;
  /// Osiris: filter counter candidates through the plaintext-ECC oracle
  /// (decrypt + SECDED check) before the data-HMAC confirmation — the
  /// MICRO'18 mechanism. Functionally equivalent (the HMAC remains the
  /// authority); changes the cost accounting.
  bool use_ecc_oracle = false;
  /// Worker count for the hashing of every recovery step — tree checks,
  /// the counter search, data-HMAC scans, the full-tree rebuild (1 =
  /// inline, 0 = auto). Image reads and writes stay on the calling thread,
  /// and the report and the repaired image are bit-identical for any
  /// value.
  std::size_t jobs = 1;
  /// kLevelPersisted: highest tree level persisted per write-back
  /// (clamped to the internal levels; levels above it are rebuilt here).
  std::uint32_t persist_level = 1;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(const RecoveryInputs& in) : in_(in) {}

  /// Runs `in.mode`'s pass; `kind` is the recovering design, which
  /// words the level-persisted report.
  RecoveryReport run(DesignKind kind);

 private:
  /// One written data block as the crashed image holds it.
  struct WrittenBlock {
    Addr addr = 0;
    Line ciphertext{};
    Tag128 stored_dh{};
    /// Plaintext-ECC side band (read only for the Osiris oracle).
    bool has_ecc = false;
    std::array<std::uint8_t, 8> ecc{};
  };

  struct CounterRecovery {
    std::vector<secure::CounterBlock> blocks;  // recovered, by leaf index
    std::uint64_t retries = 0;
    std::uint64_t advanced = 0;
    std::uint64_t overflow_retries = 0;  // retries on the flagged page
    std::vector<Addr> failed_blocks;
    /// Retries performed per data block (cc-NVM+ step-3 comparison); a
    /// block absent here matched with zero retries.
    std::unordered_map<Addr, std::uint64_t> per_block_retries;
    std::uint64_t ecc_checks = 0;
  };

  RecoveryReport run_cc_nvm();
  RecoveryReport run_osiris();
  /// How one level-persisted design words and orders its report.
  struct LevelPersistedPreset;
  /// SC / Triad-NVM / Phoenix: rebuild levels above the persisted
  /// frontier, verify the root and every data HMAC, localize on mismatch.
  RecoveryReport run_level_persisted(const LevelPersistedPreset& preset);

  /// Step 2: brute-force every written block's counter forward against its
  /// data HMAC.
  CounterRecovery recover_counters() const;

  /// The step-2 search over one run of pages' written blocks, whose
  /// persisted counters are already in out.blocks: wave k tries minor+k
  /// for every block still unmatched, as one data-HMAC batch. The calling
  /// thread runs `scan_next` (the next run's scan) during wave 0; it may
  /// write `out`, but not this run's blocks or counters.
  void search_counters(std::span<const WrittenBlock> run,
                       CounterRecovery& out,
                       const std::function<void()>& scan_next) const;

  /// Recovery of a page whose minor-counter overflow re-encryption was
  /// interrupted by the crash (flagged in the TCB). `written` is the
  /// page's scan; out.blocks[leaf] holds the persisted counters on entry.
  void recover_overflow_page(std::uint64_t leaf,
                             std::span<const WrittenBlock> written,
                             CounterRecovery& out) const;

  /// Step 4 / Osiris rebuild: recompute the full tree from `blocks`,
  /// persist counters + internal nodes into the image, return the root.
  Line rebuild_tree(const std::vector<secure::CounterBlock>& blocks,
                    bool persist) const;

  /// Appends page `leaf`'s written blocks in block order: those whose
  /// stored data-HMAC slot is non-zero (an all-zero tag marks
  /// never-written blocks in this model). Each DH line is read once.
  void scan_page(std::uint64_t leaf, std::vector<WrittenBlock>& out) const;

  /// Checks every written block's data HMAC against the counter line
  /// persisted in the image (current at every crash point for the
  /// level-persisted designs). Returns the mismatching blocks in
  /// address order.
  std::vector<Addr> verify_data_hmacs() const;

  /// out[i] = data HMAC of reqs[i], batched through data_hmac_many over
  /// `jobs` workers.
  void data_hmacs(std::span<const secure::DataHmacReq> reqs,
                  std::span<Tag128> out) const;

  /// How a written block fared under one candidate counter.
  enum class Check : std::uint8_t { kMatch, kEccRejected, kHmacMismatch };

  /// Tries every block of `run` under its counter in `counters` (indexed
  /// by leaf), the ECC filter first where the block has a side band, on
  /// the pool while the calling thread runs `caller_task`
  /// (parallel_for_overlapped). Returns each block's outcome by index.
  std::vector<Check> check_run(std::span<const WrittenBlock> run,
                               std::span<const secure::CounterBlock> counters,
                               const std::function<void()>& caller_task) const;

  /// Osiris's plaintext-ECC filter: false when the block carries an ECC
  /// side band that rules `cand` out. Blocks without one always pass.
  bool ecc_admits(const WrittenBlock& wb, crypto::PadCounter cand) const;

  /// The double-buffered page-run loop of step 2 and the data-HMAC scan:
  /// `scan(first, run)` appends the written blocks of the run starting at
  /// page `first` to `run`, and `search(run, scan_next)` gets each run in
  /// page order with the scan of the next run, to run on the calling
  /// thread while the pool hashes this one.
  void pipeline_runs(
      const std::function<void(std::uint64_t, std::vector<WrittenBlock>&)>&
          scan,
      const std::function<void(std::span<const WrittenBlock>,
                               const std::function<void()>&)>& search) const;

  secure::CounterBlock persisted_counters(std::uint64_t leaf) const;

  RecoveryInputs in_;
};

}  // namespace ccnvm::core
