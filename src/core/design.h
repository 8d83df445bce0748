// Secure-NVM design framework.
//
// All five evaluated designs (§5: w/o CC, SC, Osiris Plus, cc-NVM w/o DS,
// cc-NVM) share one memory-controller data path — counter-mode encryption,
// data HMACs generated in the controller, a Meta Cache for counters and
// tree nodes — and differ in (a) how far each write-back propagates tree
// updates, (b) when metadata persists to NVM, and (c) what can be
// recovered after a crash. SecureNvmBase implements the shared path with
// virtual hooks for exactly those three axes.
//
// Functional/timing split: with `functional = true` the engine computes
// real AES/HMAC values and maintains bit-accurate NVM contents (tests,
// examples, recovery); with `functional = false` only cache/queue state
// and cycle/traffic accounting run, which lets benchmarks simulate the
// paper's 16 GB geometry at speed. Both modes execute identical control
// flow, so the timing results are the functional machine's timing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "common/annotations.h"
#include "common/inline_vec.h"
#include "common/types.h"
#include "core/meta_cache_group.h"
#include "core/protocol_observer.h"
#include "core/recovery.h"
#include "core/tcb.h"
#include "nvm/controller.h"
#include "nvm/image.h"
#include "nvm/layout.h"
#include "nvm/timing.h"
#include "secure/cme_engine.h"
#include "secure/ecc.h"
#include "secure/merkle.h"
#include "secure/metadata_store.h"

namespace ccnvm::core {

enum class DesignKind {
  kWoCc,
  kStrict,
  kOsirisPlus,
  kCcNvmNoDs,
  kCcNvm,
  /// Extension (§4.4 closing remark): cc-NVM plus persistent per-block
  /// update registers that make epoch-window replays locatable.
  kCcNvmPlus,
  /// Triad-NVM (Awad et al., ISCA'19): persist the integrity tree only up
  /// to level N (`DesignConfig::persist_level`); recovery rebuilds the
  /// unpersisted upper levels from the persisted frontier.
  kTriadNvm,
  /// Phoenix (Alwadi et al.): persistently secure counter tree — counters
  /// and every affected tree node persist in place on each write-back, so
  /// recovery verifies the root and rebuilds nothing.
  kPhoenix,
};

std::string_view design_name(DesignKind kind);

/// Parses a CLI design name: wocc, sc, osiris, ccnvm-nods, ccnvm,
/// ccnvm-plus, phoenix, triad, or triad-n<K> (Triad-NVM with persist
/// frontier K in 1..64). `persist_level` (optional) receives K and is left
/// alone for every other name, plain triad included (K = 1 is the
/// DesignConfig default). Unknown names and out-of-range K give nullopt.
std::optional<DesignKind> parse_design(std::string_view name,
                                       std::uint32_t* persist_level = nullptr);

/// The level-persisted designs — SC, Triad-NVM and Phoenix (docs/MODEL.md
/// §5b): each write-back commits its branch up to the persisted frontier,
/// so there is no drain epoch and no drain window to crash inside.
bool commits_every_write_back(DesignKind kind);

struct DesignConfig {
  std::uint64_t data_capacity = 1ull << 20;
  std::uint64_t key_seed = 0x5eedULL;
  /// Compute real crypto and maintain NVM contents (see file comment).
  bool functional = true;
  std::size_t meta_cache_bytes = 128ull << 10;  // paper: 128 KB, 8-way
  std::size_t meta_cache_ways = 8;
  /// Split the capacity into separate counter and Merkle-tree caches
  /// (see core/meta_cache_group.h); default is one shared structure.
  bool split_meta_cache = false;
  std::size_t daq_entries = 64;    // M (Fig. 6b sweeps this)
  std::uint32_t update_limit = 16;  // N (Fig. 6a sweeps this)
  std::size_t wpq_entries = 64;
  /// Speculative integrity verification on reads (PoisonIvy, Lehman et
  /// al. MICRO'16 — the paper's [13]): decrypted data is forwarded to the
  /// core before its data-HMAC check completes; verification runs in the
  /// background and poisons the pipeline on failure. Removes the 80-cycle
  /// check (and, on a counter hit, the OTP wait beyond the data fetch)
  /// from the read critical path. Functional detection is unchanged —
  /// failures are still reported, just off the latency path.
  bool speculative_reads = false;
  /// Triad-NVM persistence frontier N: tree levels 1..N persist on every
  /// write-back, levels above N stay volatile until recovery rebuilds
  /// them. Values >= the tree height degenerate to the strict variant
  /// (every internal level persisted). Ignored by the other designs.
  std::uint32_t persist_level = 1;
  /// Workers for the reopen path's hashing and decryption: the all-zero
  /// tree built at construction, recovery's tree checks, counter search,
  /// data-HMAC scans and full-tree rebuild, and read_blocks' batched
  /// decrypt + data-HMAC check (the store-open scan). 0 = auto (every
  /// core, through the process-wide pool in common/thread_pool.h),
  /// 1 = inline. Image accesses stay on the calling thread; results,
  /// reports, alerts, stats and the image are bit-identical for any value.
  std::size_t recovery_jobs = 0;
  /// Optional NVM media backend factory (nvm/backend.h), called once at
  /// construction with the layout's total footprint in bytes. Null keeps
  /// the default volatile in-memory map. A file-backed factory should
  /// hand over a *freshly created* (empty) backend — the constructor
  /// formats the DIMM from scratch; reopening an existing DIMM file goes
  /// through core::open_dimm() and restore_from_power_down() instead.
  std::function<std::unique_ptr<nvm::Backend>(std::uint64_t)> backend_factory;
  nvm::TimingParams timing{};
};

struct DesignStats {
  std::uint64_t write_backs = 0;
  std::uint64_t reads = 0;
  std::uint64_t drains = 0;
  /// Drains by §4.2 trigger: [0] DAQ pressure, [1] dirty Meta Cache
  /// eviction, [2] update-limit N exceeded, [3] explicit (quiesce/API).
  std::array<std::uint64_t, 4> drains_by_trigger{};
  std::uint64_t page_reencryptions = 0;
  std::uint64_t hmac_ops = 0;
  std::uint64_t aes_ops = 0;
  std::uint64_t online_counter_recoveries = 0;  // Osiris Plus extra checks
  std::uint64_t engine_busy_cycles = 0;         // write-path blocking total
  std::uint64_t drain_cycles = 0;
  std::uint64_t read_latency_cycles = 0;        // sum over read_block calls
  std::uint64_t runtime_alerts = 0;             // integrity failures seen live
};

struct ReadResult {
  Line plaintext{};
  std::uint64_t latency = 0;
  bool integrity_ok = true;
};

/// Public interface of one secure-NVM design instance.
class SecureNvmDesign {
 public:
  virtual ~SecureNvmDesign() = default;

  virtual DesignKind kind() const = 0;
  std::string_view name() const { return design_name(kind()); }

  /// A dirty line evicted from the LLC. Returns the cycles the write-back
  /// blocks the secure engine before the data can enter the WPQ — the
  /// quantity that differentiates the designs' IPC (§5.1).
  virtual std::uint64_t write_back(Addr addr, const Line& plaintext) = 0;

  /// An LLC miss served from NVM: fetch, decrypt, authenticate.
  virtual ReadResult read_block(Addr addr) = 0;

  /// Batch read: equivalent to calling read_block on each address in
  /// order — same results, same stats, same alert order. The base class
  /// overrides this to defer the per-block decrypts and data-HMAC
  /// verifications and run them as bursts through the multi-lane
  /// tagging path, spread over `DesignConfig::recovery_jobs` workers,
  /// which is what makes scan-shaped consumers (store open) fill SIMD
  /// lanes and cores instead of issuing one block at a time. A long
  /// batch goes in sub-batches: the pool verifies one while the calling
  /// thread fetches the next.
  virtual std::vector<ReadResult> read_blocks(std::span<const Addr> addrs);

  /// Cycles of *synchronous* stall accumulated since the last call —
  /// work during which the engine accepts no new write-backs at all
  /// (cc-NVM's drains block steps 1-2 of subsequent evictions, §4.2).
  /// The system model charges these to the CPU directly, unlike the
  /// pipelined per-write-back busy time returned by write_back().
  virtual std::uint64_t consume_sync_stall() { return 0; }

  /// Power failure: on-chip caches and queues vanish; ADR drains the WPQ
  /// per the atomic-batch rules; only NVM + persistent registers survive.
  virtual void crash_power_loss() = 0;

  /// Post-crash recovery per the design's capability (§4.4).
  virtual RecoveryReport recover() = 0;

  virtual const DesignStats& stats() const = 0;
  virtual const nvm::TrafficStats& traffic() const = 0;
  virtual cache::CacheStats meta_cache_stats() const = 0;

  /// The raw NVM image — the attack surface (src/attacks mutates this).
  virtual nvm::NvmImage& image() = 0;
  virtual const nvm::NvmLayout& layout() const = 0;
  virtual const TcbRegisters& tcb() const = 0;
};

/// Shared implementation. Subclasses supply the persistence policy.
class SecureNvmBase : public SecureNvmDesign {
 public:
  explicit SecureNvmBase(const DesignConfig& config);

  // Self-referential (the controller holds a pointer to the image member):
  // neither copyable nor movable.
  SecureNvmBase(const SecureNvmBase&) = delete;
  SecureNvmBase& operator=(const SecureNvmBase&) = delete;

  std::uint64_t write_back(Addr addr, const Line& plaintext) final;
  ReadResult read_block(Addr addr) final;
  std::vector<ReadResult> read_blocks(std::span<const Addr> addrs) final;
  void crash_power_loss() final;
  RecoveryReport recover() final;

  const DesignStats& stats() const final { return stats_; }
  const nvm::TrafficStats& traffic() const final {
    return controller_.stats();
  }
  cache::CacheStats meta_cache_stats() const final {
    return meta_cache_.stats();
  }
  nvm::NvmImage& image() final { return image_; }
  const nvm::NvmLayout& layout() const final { return layout_; }
  const TcbRegisters& tcb() const final { return tcb_; }
  const DesignConfig& config() const { return config_; }

  /// Full audit of the current NVM image (tree + every written block's
  /// data HMAC) against the TCB state — runtime attack sweep used by
  /// tests and the attack-detection example. Returns tampered addresses.
  std::vector<Addr> audit_image();

  /// Flushes all pending metadata so the NVM image reflects the logical
  /// state (cc-NVM: a drain; others: persist dirty lines).
  virtual void quiesce() {}

  /// Installs a powered-down DIMM image + persistent registers into
  /// this (freshly constructed, same-config, same-key-seed) system,
  /// leaving it in the post-crash state — the other half of a host power
  /// cycle (see core::open_dimm in core/persistence.h). Call recover()
  /// next.
  void restore_from_power_down(nvm::NvmImage image, const TcbRegisters& tcb);

  /// Integrity failures observed at runtime since the last crash/reset.
  const std::vector<Addr>& alerts() const { return alerts_; }

  bool crashed() const { return crashed_; }
  void reset_stats();

  /// Attaches (or detaches, with nullptr) a protocol observer — the
  /// invariant auditor's entry point. The observer must outlive the
  /// design or be detached first; only one can be attached at a time.
  void attach_observer(ProtocolObserver* observer) { observer_ = observer; }
  ProtocolObserver* observer() const { return observer_; }

  /// Read-only view of internal state for observers/auditors.
  AuditView audit_view() const;

  /// Committed drain epochs (0 until the first commit; cc-NVM designs
  /// advance it, others leave it at 0). Carried in CCNVM_CHECK context.
  std::uint64_t commit_epoch() const { return commit_epoch_; }

 protected:
  // --- Per-design policy hooks -----------------------------------------

  /// Before anything else in a write-back (cc-NVM: DAQ reservation and
  /// capacity-triggered drains). Returns stall cycles.
  virtual std::uint64_t pre_write_back(Addr /*addr*/) { return 0; }

  /// Tree update + metadata persistence for this write-back, returning
  /// the *total* engine-blocking cycles for the crypto+metadata phase.
  /// The counter line has already been incremented and dirtied;
  /// `counter_was_cached` is its Meta Cache residency before this
  /// write-back; `crypt_cycles` is the encryption + data-HMAC latency,
  /// which hardware overlaps with the tree walk and DAQ insertion (§4.2:
  /// "the process of [update] and [tracking] is executed in parallel"),
  /// so implementations compose with max(), not +.
  virtual std::uint64_t on_write_back_metadata(Addr addr,
                                               bool counter_was_cached,
                                               std::uint64_t crypt_cycles) = 0;

  /// A valid metadata line displaced from the Meta Cache.
  virtual std::uint64_t on_meta_eviction(Addr line_addr, bool dirty) = 0;

  /// A minor-counter overflow just re-encrypted page `leaf`.
  virtual std::uint64_t on_overflow(std::uint64_t /*leaf*/) { return 0; }

  /// A metadata line just took a logical update (counter increment or
  /// tree-node recompute) — cc-NVM re-tracks it in the DAQ here, so that
  /// a drain interleaved inside a write-back never strands a dirty line.
  virtual void on_metadata_dirtied(Addr /*line_addr*/) {}

  /// The counter of the block at `data_addr` was just incremented —
  /// cc-NVM+ bumps its persistent per-block update register here.
  virtual void on_counter_incremented(Addr /*data_addr*/) {}

  /// Lets a design extend the recovery inputs (cc-NVM+ passes its
  /// persistent per-block update registers).
  virtual void augment_recovery_inputs(RecoveryInputs& /*inputs*/) {}

  /// Called after a successful recovery (metadata reinstalled, registers
  /// reset) — cc-NVM+ clears its update registers here.
  virtual void post_recovery_reset() {}

  virtual RecoveryMode recovery_mode() const = 0;

  /// Whether the NVM copy of tree level `level` (1..root-1) tracks the
  /// logical state at quiesce points. audit_image() compares only the
  /// persisted levels against the logical tree; designs that legitimately
  /// leave a level stale (Osiris: all; Triad-NVM: levels above N) opt out
  /// per level.
  virtual bool tree_level_persisted(std::uint32_t /*level*/) const {
    return recovery_mode() != RecoveryMode::kOsiris;
  }

  /// Extra state to wipe on power loss (DAQ, per-design trackers).
  virtual void post_crash_reset() {}

  /// The Drainer's tracking queue, when the design has one (cc-NVM
  /// family) — exposed to observers through AuditView.
  virtual const DirtyAddressQueue* audit_daq() const { return nullptr; }

  // --- Shared machinery --------------------------------------------------

  bool functional() const { return meta_ != nullptr; }

  /// Meta Cache access with miss handling (fetch + verify) and eviction
  /// dispatch. Returns cycles.
  std::uint64_t meta_access(Addr line_addr, bool is_write);

  /// Fetch of an uncached metadata line from NVM, including integrity
  /// verification against the cached part of the tree. Default: hash-chain
  /// check (the NVM value must match what the tree committed to). Osiris
  /// Plus overrides it: counters are rolled forward by data-HMAC
  /// brute-forcing, tree nodes are recomputed (they are never persisted).
  virtual std::uint64_t fetch_metadata(Addr line_addr);

  /// One spill-up step: fold `line_addr`'s tag into its parent (used when
  /// a dirty line leaves the Meta Cache outside a drain).
  std::uint64_t fold_into_parent(Addr line_addr);

  /// Propagates the counter update at `data_addr` up the tree.
  /// `stop_at_cached`: deferred spreading — stop before recomputing into a
  /// level whose child was already cached pre-write-back. When the walk
  /// reaches the top, ROOT_new is updated. Returns cycles.
  std::uint64_t propagate_path(Addr data_addr, bool counter_was_cached,
                               bool stop_at_cached);

  /// Current logical value of a metadata line (counter pack / tree node).
  Line logical_metadata(Addr line_addr) const;

  nvm::LineKind metadata_kind(Addr line_addr) const {
    return layout_.is_counter_addr(line_addr) ? nvm::LineKind::kCounter
                                              : nvm::LineKind::kMtNode;
  }

  /// Persists a metadata line's logical value (legacy / batched).
  void persist_metadata(Addr line_addr, bool batched);

  /// Re-encrypts every written block of `leaf` after a major bump.
  /// `old_counters` is the pre-overflow counter block (needed to decrypt).
  std::uint64_t reencrypt_page(std::uint64_t leaf,
                               const secure::CounterBlock& old_counters);

  void note_alert(Addr addr);

  /// Mirrors the battery-backed TCB registers into the NVM backend's
  /// register slot (no-op in timing-only mode). Called wherever the
  /// registers change durably — after N_wb bumps, root recomputes,
  /// drain commits, and recovery resets — so a durable backend always
  /// carries a register snapshot consistent with some legal §4.2 crash
  /// point of the lines around it.
  void persist_tcb();

  /// Metadata line addresses a write-back of `data_addr` touches: the
  /// counter line plus all internal tree nodes on its path.
  InlineVec<Addr, 32> metadata_addrs_for(Addr data_addr) const;

  DesignConfig config_;
  nvm::NvmLayout layout_;
  CCNVM_PERSISTENT nvm::NvmImage image_;
  nvm::MemoryController controller_;
  secure::CmeEngine cme_;
  crypto::HmacKey tree_key_;
  secure::MerkleEngine merkle_;
  std::unique_ptr<secure::MetadataStore> meta_;  // null in timing-only mode
  MetaCacheGroup meta_cache_;
  CCNVM_PERSISTENT TcbRegisters tcb_;  // battery-backed §4.2 registers
  DesignStats stats_;
  const nvm::TimingParams& timing_;

  /// Updates applied to a counter line since its last persist — drives
  /// Osiris Plus's stop-loss persistence and its online recovery cost.
  /// Only counter lines are ever counted; tree lines never enter it.
  std::unordered_map<Addr, std::uint64_t> updates_since_persist_;

  std::vector<Addr> alerts_;
  bool crashed_ = false;
  ProtocolObserver* observer_ = nullptr;
  std::uint64_t commit_epoch_ = 0;

 private:
  /// One block's decrypt and data-HMAC verification postponed by
  /// read_blocks so the whole batch can share tag_many bursts across the
  /// workers. `alert_pos` records where alerts_ stood when the serial
  /// loop would have run this check, so a late failure is spliced in at
  /// exactly the serial position.
  struct DeferredCheck {
    bool needed = false;
    Line ct{};
    Addr addr = 0;
    crypto::PadCounter pc{};
    Tag128 stored{};
    std::size_t alert_pos = 0;
  };

  /// The DH line read_blocks fetched last. No read writes a DH line, so
  /// consecutive blocks that share one read it once.
  struct DhLineCache {
    Addr addr = ~Addr{0};
    Line line{};
  };

  /// read_block's body. With `defer == nullptr` the decrypt and the
  /// data-HMAC check run inline (the public read_block); otherwise both
  /// are recorded in *defer for the caller to run in batch, and the DH
  /// line comes through *dh.
  ReadResult read_block_at(Addr addr, DeferredCheck* defer,
                           DhLineCache* dh);
};

/// Factory covering all five evaluated designs.
std::unique_ptr<SecureNvmDesign> make_design(DesignKind kind,
                                             const DesignConfig& config);

}  // namespace ccnvm::core
