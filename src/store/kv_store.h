// A crash-consistent secure key-value store on cc-NVM.
//
// This is the application layer §1 motivates ("store and manipulate
// persistent data in-place in memory"): a sharded, open-addressed hash
// table whose every NVM access — bucket probes, value reads, header and
// value writes — goes through a SecureNvmDesign, so the store
// transparently inherits counter-mode encryption, data-HMAC + BMT
// integrity, and (on the cc designs) epoch crash consistency.
//
// Layout. The NVM data region is split into `shards` equal slices; each
// slice holds a bucket array (one 64 B header line per bucket) followed
// by a value heap (line-granular). A bucket header carries the entry
// state (empty / occupied / tombstone), the key (inline, <= 48 B), the
// value length, and the heap extent holding the value. Values span
// ceil(vlen/64) consecutive heap lines, so multi-line values are
// first-class.
//
// Crash consistency. Every mutation is made atomic by ordering:
//   put    — write the value lines to a *fresh* heap extent, then flip
//            the header in ONE line write-back (the commit point), then
//            free the old extent. Live value lines are never overwritten
//            in place, so a committed value can never be torn.
//   erase  — write the tombstone header (commit point), then free.
// A crash between the write-backs of one operation leaves either the old
// or the new header, both of which reference fully written value lines.
// All DRAM-side bookkeeping (heap free lists, entry counts) is *derived*
// state: open() rebuilds it by scanning the bucket headers, so nothing
// volatile needs its own persistence story. Epoch drains batch only the
// security metadata; data and DH lines persist through ADR as they are
// written (§4.2), which is why every acknowledged operation — not just
// checkpointed ones — survives recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/types.h"
#include "core/design.h"

namespace ccnvm::store {

/// Geometry of a store within the NVM data region. All sizes in lines.
struct StoreConfig {
  std::size_t shards = 4;
  std::uint64_t buckets_per_shard = 512;
  std::uint64_t heap_lines_per_shard = 1536;
  /// Multi-key transaction journal: the largest number of mutations one
  /// transaction may journal. 0 (the default) allocates no journal lines
  /// and disables the txn API entirely — existing single-op stores keep a
  /// bit-identical layout.
  std::size_t txn_ops_capacity = 0;

  /// CHECK-fails on nonsensical geometry (zero shards/buckets, a footprint
  /// that cannot hold a single entry, ...).
  void validate() const;

  std::uint64_t lines_per_shard() const {
    return buckets_per_shard + heap_lines_per_shard;
  }
  /// Journal lines appended after the shard slices: one status line, one
  /// decision line, then a (meta, header-image) line pair per op slot.
  std::uint64_t txn_journal_lines() const {
    return txn_ops_capacity == 0
               ? 0
               : 2 + 2 * static_cast<std::uint64_t>(txn_ops_capacity);
  }
  /// Bytes of NVM data region the store occupies (must fit the design's
  /// data capacity).
  std::uint64_t footprint_bytes() const {
    return (static_cast<std::uint64_t>(shards) * lines_per_shard() +
            txn_journal_lines()) *
           kLineSize;
  }

  /// A geometry with comfortable slack for `keys` entries of up to
  /// `max_value_bytes` each — used by the YCSB harnesses.
  static StoreConfig sized_for(std::uint64_t keys,
                               std::size_t max_value_bytes,
                               std::size_t shards = 4);
};

struct StoreStats {
  std::uint64_t puts = 0;
  std::uint64_t inserts = 0;   // puts that created a new key
  std::uint64_t updates = 0;   // puts that replaced a value
  std::uint64_t failed_puts = 0;  // table or heap full
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t erases = 0;
  std::uint64_t erase_hits = 0;
  std::uint64_t probe_reads = 0;        // bucket header reads
  std::uint64_t value_line_reads = 0;
  std::uint64_t value_line_writes = 0;
  std::uint64_t header_writes = 0;
  std::uint64_t txn_commits = 0;    // local commit_txn successes
  std::uint64_t txn_prepares = 0;   // prepare_txn successes
  std::uint64_t txn_journal_writes = 0;  // journal lines written
};

/// A buffered multi-key write set, applied atomically by
/// SecureKvStore::commit_txn (local) or prepare_txn/finalize_txn
/// (distributed). Last writer wins per key; nothing touches NVM until the
/// store stages the txn. Reads are the caller's job — pending() exposes
/// the buffered effect so callers can layer read-your-writes over
/// SecureKvStore::get.
class Txn {
 public:
  /// Buffers an insert-or-replace.
  void put(std::string_view key, std::string_view value);
  /// Buffers a delete (a no-op at commit when the key is absent).
  void erase(std::string_view key);

  /// The txn's buffered effect on `key`: nullptr when untouched,
  /// otherwise a pointer to the buffered value (nullopt = erase).
  const std::optional<std::string>* pending(std::string_view key) const;

  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  friend class SecureKvStore;
  struct Op {
    std::string key;
    std::optional<std::string> value;  // nullopt = erase
  };
  std::vector<Op> ops_;  // one op per key (last writer wins)
};

/// Answers "did transaction `txn_id`'s coordinator decide commit?" when a
/// reopened store finds a prepared txn whose decision lives on another
/// store (the service's 2PC — see kv_service.h): the coordinator store's
/// decided_commit(txn_id). The coordinator itself never needs one: its
/// own decision line answers first.
using TxnResolver =
    std::function<bool(std::uint64_t txn_id, std::uint32_t coordinator)>;

/// A sharded, crash-consistent KV store over one secure-NVM design.
/// Works on every design (the baselines simply give weaker crash
/// guarantees); requires the functional engine (real contents).
class SecureKvStore {
 public:
  static constexpr std::size_t kMaxKeyBytes = 48;
  static constexpr std::size_t kMaxValueBytes = 0xFFFF;

  /// Formats a fresh store over `nvm`'s data region, which must be in its
  /// never-written state (a freshly constructed design). For an existing
  /// image — e.g. after crash recovery or a host power cycle — use open().
  SecureKvStore(core::SecureNvmBase& nvm, const StoreConfig& config);

  SecureKvStore(SecureKvStore&&) = default;
  SecureKvStore& operator=(SecureKvStore&&) = default;

  /// Re-opens a store from an existing (typically just-recovered) image:
  /// resolves any interrupted transaction first (journal redo or presumed
  /// abort — see the Transactions section below), then scans every bucket
  /// header, validates it, and rebuilds the DRAM-side allocator and
  /// counts. CHECK-fails on corrupt headers or overlapping value extents —
  /// recovery is supposed to have produced a clean image. `resolver`
  /// answers commit/abort for a prepared txn whose decision lives on
  /// another store (null = only the own decision line decides).
  static SecureKvStore open(core::SecureNvmBase& nvm,
                            const StoreConfig& config,
                            const TxnResolver& resolver = nullptr);

  /// Inserts or replaces. Returns false — without mutating anything —
  /// when the key is empty or over-long, the value exceeds the limit, or
  /// the shard is out of buckets or heap space (headers encode klen in
  /// 1..kMaxKeyBytes, so the empty key is not representable). May propagate core::InjectedPowerLoss from an armed
  /// drain crash, in which case the operation is unacknowledged (the old
  /// or the new state survives, never a mix).
  /// CCNVM_COMMIT_POINT: the header flip is the one-line commit; nvlint
  /// check N2 proves no persistent write follows it.
  CCNVM_COMMIT_POINT bool put(std::string_view key, std::string_view value);

  std::optional<std::string> get(std::string_view key);

  /// Removes the key. Returns false if it was not present. Commits via a
  /// single tombstone-header flip, like put.
  CCNVM_COMMIT_POINT bool erase(std::string_view key);

  // --- Transactions (require StoreConfig::txn_ops_capacity > 0) ---------
  //
  // A txn buffers puts/erases in DRAM and applies them atomically: the
  // store stages every new value to fresh heap extents, journals one
  // header image per mutation, then flips the journal status line to
  // `committed` in ONE line write — the txn's single commit point. The
  // header flips that make the writes visible are a redo of the journal,
  // idempotently replayed by open() if a crash lands mid-flip, so a kill
  // anywhere yields all-or-nothing on reopen. Data and journal lines
  // persist through ADR as written (§4.2); the epoch drain batches only
  // security metadata, exactly as for single ops — an acknowledged
  // commit therefore survives without any drain, and its writes become
  // externally visible together once the covering barrier (the service's
  // group commit) retires.
  //
  // The distributed half (prepare/decide/finalize) is the service's 2PC:
  // prepare stages + journals with state `prepared` (durable after the
  // shard's batch barrier); the coordinator's decision line is the global
  // commit point; finalize redoes the flips and releases the journal.
  // A store holds at most ONE prepared txn (the service's per-shard txn
  // locks guarantee it; prepare CHECKs it).

  /// Starts a txn. CHECK-fails when the store was built without a journal.
  Txn begin_txn() const;

  /// Atomically applies every buffered op. Returns false — with nothing
  /// committed and every staged extent reclaimed — when an op is invalid,
  /// the txn exceeds txn_ops_capacity, or bucket/heap space runs out. May
  /// propagate core::InjectedPowerLoss from an armed drain crash, in
  /// which case the txn is unacknowledged (all-or-nothing on reopen).
  /// CCNVM_COMMIT_POINT: the journal-status flip to `committed` is the
  /// one-line commit; the header writes after it are idempotent redo.
  CCNVM_COMMIT_POINT bool commit_txn(Txn& txn);

  /// Discards a txn's buffered ops. Nothing has touched NVM.
  void abort_txn(Txn& txn) const;

  /// Stages + journals `txn` with state `prepared` under (txn_id,
  /// coordinator). No header flips yet — the txn stays invisible, and a
  /// reopened store aborts it unless the coordinator decided commit.
  /// Returns false (nothing journaled, extents reclaimed) on the same
  /// conditions as commit_txn. The caller owns the durability barrier.
  bool prepare_txn(Txn& txn, std::uint64_t txn_id, std::uint32_t coordinator);

  /// Records `txn_id` as decided-commit in this store's decision line —
  /// the global commit point of a distributed txn this store coordinates.
  /// CCNVM_COMMIT_POINT: one line write, nothing after it.
  CCNVM_COMMIT_POINT void decide_txn_commit(std::uint64_t txn_id);

  /// Redoes the prepared txn's header flips, releases the journal, and
  /// applies the DRAM bookkeeping. No-op when nothing is prepared
  /// (read-only participant); CHECKs the id otherwise.
  void finalize_txn(std::uint64_t txn_id);

  /// Releases the prepared txn's journal and reclaims its staged extents
  /// (presumed abort). No-op when nothing is prepared.
  void abort_prepared_txn(std::uint64_t txn_id);

  /// The txn id this store last decided commit for (its decision line),
  /// if any.
  std::optional<std::uint64_t> last_txn_decision();

  /// Reopen's commit rule for a prepared txn this store coordinates: its
  /// decision line holds `txn_id` or a younger id. Sound because the
  /// service takes txn ids in each shard's admission order and makes an
  /// aborted txn's abort wave durable on every participant before it
  /// releases the coordinator — so while `txn_id` is still prepared
  /// anywhere, a younger decision here means `txn_id` decided commit and
  /// its acked finalize was cut off (docs/STORE.md §7). What both
  /// open()'s own-line check and a TxnResolver call.
  bool decided_commit(std::uint64_t txn_id) {
    const std::optional<std::uint64_t> decided = last_txn_decision();
    return decided.has_value() && *decided >= txn_id;
  }

  /// Crash-injection points inside the txn protocol, for the fuzz harness.
  enum class TxnCrashPhase {
    kAfterStage,      // values + journal intents written, status still free
    kAfterStatusFlip, // commit_txn: status=committed, no header flipped yet
    kMidRedo,         // commit_txn/finalize: after the first header flip
    kBeforeRelease,   // every header flipped, journal not yet released
    kAfterPrepare,    // prepare_txn: status=prepared written
    kAfterDecide,     // decide_txn_commit: decision line written
    kAfterAbortRelease,  // abort_prepared_txn: journal released, staged
                         // extents not yet reclaimed
  };
  /// Test hook called at each phase above (null in production). Throwing
  /// core::InjectedPowerLoss from it simulates a crash at that point.
  void set_txn_test_hook(std::function<void(TxnCrashPhase)> hook) {
    txn_hook_ = std::move(hook);
  }

  /// Commits the open epoch (cc designs: a drain; others: persist dirty
  /// metadata) — the application-visible checkpoint.
  void checkpoint() { nvm_->quiesce(); }

  /// Orders every line written so far onto stable media (msync + fsync
  /// on a durable FileBackend, a no-op on the volatile map) without
  /// draining the epoch: the service's group-commit point. Data, DH and
  /// journal lines and the TCB registers are then durable, and recovery
  /// rolls the undrained counters forward (§4.3), so an acknowledged
  /// operation survives without a checkpoint.
  void persist_barrier() { nvm_->image().persist_barrier(); }

  /// Enumerates every live entry (shard-major, bucket order).
  void for_each(
      const std::function<void(std::string_view key, std::string_view value)>&
          fn);

  /// Live entries across all shards.
  std::uint64_t size() const;
  /// Free heap lines in the fullest-used shard's allocator, for tests.
  std::uint64_t free_heap_lines(std::size_t shard) const;

  const StoreConfig& config() const { return config_; }
  const StoreStats& stats() const { return stats_; }
  core::SecureNvmBase& nvm() { return *nvm_; }

  /// Stable 64-bit key hash — also drives internal shard/bucket placement.
  /// Public so the service layer can route requests by key without
  /// duplicating the hash function.
  static std::uint64_t hash_key(std::string_view key);

 private:
  struct Extent {
    std::uint64_t first_line = 0;  // within the shard's heap
    std::uint64_t num_lines = 0;
  };

  /// DRAM-side shard state, all derivable from the bucket headers.
  struct Shard {
    std::vector<Extent> free_list;
    std::uint64_t bump = 0;  // heap lines handed out past the free list
    std::uint64_t live = 0;
    std::uint64_t tombstones = 0;
  };

  /// Decoded bucket header.
  struct Entry {
    std::uint8_t state = 0;
    std::string key;
    std::uint16_t vlen = 0;
    std::uint32_t value_line = 0;
    std::uint64_t seq = 0;
  };

  /// Outcome of a probe sequence for one key.
  struct Probe {
    std::optional<std::uint64_t> match;  // bucket holding the key
    Entry match_entry;                   // valid when match is set
    std::optional<std::uint64_t> insert_slot;  // first tombstone or empty
    bool insert_slot_is_tombstone = false;
  };

  struct TagCtor {};  // open() path: skip the fresh-format assumptions
  SecureKvStore(TagCtor, core::SecureNvmBase& nvm, const StoreConfig& config);

  // --- Shard-state capability (clang -Wthread-safety) -------------------
  // The store is single-writer by protocol today (the deterministic
  // executor shards *scenarios*, not store state), but the roadmap's
  // multi-queue design hands shards to concurrent clients. ShardSerial
  // is a zero-cost capability standing for "exclusive access to the
  // DRAM-side shard bookkeeping"; ShardStateLock asserts it. When real
  // per-shard locks arrive they replace the empty acquire/release
  // bodies, and every GUARDED_BY/REQUIRES below starts doing real work
  // under clang's analysis (GCC compiles it all away).
  struct CCNVM_CAPABILITY("shard-state") ShardSerial {};

  class CCNVM_SCOPED_CAPABILITY ShardStateLock {
   public:
    explicit ShardStateLock(ShardSerial& serial) CCNVM_ACQUIRE(serial) {
      (void)serial;
    }
    ~ShardStateLock() CCNVM_RELEASE() {}
    ShardStateLock(const ShardStateLock&) = delete;
    ShardStateLock& operator=(const ShardStateLock&) = delete;
  };

  std::size_t shard_of(std::uint64_t h) const;
  std::uint64_t home_bucket(std::uint64_t h) const;
  Addr bucket_addr(std::size_t shard, std::uint64_t bucket) const;
  Addr heap_addr(std::size_t shard, std::uint64_t heap_line) const;

  static Line encode_header(const Entry& e);
  static Entry decode_header(const Line& line);

  /// Reads + decodes one bucket header, counting the probe.
  Entry read_bucket(std::size_t shard, std::uint64_t bucket);

  /// Linear-probes `key`'s shard. Reads at most buckets_per_shard headers.
  Probe probe(std::size_t shard, std::string_view key);

  std::optional<std::uint64_t> alloc(std::size_t shard,
                                     std::uint64_t num_lines)
      CCNVM_REQUIRES(shard_serial_);
  void free_extent(std::size_t shard, const Extent& extent)
      CCNVM_REQUIRES(shard_serial_);

  std::string read_value(std::size_t shard, const Entry& e);

  /// Lines for one write_blocks group, in write order.
  struct LineGroup {
    std::vector<Addr> addrs;
    std::vector<Line> lines;
  };

  /// `value` cut into lines (the last one zero-padded) at the consecutive
  /// heap lines of `shard` from `extent` on.
  LineGroup value_extent(std::size_t shard, std::uint64_t extent,
                         std::string_view value) const;

  // --- Transaction internals --------------------------------------------
  /// Journal status-line states.
  static constexpr std::uint8_t kTxnFree = 0;
  static constexpr std::uint8_t kTxnPrepared = 1;
  static constexpr std::uint8_t kTxnCommitted = 2;

  /// One staged mutation: everything finalize/redo and the DRAM
  /// bookkeeping need.
  struct StagedTxnOp {
    std::size_t shard = 0;
    std::uint64_t bucket = 0;
    Entry entry;                       // the new header (occupied/tombstone)
    std::optional<Extent> old_extent;  // replaced value, freed at finalize
    bool insert = false;               // bumps live
    bool insert_into_tombstone = false;
  };

  struct PreparedTxn {
    std::uint64_t id = 0;
    std::vector<StagedTxnOp> ops;
  };

  Addr txn_status_addr() const;
  Addr txn_decision_addr() const;
  Addr txn_meta_addr(std::size_t op) const;
  Addr txn_header_addr(std::size_t op) const;

  static Line encode_txn_status(std::uint8_t state, std::uint64_t txn_id,
                                std::uint32_t coordinator,
                                std::uint32_t op_count);

  /// Stages a txn: validates ops, writes value lines to fresh extents,
  /// and writes the journal intent pairs. On failure reclaims every
  /// staged extent and returns false; staged value/intent lines are
  /// unreferenced and harmless. Erases of absent keys stage nothing.
  bool stage_txn(Txn& txn, std::vector<StagedTxnOp>& staged)
      CCNVM_REQUIRES(shard_serial_);

  /// Flips the staged headers into place (the journal redo, live path).
  void apply_staged_headers(const std::vector<StagedTxnOp>& staged);

  /// DRAM bookkeeping for a committed txn (free old extents, counts).
  void apply_staged_bookkeeping(const std::vector<StagedTxnOp>& staged)
      CCNVM_REQUIRES(shard_serial_);

  /// Returns staged (never-committed) extents to the allocator.
  void reclaim_staged(const std::vector<StagedTxnOp>& staged)
      CCNVM_REQUIRES(shard_serial_);

  /// Zeroes the journal status line (journal release; invisible to the
  /// commit point's N2 walk by design — it is idempotent cleanup, not a
  /// state transition: recovery re-releases regardless).
  void release_txn_status();

  void txn_phase(TxnCrashPhase phase) {
    if (txn_hook_) txn_hook_(phase);
  }

  /// open()'s first step: redo or abort any txn the journal holds.
  void resolve_txn_journal(const TxnResolver& resolver)
      CCNVM_REQUIRES(shard_serial_);

  static std::uint64_t value_lines(std::size_t vlen) {
    return (static_cast<std::uint64_t>(vlen) + kLineSize - 1) / kLineSize;
  }

  core::SecureNvmBase* nvm_;
  StoreConfig config_;
  mutable ShardSerial shard_serial_;  // mutable: size() is const + "locks"
  std::vector<Shard> shards_ CCNVM_GUARDED_BY(shard_serial_);
  StoreStats stats_;
  std::uint64_t next_seq_ CCNVM_GUARDED_BY(shard_serial_) = 1;
  std::optional<PreparedTxn> prepared_txn_;
  std::function<void(TxnCrashPhase)> txn_hook_;
};

}  // namespace ccnvm::store
