// The service core: shard engines, routing, the per-shard batch apply and
// the transaction step machine — the KV service minus threads, queues and
// clocks. Two drivers run it (docs/SERVICE.md): KvService (drain threads)
// and SeededService (one thread, a seeded scheduler; the fuzzers' driver).
//
// A *service shard* is a complete engine: its own design instance (own
// NVM image) and single-shard SecureKvStore. Requests route by key hash,
// so any key's operations are totally ordered by its shard's FIFO.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/sync.h"
#include "core/design.h"
#include "nvm/backend.h"
#include "store/kv_store.h"

namespace ccnvm::service {

/// kPut/kGet/kErase are client-visible single ops (and the legal sub-op
/// kinds inside a transaction). The kTxn* values are the 2PC wave
/// messages, built only by TxnMachine — one per touched shard per wave.
enum class OpType {
  kPut,
  kGet,
  kErase,
  kTxnPrepare,   // evaluate sub-ops + stage/journal (prepared); vote
  kTxnCommit,    // one participant: evaluate + local commit_txn (1PC)
  kTxnDecide,    // coordinator only: decision line + local finalize
  kTxnFinalize,  // non-coordinator participants: redo + release (posted)
  kTxnAbort,     // roll back a prepared vote (some shard voted no)
};

/// One sub-operation of a multi-key transaction (kPut/kGet/kErase only).
struct TxnOp {
  OpType op = OpType::kGet;
  std::string key;
  std::string value;  // kPut only
};

/// Outcome of one service operation. `ok` mirrors the store's return
/// (put/erase success, get hit); `value` is set on get hits only. For a
/// kTxnPrepare request `ok` is the shard's commit vote (kTxnCommit: its
/// commit) and `txn_results` carries the per-sub-op outcomes (queue order).
struct Result {
  bool ok = false;
  std::optional<std::string> value;
  std::vector<Result> txn_results;
};

/// One queued operation; the txn_* fields are for the kTxn* waves only.
/// `done` is the threaded driver's ack, fulfilled only after the batch's
/// persist barrier (group commit); the seeded driver leaves it unset.
struct Request {
  Request() = default;
  Request(OpType o, std::string k, std::string v = {})
      : op(o), key(std::move(k)), value(std::move(v)) {}

  OpType op = OpType::kGet;
  std::string key;
  std::string value;  // kPut only
  std::vector<TxnOp> txn_ops;  // kTxnPrepare: this shard's sub-ops
  std::uint64_t txn_id = 0;
  std::uint32_t txn_coordinator = 0;
  std::promise<Result> done;
};

/// When a batch closes and pays the barrier.
struct GroupCommitPolicy {
  /// Hard batch-size cap: a batch never holds more requests than this.
  std::size_t max_batch = 32;
  /// Straggler gap (microseconds, threaded driver only): a non-full batch
  /// stays open while requests keep arriving within this gap of each
  /// other, and closes after one quiet gap. 0 = greedy: take what is
  /// queued and commit immediately. A small gap lets batches grow to the
  /// client count: the drain worker tends to wake after the FIRST blocked
  /// client re-queues, and the gap waits for the others.
  std::uint32_t max_delay_us = 0;
};

/// Aggregated counters across all shard engines (snapshot).
struct ServiceStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t failed_puts = 0;  // store rejected (full / oversized)
  std::uint64_t batches = 0;      // batches applied
  std::uint64_t batched_ops = 0;  // requests retired through batches
  std::uint64_t max_batch = 0;    // largest batch ever applied
  std::uint64_t mutations = 0;    // successful puts + erases
  std::uint64_t barriers = 0;     // persist barriers (one per dirty batch)
  std::uint64_t queue_high_water = 0;  // deepest queue ever observed
  std::uint64_t queue_pushed = 0;      // total requests enqueued
  std::uint64_t txns = 0;              // committed transactions
  std::uint64_t multi_shard_txns = 0;  // committed txns spanning >1 shard
  std::uint64_t failed_txns = 0;       // aborted (a shard voted no)

  /// Group-commit amortization: acknowledged mutations per persist
  /// barrier. 1.0 means every mutation paid a private barrier; B means
  /// one barrier retired B mutations.
  double amortization() const {
    return barriers == 0 ? 0.0
                         : static_cast<double>(mutations) /
                               static_cast<double>(barriers);
  }
};

struct ServiceConfig {
  /// Service shards = independent engines (each its own NVM image).
  std::size_t shards = 2;
  std::size_t queue_capacity = 256;  // threaded driver: per-shard bound
  GroupCommitPolicy commit;
  core::DesignKind kind = core::DesignKind::kCcNvm;
  /// Per-engine design template. data_capacity must fit store.footprint;
  /// key_seed is decorrelated per shard (see engine_design_config).
  core::DesignConfig design;
  /// Per-engine store geometry (this is the store's own sharding, layered
  /// under the service's — keep store.shards small, the service fans out).
  store::StoreConfig store;
  /// Optional per-shard media factory (shard index, capacity bytes).
  /// Null keeps design.backend_factory (default: volatile in-memory map).
  std::function<std::unique_ptr<nvm::Backend>(std::size_t, std::uint64_t)>
      backend_factory;
  /// Crash-harness hooks (null in production), called by apply_batch at
  /// the harness's safe points — between complete store operations, never
  /// inside one, matching the SIGKILL discipline in src/crashd:
  /// after_apply_hook after each applied request, after_barrier_hook
  /// after each group-commit barrier and before any of its acks.
  std::function<void()> after_apply_hook;
  std::function<void()> after_barrier_hook;
  /// Txn crash hook (null in production), called by the TxnMachine on
  /// the client's thread at a committing txn's wave boundaries: wave 0
  /// after the prepare (or one-phase commit) acks, 1 after the decision's
  /// ack, 2 just BEFORE the finalizes are posted — the last point where
  /// every touched shard is quiescent (admission keeps its queue empty);
  /// once posted, a finalize may be mid-line-write on its drain thread.
  /// crashd SIGKILLs at these points — if the txn touches every shard,
  /// which `participants` (the touched-shard count) lets it require.
  std::function<void(int wave, std::size_t participants)> txn_wave_hook;
};

/// Outcome of a transaction. `results` has one entry per input op, in
/// input order; on abort (`committed` false) reads carry no values and
/// nothing was applied anywhere.
struct TxnOutcome {
  bool committed = false;
  std::vector<Result> results;
};

class ServiceCore {
 public:
  /// Constructs every shard engine (formatting fresh stores). CHECK-fails
  /// on zero shards, a zero max_batch or a design that is not a
  /// SecureNvmBase.
  explicit ServiceCore(const ServiceConfig& config);

  /// The service-level routing function: decorrelated from the store's
  /// internal shard bits so both layers spread load independently.
  static std::size_t shard_of(std::string_view key, std::size_t shards);

  /// The design config shard `shard`'s engine is built from — exported so
  /// out-of-process verifiers (crashd) can rebuild the identical engine.
  static core::DesignConfig engine_design_config(const ServiceConfig& config,
                                                 std::size_t shard);

  const ServiceConfig& config() const { return config_; }
  std::size_t shards() const { return engines_.size(); }

  /// Applies `batch` to `shard` through the single-writer store path, in
  /// order, one Result per request. A batch that mutated ends in ONE
  /// persist barrier, and the stats count the batch, before the caller
  /// acks it. Epoch drains stay on the design's own triggers — data and
  /// DH lines persist as written, and recovery rolls undrained counters
  /// forward (§4.3). The caller serializes calls per shard.
  CCNVM_REQUIRES_BARRIER void apply_batch(std::size_t shard,
                                          const std::vector<Request>& batch,
                                          std::vector<Result>& results);

  /// Engine and txn counters; the queue fields are the driver's.
  ServiceStats stats() const;

  /// Drains every engine's epoch so audit_image() is meaningful (a
  /// trailing get-only batch does not drain on its own). Quiescent only.
  void checkpoint_all() {
    for (auto& engine : engines_) engine->store->checkpoint();
  }

  /// Quiescent-only accessors (before any traffic or after shutdown):
  /// the driver owns the engine while the service is live.
  core::SecureNvmBase& engine_base(std::size_t shard) {
    return *engines_.at(shard)->base;
  }
  store::SecureKvStore& engine_store(std::size_t shard) {
    return *engines_.at(shard)->store;
  }

 private:
  struct Engine {
    std::unique_ptr<core::SecureNvmDesign> design;
    core::SecureNvmBase* base = nullptr;
    std::unique_ptr<store::SecureKvStore> store;
    mutable Mutex stats_mu;  // stats are read from client threads
    CCNVM_GUARDED_BY(stats_mu) ServiceStats stats;
  };

  friend class TxnMachine;  // takes txn ids and counts outcomes

  ServiceConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Service-global txn ids, taken once admission is held (TxnMachine's
  /// kAdmitted step): unique, and increasing in every shard's admission
  /// order. Reopen commits a prepared txn iff its coordinator's decision
  /// line holds its id or a younger one (SecureKvStore::decided_commit).
  std::atomic<std::uint64_t> next_txn_id_{1};
  std::atomic<std::uint64_t> txns_{0};
  std::atomic<std::uint64_t> multi_shard_txns_{0};
  std::atomic<std::uint64_t> failed_txns_{0};
};

/// What a transaction asks its driver to do next.
struct TxnAction {
  enum class Kind {
    kAdmit,    // take admission of `shards` (ascending), waiting if held
    kWave,     // push requests[i] to shards[i]; feed back every Result
    kPost,     // push requests[i] to shards[i]; nobody waits, no results
    kRelease,  // drop admission of `shards`
    kDone,     // TxnMachine::outcome() is final
  };
  Kind kind = Kind::kDone;
  std::vector<std::size_t> shards;
  std::vector<Request> requests;
};

/// One multi-key transaction's ccNVMe-style commit, as the step machine
/// both drivers run (docs/SERVICE.md §4 has the crash argument):
///  1. ADMIT every touched shard; single ops take admission around their
///     enqueue, so the txn is one atomic slot in each shard's history.
///     The txn id is taken once admission is held.
///  2. One touched shard: a one-phase COMMIT wave evaluates the sub-ops
///     and runs the store's local commit_txn under the batch's barrier;
///     go to 5.
///  3. PREPARE wave: each shard evaluates its reads (read-your-writes),
///     stages + journals its mutations, and barriers before voting. Any
///     no: ABORT the shards that voted yes and staged, and wait for it.
///     Read-only txns skip to 5 (no journal, no barrier).
///  4. All yes: DECIDE on the coordinator (the lowest touched shard; its
///     decision line is the global commit point), then POST the FINALIZE
///     to the other mutating shards without waiting for it.
///  5. RELEASE every touched shard — after the post, so queue order puts
///     the finalize ahead of every later op on its shard — and report.
/// config.txn_wave_hook fires inside step().
class TxnMachine {
 public:
  /// CHECK-fails unless store.txn_ops_capacity > 0 and every op is a
  /// put/get/erase.
  TxnMachine(ServiceCore& core, const std::vector<TxnOp>& ops);

  /// Takes the previous action's results (one per wave request, in
  /// order; none after other actions) and returns the next action.
  TxnAction step(std::vector<Result> results);

  /// Final once step() returned kDone.
  TxnOutcome& outcome() { return out_; }

  /// The txn id; 0 until admission is held.
  std::uint64_t id() const { return id_; }

 private:
  enum class Phase { kNew, kAdmitted, kPrepared, kDecided, kLastWave,
                     kReleased };

  TxnAction wave(const std::vector<std::size_t>& shards, OpType op) const;
  TxnAction release() {
    phase_ = Phase::kReleased;
    return {TxnAction::Kind::kRelease, participants_, {}};
  }
  void wave_hook(int wave) const;

  ServiceCore& core_;
  std::uint64_t id_ = 0;
  std::vector<std::vector<TxnOp>> per_shard_;
  /// Input op i is per_shard_[slot_of_[i].first][slot_of_[i].second].
  std::vector<std::pair<std::size_t, std::size_t>> slot_of_;
  std::vector<bool> mutates_;
  std::vector<Result> votes_;  // per shard, from the prepare wave
  std::vector<std::size_t> participants_;  // touched shards, ascending
  bool committing_ = false;
  Phase phase_ = Phase::kNew;
  TxnOutcome out_;
};

}  // namespace ccnvm::service
