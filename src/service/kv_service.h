// Multi-queue concurrent KV service with group-commit drains.
//
// Everything below src/service is logically single-threaded: a
// SecureNvmBase is one memory controller's state machine, and a
// SecureKvStore is a single-writer client of one controller. This layer
// is what lets N client threads drive the store anyway — the shape
// ccNVMe's per-core submission queues and TxFS's journaled batch commits
// use, mapped onto the paper's persist-barrier/epoch-drain discipline:
//
//   client threads ──push──▶ per-shard MPSC queue ──▶ drain worker
//                                                       │ apply batch
//                                                       │ ONE media
//                                                       ▼ persist barrier
//                                                     complete every ack
//
// A *service shard* is a complete engine: its own design instance (own
// NVM image), its own single-shard-facing SecureKvStore, its own queue
// and drain worker. Requests route by key hash, so any key's operations
// are totally ordered by its shard's queue — per-key reads always observe
// the latest acknowledged write.
//
// The ack-after-barrier contract (docs/SERVICE.md): a request's promise
// is fulfilled only after the batch it rode in has been applied AND the
// shard engine's media has passed a persist barrier. Epoch drains run
// only on the design's own triggers (DAQ full, dirty eviction, update
// limit N) and at shutdown: data and DH lines persist as written, and
// recovery rolls undrained counters forward (§4.3). An acknowledged
// operation therefore survives a crash; crashd's service
// scenario family kills the process mid-flight and holds reopened images
// to exactly that promise. The completion call is CCNVM_ACK-annotated so
// nvlint's N1 check polices the ordering statically.
//
// Group commit is the performance story: the barrier is the expensive
// event (an msync + fsync on FileBackend::SyncMode::kBarrier media), and
// one barrier retires the whole batch. With B blocking
// clients per shard the steady-state batch size is B — throughput scales
// with client count until the queue or the apply path saturates, which
// bench/ycsb --threads=N measures.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include "core/design.h"
#include "nvm/backend.h"
#include "service/shard_queue.h"
#include "store/kv_store.h"

namespace ccnvm::service {

/// When a drain worker closes a batch and pays the barrier.
struct GroupCommitPolicy {
  /// Hard batch-size cap: a batch never holds more requests than this.
  std::size_t max_batch = 32;
  /// Straggler gap (microseconds): a non-full batch stays open while new
  /// requests keep arriving within this gap of each other, and closes
  /// after one quiet gap (total wait bounded by max_batch * gap). 0 =
  /// greedy: take what is queued and commit immediately — deterministic,
  /// used by the unit tests and the fuzz mirror. A small positive gap is
  /// what lets batches grow to the full client count on a busy box: the
  /// drain worker tends to wake after the FIRST blocked client re-queues,
  /// and the gap holds the batch open for the other clients the scheduler
  /// has not run yet.
  std::uint32_t max_delay_us = 0;
};

/// Aggregated counters across all shard engines (snapshot).
struct ServiceStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t failed_puts = 0;  // store rejected (full / oversized)
  std::uint64_t batches = 0;      // drain-worker batch dequeues
  std::uint64_t batched_ops = 0;  // requests retired through batches
  std::uint64_t max_batch = 0;    // largest batch ever drained
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
  std::size_t queue_capacity = 256;
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
  /// Crash-harness hooks (null in production), called by drain workers at
  /// the harness's safe points — between complete store operations, never
  /// inside one, matching the SIGKILL discipline in src/crashd:
  /// after_apply_hook after each applied request, after_barrier_hook
  /// after each group-commit barrier and before any of its acks.
  std::function<void()> after_apply_hook;
  std::function<void()> after_barrier_hook;
  /// Crash hook for the txn protocol (null in production): called on the
  /// *client* thread after each 2PC wave's acks have resolved — wave 0 =
  /// prepares acked, 1 = decision acked, 2 = finalizes acked. At a wave
  /// boundary every touched drain worker is quiescent (the txn locks keep
  /// its queue empty), so crashd can SIGKILL here without tearing a line —
  /// provided the txn touches EVERY shard, which `participants` (the
  /// touched-shard count) lets the harness require before pulling the
  /// trigger.
  std::function<void(int wave, std::size_t participants)> txn_wave_hook;
};

/// Outcome of KvService::submit_txn. `results` has one entry per input
/// op, in input order; on abort (`committed` false) reads carry no values
/// and nothing was applied anywhere.
struct TxnOutcome {
  bool committed = false;
  std::vector<Result> results;
};

class KvService {
 public:
  /// Constructs every shard engine (formatting fresh stores) and starts
  /// the drain workers. CHECK-fails on zero shards or a design that is
  /// not a SecureNvmBase.
  explicit KvService(const ServiceConfig& config);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  /// Routes by key shard and enqueues; blocks while the shard queue is
  /// full. The returned future resolves only after the group-commit
  /// barrier covering the request. Must not race with shutdown().
  std::future<Result> submit(Request r);

  /// Blocking conveniences: submit + wait.
  Result put(std::string_view key, std::string_view value);
  Result get(std::string_view key);
  Result erase(std::string_view key);

  /// Atomically executes a multi-key transaction (blocking). Requires
  /// ServiceConfig::store.txn_ops_capacity > 0.
  ///
  /// Protocol (the ccNVMe-style one-barrier-per-shard commit):
  ///  1. Lock every touched shard's txn mutex in ascending order. Single
  ///     ops take their shard's mutex around enqueue, so between the waves
  ///     below NOTHING else enters any touched queue — the txn occupies
  ///     one atomic slot in each shard's serial history.
  ///  2. PREPARE wave: one kTxnPrepare per touched shard, carrying that
  ///     shard's sub-ops. The drain worker evaluates reads (with
  ///     read-your-writes against the txn's own buffered puts), stages +
  ///     journals the mutations via SecureKvStore::prepare_txn, and its
  ///     batch barrier persists the journal BEFORE the vote ack — each
  ///     touched shard pays exactly ONE group-commit barrier here.
  ///  3. If every shard voted yes: DECIDE to the coordinator (the lowest
  ///     touched shard) — its decision line is the txn's global commit
  ///     point — then FINALIZE to the other mutating shards. A crash
  ///     before the decision barrier aborts everywhere on reopen; after
  ///     it, every participant redoes its journal (resolver = the
  ///     coordinator's decision line).
  ///  4. Any no vote: ABORT wave to the prepared shards; returns
  ///     committed = false.
  /// Read-only transactions stop after the prepare wave (nothing
  /// journaled, no barrier taken).
  TxnOutcome submit_txn(const std::vector<TxnOp>& ops);

  /// Closes every queue, drains what is enqueued (every residual batch
  /// still gets its barrier), joins the workers, and leaves every engine
  /// quiesced.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// The service-level routing function: decorrelated from the store's
  /// internal shard bits so both layers spread load independently.
  static std::size_t shard_of(std::string_view key, std::size_t shards);

  /// The design config the service builds shard `shard`'s engine from —
  /// exported so out-of-process verifiers (crashd) can reconstruct the
  /// identical engine when reopening a dead service's images.
  static core::DesignConfig engine_design_config(const ServiceConfig& config,
                                                 std::size_t shard);

  std::size_t shards() const { return engines_.size(); }
  ServiceStats stats() const;

  /// Quiescent-only accessors (before any traffic or after shutdown):
  /// the drain worker owns the engine while the service is live.
  core::SecureNvmBase& engine_base(std::size_t shard);
  store::SecureKvStore& engine_store(std::size_t shard);

 private:
  struct Engine;

  void drain_loop(Engine& engine);

  ServiceConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Service-global txn ids: globally unique and monotonic, so a stale
  /// decision line never matches a younger prepared txn (see
  /// SecureKvStore::resolve_txn_journal).
  std::atomic<std::uint64_t> next_txn_id_{1};
  std::atomic<std::uint64_t> txns_{0};
  std::atomic<std::uint64_t> multi_shard_txns_{0};
  std::atomic<std::uint64_t> failed_txns_{0};
  bool shut_down_ = false;
};

}  // namespace ccnvm::service
