// The threaded driver of the service core (service_core.h): N client
// threads drive the single-writer store stack through per-shard queues,
// the shape of ccNVMe's per-core submission queues:
//
//   client threads ──push──▶ per-shard MPSC queue ──▶ drain worker
//                                                       │ apply_batch
//                                                       │ ONE media
//                                                       ▼ persist barrier
//                                                     complete every ack
//
// Each shard has a bounded MpscQueue, a drain thread and an admission
// mutex. A request's promise is fulfilled only after its batch is applied
// AND barriered (docs/SERVICE.md §2), so an acknowledged operation
// survives a crash; the CCNVM_ACK-annotated completion lets nvlint's N1
// check police that ordering. One barrier retires a whole batch.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/service_core.h"

namespace ccnvm::service {

/// The core is a private base: clients see routing, stats and the
/// quiescent-only engine accessors, never apply_batch.
class KvService : private ServiceCore {
 public:
  /// Constructs every shard engine (formatting fresh stores) and starts
  /// the drain workers. CHECK-fails like ServiceCore's constructor.
  explicit KvService(const ServiceConfig& config);
  ~KvService();

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  /// Routes by key shard and enqueues; blocks while the shard queue is
  /// full. The returned future resolves only after the group-commit
  /// barrier covering the request. Must not race with shutdown().
  std::future<Result> submit(Request r);

  /// Blocking conveniences: submit + wait.
  // nvlint-waive-next(N2): submit wrapper sharing SecureKvStore::put's name; the store's header flip is the commit point
  Result put(std::string_view key, std::string_view value) {
    return submit({OpType::kPut, std::string(key), std::string(value)}).get();
  }
  Result get(std::string_view key) {
    return submit({OpType::kGet, std::string(key)}).get();
  }
  // nvlint-waive-next(N2): submit wrapper sharing SecureKvStore::erase's name; the tombstone-header flip is the commit point
  Result erase(std::string_view key) {
    return submit({OpType::kErase, std::string(key)}).get();
  }

  /// Atomically executes a multi-key transaction (blocking): runs a
  /// TxnMachine (service_core.h has the protocol), taking each shard's
  /// admission mutex in ascending order. Returns once the txn's commit
  /// point is durable; a cross-shard commit's finalizes may still be
  /// queued, so read stats() or an engine only after shutdown(). Requires
  /// ServiceConfig::store.txn_ops_capacity > 0.
  TxnOutcome submit_txn(const std::vector<TxnOp>& ops);

  /// Closes every queue, drains what is enqueued (every residual batch
  /// still gets its barrier), joins the workers, and leaves every engine
  /// quiesced. Idempotent; the destructor calls it.
  void shutdown();

  /// Core stats plus the queues' depth counters.
  ServiceStats stats() const;

  /// Quiescent only: the drain workers own the engines while live.
  using ServiceCore::engine_base;
  using ServiceCore::engine_store;
  using ServiceCore::engine_design_config;
  using ServiceCore::shard_of;
  using ServiceCore::shards;

 private:
  struct Shard;

  void drain_loop(std::size_t index, Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  bool shut_down_ = false;
};

}  // namespace ccnvm::service
