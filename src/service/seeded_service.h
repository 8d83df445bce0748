// The seeded driver of the service core (service_core.h): one thread,
// no clock, so a fuzz case that drives it replays bit-identically from
// its seed. It runs the same apply_batch and TxnMachine as KvService with
// the threads replaced by a scheduler: per-shard FIFO deques and
// admission owners, and clients that are either idle (their ClientStep
// submits the next op or txn) or driving a TxnMachine. Each step() picks,
// with the driver's own Rng, one runnable unit — a client's next step or
// one greedy shard batch (up to commit.max_batch requests, one barrier).
// A power cut thrown by a crash hook propagates out of step(). The txn
// and diff fuzz engines drive it; this header is in nvlint's N4 cone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "service/service_core.h"

namespace ccnvm::service {

class SeededService : private ServiceCore {
 public:
  /// A client's step while it has nothing in flight: submit() or
  /// submit_txn() for this client, or return false to retire it.
  using ClientStep = std::function<bool()>;
  using Done = std::function<void(Result&&)>;
  using TxnDone = std::function<void(TxnOutcome&&)>;

  SeededService(const ServiceConfig& config, std::uint64_t schedule_seed);

  /// Adds a client and returns its index; add every client before step().
  std::size_t add_client(ClientStep next) {
    clients_.emplace_back().next = std::move(next);
    return clients_.size() - 1;
  }

  /// Enqueues a single op on its shard without waiting; `done` runs after
  /// the batch barrier that covers it. Single ops never wait for
  /// admission here: CHECK-fails if a txn holds the shard.
  void submit(Request r, Done done);
  /// Starts a transaction on an idle client; `done` runs once it is
  /// released.
  void submit_txn(std::size_t client, const std::vector<TxnOp>& ops,
                  TxnDone done);

  /// Runs one seeded scheduling step; false once nothing is runnable.
  bool step();

  /// Whether `client` has taken admission for a txn that is not yet done
  /// (its writes may be partially applied).
  bool admitted(std::size_t client) const {
    return clients_[client].txn &&
           clients_[client].action.kind != TxnAction::Kind::kAdmit;
  }

  /// Steps until nothing is runnable, then drains every engine's epoch.
  void shutdown() {
    while (step()) {
    }
    checkpoint_all();
  }

  using ServiceCore::engine_base;
  using ServiceCore::engine_store;
  using ServiceCore::stats;

  /// Observes every txn action as a client executes it (tests trace the
  /// protocol order with it); null by default.
  std::function<void(std::size_t client, const TxnAction&)> on_action;

 private:
  using Queued = std::pair<Request, Done>;
  struct Client {
    ClientStep next;
    bool retired = false;
    std::optional<TxnMachine> txn;
    TxnAction action;  // the txn's next action
    std::size_t waiting = 0;  // wave requests not yet applied
    std::vector<Result> results;
    TxnDone done;
  };
  static constexpr std::size_t kFree = ~std::size_t{0};

  bool free(std::size_t shard) const { return owner_[shard] == kFree; }
  bool runnable(const Client& c) const;
  void run_client(std::size_t id);
  void run_batch(std::size_t shard);

  Rng rng_;
  std::vector<std::deque<Queued>> queues_;
  std::vector<std::size_t> owner_;  // per shard: admitting client or kFree
  std::vector<Client> clients_;
};

}  // namespace ccnvm::service
