#include "service/kv_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mpsc_queue.h"
#include "common/sync.h"

namespace ccnvm::service {

struct KvService::Shard {
  explicit Shard(std::size_t queue_capacity) : queue(queue_capacity) {}
  MpscQueue<Request> queue;
  std::thread worker;
  /// Admission: every enqueue to this shard — single ops in submit(), wave
  /// requests in submit_txn() — happens under it.
  Mutex txn_mu;
};

KvService::KvService(const ServiceConfig& config) : ServiceCore(config) {
  for (std::size_t s = 0; s < shards(); ++s) {
    Shard& shard =
        *shards_.emplace_back(std::make_unique<Shard>(config.queue_capacity));
    // A worker touches nothing but its own shard.
    shard.worker = std::thread([this, s, &shard] { drain_loop(s, shard); });
  }
}

KvService::~KvService() { shutdown(); }

std::future<Result> KvService::submit(Request r) {
  std::future<Result> fut = r.done.get_future();
  Shard& shard = *shards_[shard_of(r.key, shards_.size())];
  // Admission covers only the push: the op's queue position is its
  // serialization point, never inside an admitted txn's waves.
  MutexLock lock(shard.txn_mu);
  CCNVM_CHECK_MSG(shard.queue.push(std::move(r)),
                  "service: submit after shutdown");
  return fut;
}

// Thread-safety analysis is off: admission takes a dynamic set of shard
// locks, which the static lock-set analysis cannot express.
TxnOutcome KvService::submit_txn(const std::vector<TxnOp>& ops)
    CCNVM_NO_THREAD_SAFETY_ANALYSIS {
  TxnMachine txn(*this, ops);
  std::vector<Result> results;
  while (true) {
    TxnAction a = txn.step(std::move(results));
    results.clear();
    switch (a.kind) {
      case TxnAction::Kind::kAdmit:
        // Ascending shard order: deadlock-free.
        for (std::size_t s : a.shards) shards_[s]->txn_mu.lock();
        break;
      case TxnAction::Kind::kWave:
      case TxnAction::Kind::kPost: {
        // A posted request's promise goes unobserved: the drain worker
        // still applies and barriers it before completing the promise.
        std::vector<std::future<Result>> futs;
        for (std::size_t i = 0; i < a.shards.size(); ++i) {
          if (a.kind == TxnAction::Kind::kWave) {
            futs.push_back(a.requests[i].done.get_future());
          }
          CCNVM_CHECK_MSG(
              shards_[a.shards[i]]->queue.push(std::move(a.requests[i])),
              "service: submit_txn after shutdown");
        }
        for (std::future<Result>& f : futs) results.push_back(f.get());
        break;
      }
      case TxnAction::Kind::kRelease:
        for (auto it = a.shards.rbegin(); it != a.shards.rend(); ++it) {
          shards_[*it]->txn_mu.unlock();
        }
        break;
      case TxnAction::Kind::kDone:
        return std::move(txn.outcome());
    }
  }
}

void KvService::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  checkpoint_all();
}

ServiceStats KvService::stats() const {
  ServiceStats total = ServiceCore::stats();
  for (const auto& shard : shards_) {
    const std::size_t hw = shard->queue.high_water();
    if (hw > total.queue_high_water) total.queue_high_water = hw;
    total.queue_pushed += shard->queue.pushed();
  }
  return total;
}

void KvService::drain_loop(std::size_t index, Shard& shard) {
  const std::chrono::microseconds gap(config().commit.max_delay_us);
  // Fulfilling a promise IS the external acknowledgment: nvlint's N1
  // check holds every persistent write in this function to "barriered
  // before the ack fires"; apply_batch is CCNVM_REQUIRES_BARRIER, so its
  // one persist_barrier() covers the whole batch before the loop below.
  CCNVM_ACK const auto ack = [](Request& r, Result&& result) {
    r.done.set_value(std::move(result));
  };

  std::vector<Request> batch;
  std::vector<Result> results;
  while (true) {
    batch.clear();
    if (shard.queue.pop_batch(batch, config().commit.max_batch, gap) == 0) {
      break;  // closed and fully drained
    }
    apply_batch(index, batch, results);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ack(batch[i], std::move(results[i]));
    }
  }
}

}  // namespace ccnvm::service
