#include "service/kv_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/sync.h"

namespace ccnvm::service {

/// One service shard: a complete engine plus its queue and worker. The
/// drain worker is the only thread that touches design/store between
/// construction and shutdown; stats_ is the one field shared with client
/// threads and sits under its own mutex.
struct KvService::Engine {
  Engine(std::size_t shard, std::size_t queue_capacity)
      : queue(shard, queue_capacity) {}

  std::unique_ptr<core::SecureNvmDesign> design;
  core::SecureNvmBase* base = nullptr;
  std::unique_ptr<store::SecureKvStore> store;
  ShardQueue queue;
  std::thread worker;

  /// The txn admission lock: every enqueue to this shard — single ops in
  /// submit(), wave requests in submit_txn() — happens under it. A txn
  /// holds the lock on EVERY shard it touches across all its waves, so no
  /// other request can slip into a touched queue between waves: combined
  /// with the queues' FIFO order, the txn occupies one contiguous slot in
  /// each shard's serial history, which is what makes the global history
  /// serializable (the fuzz txn engine checks exactly this).
  Mutex txn_mu;

  mutable Mutex stats_mu;
  CCNVM_GUARDED_BY(stats_mu) ServiceStats stats;
};

core::DesignConfig KvService::engine_design_config(const ServiceConfig& config,
                                                   std::size_t shard) {
  core::DesignConfig dc = config.design;
  // Each engine gets its own key stream; shard 0 keeps the template seed
  // so single-shard services match a bare store built from the template.
  dc.key_seed = shard == 0 ? config.design.key_seed
                           : derive_seed(config.design.key_seed, shard);
  return dc;
}

std::size_t KvService::shard_of(std::string_view key, std::size_t shards) {
  CCNVM_CHECK(shards >= 1);
  // Remix the store's key hash so the service-level routing bits are
  // decorrelated from the store's internal shard/bucket bits.
  return static_cast<std::size_t>(
      splitmix64(store::SecureKvStore::hash_key(key)) % shards);
}

KvService::KvService(const ServiceConfig& config) : config_(config) {
  CCNVM_CHECK_MSG(config_.shards >= 1, "service: need at least one shard");
  CCNVM_CHECK_MSG(config_.commit.max_batch >= 1,
                  "service: max_batch must be at least 1");
  engines_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    core::DesignConfig dc = engine_design_config(config_, s);
    if (config_.backend_factory) {
      dc.backend_factory = [factory = config_.backend_factory,
                            s](std::uint64_t capacity_bytes) {
        return factory(s, capacity_bytes);
      };
    }
    auto engine = std::make_unique<Engine>(s, config_.queue_capacity);
    engine->design = core::make_design(config_.kind, dc);
    engine->base = dynamic_cast<core::SecureNvmBase*>(engine->design.get());
    CCNVM_CHECK_MSG(engine->base != nullptr,
                    "service: design is not a SecureNvmBase");
    engine->store =
        std::make_unique<store::SecureKvStore>(*engine->base, config_.store);
    engines_.push_back(std::move(engine));
  }
  // Start the workers only once every engine exists: a worker touches
  // nothing but its own engine, but vector growth must be done first.
  for (auto& engine : engines_) {
    engine->worker = std::thread([this, e = engine.get()] { drain_loop(*e); });
  }
}

KvService::~KvService() { shutdown(); }

std::future<Result> KvService::submit(Request r) {
  std::future<Result> fut = r.done.get_future();
  const std::size_t s = shard_of(r.key, engines_.size());
  // Enqueue under the shard's txn lock so single ops serialize against
  // in-flight transactions (see Engine::txn_mu). The lock covers only the
  // push — the op's position in the queue is its serialization point.
  MutexLock lock(engines_[s]->txn_mu);
  CCNVM_CHECK_MSG(engines_[s]->queue.push(std::move(r)),
                  "service: submit after shutdown");
  return fut;
}

// Thread-safety analysis is off: the wave loop acquires a dynamic set of
// shard locks, which the static lock-set analysis cannot express.
TxnOutcome KvService::submit_txn(const std::vector<TxnOp>& ops)
    CCNVM_NO_THREAD_SAFETY_ANALYSIS {
  CCNVM_CHECK_MSG(config_.store.txn_ops_capacity > 0,
                  "service: submit_txn needs store.txn_ops_capacity > 0");
  TxnOutcome out;
  out.results.resize(ops.size());
  if (ops.empty()) {
    out.committed = true;
    return out;
  }

  // Partition the sub-ops by shard, preserving per-shard order and the
  // mapping back to input order.
  const std::size_t nshards = engines_.size();
  std::vector<std::vector<TxnOp>> per_shard(nshards);
  std::vector<std::pair<std::size_t, std::size_t>> slot_of(ops.size());
  std::vector<bool> shard_mutates(nshards, false);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TxnOp& op = ops[i];
    CCNVM_CHECK_MSG(op.op == OpType::kPut || op.op == OpType::kGet ||
                        op.op == OpType::kErase,
                    "service: txn sub-ops must be put/get/erase");
    const std::size_t s = shard_of(op.key, nshards);
    slot_of[i] = {s, per_shard[s].size()};
    per_shard[s].push_back(op);
    if (op.op != OpType::kGet) shard_mutates[s] = true;
  }
  std::vector<std::size_t> participants;
  for (std::size_t s = 0; s < nshards; ++s) {
    if (!per_shard[s].empty()) participants.push_back(s);
  }
  // The coordinator hosts the decision line; lowest shard keeps the
  // choice deterministic for the out-of-process verifier.
  const std::size_t coordinator = participants.front();
  const std::uint64_t txn_id = next_txn_id_.fetch_add(1);

  const auto wave_hook = [this, &participants](int wave) {
    if (config_.txn_wave_hook) {
      config_.txn_wave_hook(wave, participants.size());
    }
  };
  const auto push_wave = [&](const std::vector<std::size_t>& shards,
                             OpType op, bool with_ops) {
    std::vector<std::future<Result>> futs;
    futs.reserve(shards.size());
    for (std::size_t s : shards) {
      Request r;
      r.op = op;
      if (with_ops) r.txn_ops = per_shard[s];
      r.txn_id = txn_id;
      r.txn_coordinator = static_cast<std::uint32_t>(coordinator);
      futs.push_back(r.done.get_future());
      CCNVM_CHECK_MSG(engines_[s]->queue.push(std::move(r)),
                      "service: submit_txn after shutdown");
    }
    return futs;
  };
  const auto await = [](std::vector<std::future<Result>>& futs) {
    std::vector<Result> results;
    results.reserve(futs.size());
    for (std::future<Result>& f : futs) results.push_back(f.get());
    return results;
  };

  // Phase 0: admission — all touched shards, ascending (deadlock-free).
  for (std::size_t s : participants) engines_[s]->txn_mu.lock();

  // Wave 1: PREPARE everywhere. Each touched shard evaluates its sub-ops
  // and pays its one group-commit barrier before acking the vote.
  std::vector<std::future<Result>> prep_futs =
      push_wave(participants, OpType::kTxnPrepare, /*with_ops=*/true);
  std::vector<Result> votes = await(prep_futs);
  bool all_ok = true;
  for (const Result& v : votes) all_ok = all_ok && v.ok;

  bool any_mutates = false;
  for (std::size_t s : participants) any_mutates |= shard_mutates[s];

  if (!all_ok) {
    // Roll back every shard that DID vote yes (presumed abort would also
    // clean up on reopen, but live shards must release their journals).
    std::vector<std::size_t> to_abort;
    for (std::size_t i = 0; i < participants.size(); ++i) {
      const std::size_t s = participants[i];
      if (votes[i].ok && shard_mutates[s]) to_abort.push_back(s);
    }
    std::vector<std::future<Result>> abort_futs =
        push_wave(to_abort, OpType::kTxnAbort, /*with_ops=*/false);
    await(abort_futs);
    failed_txns_.fetch_add(1);
    for (auto it = participants.rbegin(); it != participants.rend(); ++it) {
      engines_[*it]->txn_mu.unlock();
    }
    return out;  // committed = false, no read values
  }

  if (any_mutates) {
    wave_hook(0);
    // Wave 2: DECIDE. The coordinator's decision line is the global
    // commit point; it finalizes its own journal in the same batch.
    std::vector<std::size_t> decide_to{coordinator};
    std::vector<std::future<Result>> decide_futs =
        push_wave(decide_to, OpType::kTxnDecide, /*with_ops=*/false);
    await(decide_futs);
    wave_hook(1);
    // Wave 3: FINALIZE the other mutating shards.
    std::vector<std::size_t> finalize_to;
    for (std::size_t s : participants) {
      if (s != coordinator && shard_mutates[s]) finalize_to.push_back(s);
    }
    std::vector<std::future<Result>> fin_futs =
        push_wave(finalize_to, OpType::kTxnFinalize, /*with_ops=*/false);
    await(fin_futs);
    wave_hook(2);
  }

  for (auto it = participants.rbegin(); it != participants.rend(); ++it) {
    engines_[*it]->txn_mu.unlock();
  }

  // Reassemble per-op results in input order.
  std::vector<std::size_t> vote_index(nshards, 0);
  for (std::size_t i = 0; i < participants.size(); ++i) {
    vote_index[participants[i]] = i;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto [s, slot] = slot_of[i];
    out.results[i] = std::move(votes[vote_index[s]].txn_results[slot]);
  }
  out.committed = true;
  txns_.fetch_add(1);
  if (participants.size() > 1) multi_shard_txns_.fetch_add(1);
  return out;
}

// nvlint-waive-next(N2): submit wrapper sharing SecureKvStore::put's name; the store's header flip is the commit point
Result KvService::put(std::string_view key, std::string_view value) {
  Request r;
  r.op = OpType::kPut;
  r.key = std::string(key);
  r.value = std::string(value);
  return submit(std::move(r)).get();
}

Result KvService::get(std::string_view key) {
  Request r;
  r.op = OpType::kGet;
  r.key = std::string(key);
  return submit(std::move(r)).get();
}

// nvlint-waive-next(N2): submit wrapper sharing SecureKvStore::erase's name; the tombstone-header flip is the commit point
Result KvService::erase(std::string_view key) {
  Request r;
  r.op = OpType::kErase;
  r.key = std::string(key);
  return submit(std::move(r)).get();
}

void KvService::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& engine : engines_) engine->queue.close();
  for (auto& engine : engines_) {
    if (engine->worker.joinable()) engine->worker.join();
  }
  // Leave every engine quiesced so audit_image() is meaningful right
  // after shutdown (a trailing get-only batch does not drain on its own).
  for (auto& engine : engines_) engine->store->checkpoint();
}

ServiceStats KvService::stats() const {
  ServiceStats total;
  for (const auto& engine : engines_) {
    ServiceStats s;
    {
      MutexLock lock(engine->stats_mu);
      s = engine->stats;
    }
    total.puts += s.puts;
    total.gets += s.gets;
    total.erases += s.erases;
    total.failed_puts += s.failed_puts;
    total.batches += s.batches;
    total.batched_ops += s.batched_ops;
    if (s.max_batch > total.max_batch) total.max_batch = s.max_batch;
    total.mutations += s.mutations;
    total.barriers += s.barriers;
    const std::size_t hw = engine->queue.high_water();
    if (hw > total.queue_high_water) total.queue_high_water = hw;
    total.queue_pushed += engine->queue.pushed();
  }
  total.txns = txns_.load();
  total.multi_shard_txns = multi_shard_txns_.load();
  total.failed_txns = failed_txns_.load();
  return total;
}

core::SecureNvmBase& KvService::engine_base(std::size_t shard) {
  return *engines_.at(shard)->base;
}

store::SecureKvStore& KvService::engine_store(std::size_t shard) {
  return *engines_.at(shard)->store;
}

void KvService::drain_loop(Engine& engine) {
  // The flush deadline is the only clock read in the service; it lives
  // here (not in a header) so the queue primitive stays inside nvlint's
  // N4 deterministic include cone. Greedy mode never reads the clock.
  // The stateless now()+gap form gives the sliding straggler gap
  // documented on GroupCommitPolicy::max_delay_us.
  MpscQueue<Request>::FlushDeadline deadline;
  if (config_.commit.max_delay_us > 0) {
    deadline = [gap_us = config_.commit.max_delay_us] {
      return std::chrono::steady_clock::now() +
             std::chrono::microseconds(gap_us);
    };
  }

  // Fulfilling a promise IS the external acknowledgment: nvlint's N1
  // check holds every persistent write in this function to "barriered
  // before the ack fires", which the one persist_barrier() above the
  // completion loop satisfies for the whole batch.
  CCNVM_ACK const auto ack = [](Request& r, Result&& result) {
    r.done.set_value(std::move(result));
  };

  std::vector<Request> batch;
  std::vector<Result> results;
  while (true) {
    batch.clear();
    results.clear();
    const std::size_t n =
        engine.queue.pop_batch(batch, config_.commit.max_batch, deadline);
    if (n == 0) break;  // closed and fully drained

    // Apply the whole batch through the single-writer store path.
    std::uint64_t puts = 0, gets = 0, erases = 0, failed_puts = 0;
    std::uint64_t mutations = 0;
    results.reserve(batch.size());
    for (Request& r : batch) {
      Result result;
      switch (r.op) {
        case OpType::kPut:
          ++puts;
          result.ok = engine.store->put(r.key, r.value);
          if (result.ok) {
            ++mutations;
          } else {
            ++failed_puts;
          }
          break;
        case OpType::kGet:
          ++gets;
          result.value = engine.store->get(r.key);
          result.ok = result.value.has_value();
          break;
        case OpType::kErase:
          ++erases;
          result.ok = engine.store->erase(r.key);
          if (result.ok) ++mutations;
          break;
        case OpType::kTxnPrepare: {
          // Evaluate this shard's sub-ops with read-your-writes against
          // the txn's own buffer, then stage + journal the mutations.
          // Counting the prepare as a mutation makes the group-commit
          // barrier below persist the journal BEFORE the vote ack — the
          // shard's one barrier for the whole txn.
          store::Txn txn = engine.store->begin_txn();
          bool txn_mutates = false;
          result.txn_results.reserve(r.txn_ops.size());
          for (const TxnOp& op : r.txn_ops) {
            Result sub;
            switch (op.op) {
              case OpType::kPut:
                ++puts;
                txn.put(op.key, op.value);
                sub.ok = true;  // staged; prepare_txn votes on validity
                txn_mutates = true;
                break;
              case OpType::kGet: {
                ++gets;
                const std::optional<std::string>* pending =
                    txn.pending(op.key);
                if (pending != nullptr) {
                  if (pending->has_value()) sub.value = **pending;
                } else {
                  sub.value = engine.store->get(op.key);
                }
                sub.ok = sub.value.has_value();
                break;
              }
              case OpType::kErase: {
                ++erases;
                const std::optional<std::string>* pending =
                    txn.pending(op.key);
                sub.ok = pending != nullptr
                             ? pending->has_value()
                             : engine.store->get(op.key).has_value();
                txn.erase(op.key);
                txn_mutates = true;
                break;
              }
              case OpType::kTxnPrepare:
              case OpType::kTxnDecide:
              case OpType::kTxnFinalize:
              case OpType::kTxnAbort:
                CCNVM_CHECK_MSG(false, "service: nested txn sub-op");
            }
            result.txn_results.push_back(std::move(sub));
          }
          if (txn_mutates) {
            result.ok =
                engine.store->prepare_txn(txn, r.txn_id, r.txn_coordinator);
            if (result.ok) ++mutations;
            else ++failed_puts;  // vote no: store full / invalid op
          } else {
            result.ok = true;  // read-only participant: nothing to stage
          }
          break;
        }
        case OpType::kTxnDecide:
          // Coordinator only: the decision line (the txn's global commit
          // point), then its own redo — one batch, one barrier.
          engine.store->decide_txn_commit(r.txn_id);
          engine.store->finalize_txn(r.txn_id);
          result.ok = true;
          ++mutations;
          break;
        case OpType::kTxnFinalize:
          engine.store->finalize_txn(r.txn_id);
          result.ok = true;
          ++mutations;
          break;
        case OpType::kTxnAbort:
          engine.store->abort_prepared_txn(r.txn_id);
          result.ok = true;
          ++mutations;  // the journal release wants the barrier too
          break;
      }
      results.push_back(std::move(result));
      if (config_.after_apply_hook) config_.after_apply_hook();
    }

    // Group commit: ONE media persist barrier covers every mutation in
    // the batch. Epoch drains stay on the design's own triggers — data
    // and DH lines persist as written, and recovery rolls the undrained
    // counters forward. Read-only batches skip it — nothing new to
    // persist, so acking immediately is already barrier-clean.
    if (mutations > 0) {
      engine.store->persist_barrier();
      if (config_.after_barrier_hook) config_.after_barrier_hook();
    }

    // Count the batch before acking it, so a caller that holds its ack
    // sees the batch (and its barrier) in stats().
    {
      MutexLock lock(engine.stats_mu);
      engine.stats.puts += puts;
      engine.stats.gets += gets;
      engine.stats.erases += erases;
      engine.stats.failed_puts += failed_puts;
      engine.stats.batches += 1;
      engine.stats.batched_ops += batch.size();
      if (batch.size() > engine.stats.max_batch) {
        engine.stats.max_batch = batch.size();
      }
      engine.stats.mutations += mutations;
      if (mutations > 0) engine.stats.barriers += 1;
    }

    // Acks only after the barrier.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ack(batch[i], std::move(results[i]));
    }
  }
}

}  // namespace ccnvm::service
