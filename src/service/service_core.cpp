#include "service/service_core.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace ccnvm::service {

core::DesignConfig ServiceCore::engine_design_config(
    const ServiceConfig& config, std::size_t shard) {
  core::DesignConfig dc = config.design;
  // Each engine gets its own key stream; shard 0 keeps the template seed
  // so single-shard services match a bare store built from the template.
  dc.key_seed = shard == 0 ? config.design.key_seed
                           : derive_seed(config.design.key_seed, shard);
  return dc;
}

std::size_t ServiceCore::shard_of(std::string_view key, std::size_t shards) {
  CCNVM_CHECK(shards >= 1);
  // Remix the store's key hash so the service-level routing bits are
  // decorrelated from the store's internal shard/bucket bits.
  return static_cast<std::size_t>(
      splitmix64(store::SecureKvStore::hash_key(key)) % shards);
}

ServiceCore::ServiceCore(const ServiceConfig& config) : config_(config) {
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
    auto engine = std::make_unique<Engine>();
    engine->design = core::make_design(config_.kind, dc);
    engine->base = dynamic_cast<core::SecureNvmBase*>(engine->design.get());
    CCNVM_CHECK_MSG(engine->base != nullptr,
                    "service: design is not a SecureNvmBase");
    engine->store =
        std::make_unique<store::SecureKvStore>(*engine->base, config_.store);
    engines_.push_back(std::move(engine));
  }
}

namespace {

/// Adds one engine's (or one batch's) counters into `total`.
void accumulate(ServiceStats& total, const ServiceStats& s) {
  total.puts += s.puts;
  total.gets += s.gets;
  total.erases += s.erases;
  total.failed_puts += s.failed_puts;
  total.batches += s.batches;
  total.batched_ops += s.batched_ops;
  if (s.max_batch > total.max_batch) total.max_batch = s.max_batch;
  total.mutations += s.mutations;
  total.barriers += s.barriers;
}

}  // namespace

void ServiceCore::apply_batch(std::size_t shard,
                              const std::vector<Request>& batch,
                              std::vector<Result>& results) {
  Engine& engine = *engines_[shard];
  store::SecureKvStore& kv = *engine.store;
  ServiceStats d;  // this batch's counters
  results.clear();
  results.reserve(batch.size());
  for (const Request& r : batch) {
    Result result;
    switch (r.op) {
      case OpType::kPut:
        ++d.puts;
        result.ok = kv.put(r.key, r.value);
        ++(result.ok ? d.mutations : d.failed_puts);
        break;
      case OpType::kGet:
        ++d.gets;
        result.value = kv.get(r.key);
        result.ok = result.value.has_value();
        break;
      case OpType::kErase:
        ++d.erases;
        result.ok = kv.erase(r.key);
        if (result.ok) ++d.mutations;
        break;
      case OpType::kTxnPrepare: {
        // Evaluate this shard's sub-ops with read-your-writes against the
        // txn's own buffer, then stage + journal the mutations. Counting
        // the prepare as a mutation makes the barrier below persist the
        // journal BEFORE the vote ack — the shard's one barrier for the
        // whole txn.
        store::Txn txn = kv.begin_txn();
        result.txn_results.reserve(r.txn_ops.size());
        for (const TxnOp& op : r.txn_ops) {
          Result sub;
          const std::optional<std::string>* pending = txn.pending(op.key);
          if (op.op == OpType::kPut) {
            ++d.puts;
            txn.put(op.key, op.value);
            sub.ok = true;  // staged; prepare_txn votes on validity
          } else if (op.op == OpType::kGet) {
            ++d.gets;
            sub.value = pending != nullptr ? *pending : kv.get(op.key);
            sub.ok = sub.value.has_value();
          } else {
            ++d.erases;
            sub.ok = pending != nullptr ? pending->has_value()
                                        : kv.get(op.key).has_value();
            txn.erase(op.key);
          }
          result.txn_results.push_back(std::move(sub));
        }
        // A read-only participant has nothing to stage: it votes yes. A
        // no vote means the store is full or an op was invalid.
        if (txn.empty()) {
          result.ok = true;
          break;
        }
        result.ok = kv.prepare_txn(txn, r.txn_id, r.txn_coordinator);
        ++(result.ok ? d.mutations : d.failed_puts);
        break;
      }
      case OpType::kTxnDecide:
        // Coordinator only: the decision line (the txn's global commit
        // point), then its own redo — one batch, one barrier.
        kv.decide_txn_commit(r.txn_id);
        [[fallthrough]];
      case OpType::kTxnFinalize:
        kv.finalize_txn(r.txn_id);
        result.ok = true;
        ++d.mutations;
        break;
      case OpType::kTxnAbort:
        kv.abort_prepared_txn(r.txn_id);
        result.ok = true;
        ++d.mutations;  // the journal release wants the barrier too
        break;
    }
    results.push_back(std::move(result));
    if (config_.after_apply_hook) config_.after_apply_hook();
  }

  // Group commit: ONE media persist barrier covers every mutation in the
  // batch; read-only batches have nothing new to persist.
  if (d.mutations > 0) {
    kv.persist_barrier();
    if (config_.after_barrier_hook) config_.after_barrier_hook();
    d.barriers = 1;
  }
  d.batches = 1;
  d.batched_ops = d.max_batch = batch.size();
  MutexLock lock(engine.stats_mu);
  accumulate(engine.stats, d);
}

ServiceStats ServiceCore::stats() const {
  ServiceStats total;
  for (const auto& engine : engines_) {
    MutexLock lock(engine->stats_mu);
    accumulate(total, engine->stats);
  }
  total.txns = txns_.load();
  total.multi_shard_txns = multi_shard_txns_.load();
  total.failed_txns = failed_txns_.load();
  return total;
}

// ---- The transaction step machine ----------------------------------------

TxnMachine::TxnMachine(ServiceCore& core, const std::vector<TxnOp>& ops)
    : core_(core),
      id_(core.next_txn_id_.fetch_add(1)),
      per_shard_(core.shards()),
      slot_of_(ops.size()),
      mutates_(core.shards(), false),
      votes_(core.shards()) {
  CCNVM_CHECK_MSG(core.config().store.txn_ops_capacity > 0,
                  "service: submit_txn needs store.txn_ops_capacity > 0");
  // Partition the sub-ops by shard, preserving per-shard order and the
  // mapping back to input order.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TxnOp& op = ops[i];
    CCNVM_CHECK_MSG(op.op == OpType::kPut || op.op == OpType::kGet ||
                        op.op == OpType::kErase,
                    "service: txn sub-ops must be put/get/erase");
    const std::size_t s = ServiceCore::shard_of(op.key, core.shards());
    slot_of_[i] = {s, per_shard_[s].size()};
    per_shard_[s].push_back(op);
    if (op.op != OpType::kGet) mutates_[s] = true;
  }
  for (std::size_t s = 0; s < per_shard_.size(); ++s) {
    if (!per_shard_[s].empty()) participants_.push_back(s);
  }
}

TxnAction TxnMachine::wave(const std::vector<std::size_t>& shards,
                           OpType op) const {
  TxnAction a{TxnAction::Kind::kWave, shards, {}};
  // The coordinator hosts the decision line; the lowest shard keeps the
  // choice deterministic for the out-of-process verifier.
  const auto coordinator = static_cast<std::uint32_t>(participants_.front());
  for (std::size_t s : shards) {
    Request& r = a.requests.emplace_back(op, "");
    if (op == OpType::kTxnPrepare) r.txn_ops = per_shard_[s];
    r.txn_id = id_;
    r.txn_coordinator = coordinator;
  }
  return a;
}

void TxnMachine::wave_hook(int wave) const {
  if (core_.config().txn_wave_hook) {
    core_.config().txn_wave_hook(wave, participants_.size());
  }
}

TxnAction TxnMachine::step(std::vector<Result> results) {
  switch (phase_) {
    case Phase::kNew:
      if (participants_.empty()) break;  // empty txn: commits trivially
      phase_ = Phase::kAdmitted;
      return {TxnAction::Kind::kAdmit, participants_, {}};
    case Phase::kAdmitted:
      phase_ = Phase::kPrepared;
      return wave(participants_, OpType::kTxnPrepare);
    case Phase::kPrepared: {
      bool all_ok = true;
      bool any_mutates = false;
      std::vector<std::size_t> to_abort;
      for (std::size_t i = 0; i < participants_.size(); ++i) {
        const std::size_t s = participants_[i];
        votes_[s] = std::move(results[i]);
        all_ok = all_ok && votes_[s].ok;
        any_mutates = any_mutates || mutates_[s];
        if (votes_[s].ok && mutates_[s]) to_abort.push_back(s);
      }
      committing_ = all_ok;
      if (!all_ok) {
        // Roll back every shard that DID stage (presumed abort would also
        // clean up on reopen, but live shards must release their
        // journals).
        if (to_abort.empty()) return release();
        phase_ = Phase::kLastWave;
        return wave(to_abort, OpType::kTxnAbort);
      }
      if (!any_mutates) return release();
      wave_hook(0);
      // DECIDE: the coordinator's decision line is the global commit
      // point; it finalizes its own journal in the same batch.
      phase_ = Phase::kDecided;
      return wave({participants_.front()}, OpType::kTxnDecide);
    }
    case Phase::kDecided: {
      wave_hook(1);
      std::vector<std::size_t> finalize_to;
      for (std::size_t s : participants_) {
        if (s != participants_.front() && mutates_[s]) finalize_to.push_back(s);
      }
      phase_ = Phase::kLastWave;
      if (!finalize_to.empty()) return wave(finalize_to, OpType::kTxnFinalize);
      [[fallthrough]];
    }
    case Phase::kLastWave:
      if (committing_) wave_hook(2);
      return release();
    case Phase::kReleased:
      break;
  }
  // Done: reassemble per-op results in input order.
  out_.committed = phase_ == Phase::kNew || committing_;
  out_.results.assign(slot_of_.size(), Result{});
  if (phase_ == Phase::kReleased) {
    if (!committing_) {
      core_.failed_txns_.fetch_add(1);
    } else {
      core_.txns_.fetch_add(1);
      if (participants_.size() > 1) core_.multi_shard_txns_.fetch_add(1);
    }
    for (std::size_t i = 0; committing_ && i < slot_of_.size(); ++i) {
      const auto [s, slot] = slot_of_[i];
      out_.results[i] = std::move(votes_[s].txn_results[slot]);
    }
  }
  return {};
}

}  // namespace ccnvm::service
