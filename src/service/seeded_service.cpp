#include "service/seeded_service.h"

#include <utility>

#include "common/check.h"

namespace ccnvm::service {

SeededService::SeededService(const ServiceConfig& config,
                             std::uint64_t schedule_seed)
    : ServiceCore(config),
      rng_(schedule_seed),
      queues_(shards()),
      owner_(shards(), kFree) {}

void SeededService::submit(Request r, Done done) {
  const std::size_t s = shard_of(r.key, shards());
  CCNVM_CHECK_MSG(free(s), "seeded service: single op on an admitted shard");
  queues_[s].push_back({std::move(r), std::move(done)});
}

void SeededService::submit_txn(std::size_t client,
                               const std::vector<TxnOp>& ops, TxnDone done) {
  Client& c = clients_[client];
  CCNVM_CHECK_MSG(!c.txn, "seeded service: client already in a txn");
  c.txn.emplace(static_cast<ServiceCore&>(*this), ops);
  c.done = std::move(done);
  c.action = c.txn->step({});
}

bool SeededService::acked_finalize_queued() const {
  for (const std::deque<Queued>& q : queues_) {
    for (const Queued& entry : q) {
      if (entry.first.op != OpType::kTxnFinalize) continue;
      bool released = true;
      for (const Client& c : clients_) {
        if (c.txn && c.txn->id() == entry.first.txn_id) released = false;
      }
      if (released) return true;
    }
  }
  return false;
}

bool SeededService::runnable(const Client& c) const {
  if (c.retired || c.waiting > 0) return false;
  if (c.txn && c.action.kind == TxnAction::Kind::kAdmit) {
    for (std::size_t s : c.action.shards) {
      if (!free(s)) return false;
    }
  }
  return true;
}

bool SeededService::step() {
  // Runnable units: clients first, then non-empty shards; the slow shard
  // only when nothing else is runnable.
  std::vector<std::size_t> units;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (runnable(clients_[i])) units.push_back(i);
  }
  for (std::size_t s = 0; s < queues_.size(); ++s) {
    if (!queues_[s].empty() && s != slow_) {
      units.push_back(clients_.size() + s);
    }
  }
  if (units.empty() && slow_ < queues_.size() && !queues_[slow_].empty()) {
    units.push_back(clients_.size() + slow_);
  }
  if (units.empty()) return false;
  const std::size_t pick = units[rng_.below(units.size())];
  if (pick < clients_.size()) {
    run_client(pick);
  } else {
    run_batch(pick - clients_.size());
  }
  return true;
}

void SeededService::run_client(std::size_t id) {
  Client& c = clients_[id];
  if (!c.txn) {
    if (!c.next()) c.retired = true;
    return;
  }
  TxnAction& a = c.action;
  if (on_action) on_action(id, a);
  switch (a.kind) {
    case TxnAction::Kind::kWave:
      // The batch that applies the wave's last request feeds the results
      // back, so the client's next step is the machine's next action.
      c.waiting = a.shards.size();
      c.results.assign(c.waiting, Result{});
      for (std::size_t i = 0; i < a.shards.size(); ++i) {
        queues_[a.shards[i]].push_back(
            {std::move(a.requests[i]), [this, id, i](Result&& r) {
               Client& w = clients_[id];
               w.results[i] = std::move(r);
               if (--w.waiting == 0) {
                 w.action = w.txn->step(std::move(w.results));
               }
             }});
      }
      return;
    case TxnAction::Kind::kPost:
      // Nobody waits: the txn's next step (its release) is runnable now,
      // and any step may run between the two.
      for (std::size_t i = 0; i < a.shards.size(); ++i) {
        queues_[a.shards[i]].push_back(
            {std::move(a.requests[i]), [](Result&&) {}});
      }
      a = c.txn->step({});
      return;
    case TxnAction::Kind::kAdmit:
    case TxnAction::Kind::kRelease:
      for (std::size_t s : a.shards) {
        owner_[s] = a.kind == TxnAction::Kind::kAdmit ? id : kFree;
      }
      a = c.txn->step({});
      // Release and completion are one step: a released txn is finished,
      // never a second in-flight unit beside the next owner's.
      if (a.kind != TxnAction::Kind::kDone) return;
      break;
    case TxnAction::Kind::kDone:
      break;
  }
  TxnOutcome out = std::move(c.txn->outcome());
  TxnDone done = std::move(c.done);
  c.txn.reset();
  done(std::move(out));
}

void SeededService::run_batch(std::size_t shard) {
  std::deque<Queued>& q = queues_[shard];
  std::vector<Request> batch;
  std::vector<Done> dones;
  while (!q.empty() && batch.size() < config().commit.max_batch) {
    batch.push_back(std::move(q.front().first));
    dones.push_back(std::move(q.front().second));
    q.pop_front();
  }
  std::vector<Result> results;
  apply_batch(shard, batch, results);
  for (std::size_t i = 0; i < dones.size(); ++i) {
    dones[i](std::move(results[i]));
  }
}

}  // namespace ccnvm::service
