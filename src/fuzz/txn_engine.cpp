// Txn engine: concurrent conflicting transactions under a deterministic
// scheduler, checked for serializability and crash atomicity.
//
// Each case emulates a 2-shard KvService at the store level: two
// independent engines (own design + single-shard SecureKvStore each),
// keys routed by KvService::shard_of, and 2-3 logical clients running
// the service's exact txn protocol — lock every touched shard, PREPARE
// per shard (reads evaluated with read-your-writes, mutations staged +
// journaled, one barrier), DECIDE on the lowest shard, FINALIZE the
// rest, ack. The emulation exists because the checker needs determinism:
// a seeded scheduler interleaves the clients' protocol *steps* (the same
// granularity at which real drain workers hand off), so a case seed
// replays bit-identically where real threads would not.
//
// Every committed value is tagged with its writer's txn id, so the
// recorded history carries exact read observations. No-crash cases run
// both oracles from fuzz/txn_history.h (DSG cycle search + serial
// replay against the final store state). Crash cases cut power
// mid-protocol — between steps or inside a store txn call via the
// TxnCrashPhase hook — then recover, reopen the shards in shard order
// (audit::open_shard_stores: shard 1 resolves its prepared txns against
// shard 0's decision line) and hold them to the KV crash oracle
// (audit::check_reopened): every acked txn fully present, every
// in-flight txn all-or-nothing, no spurious entries.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "audit/kv_oracle.h"
#include "audit/sweep_shape.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/cc_nvm.h"
#include "core/design.h"
#include "fuzz/fuzz.h"
#include "fuzz/txn_history.h"
#include "service/kv_service.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"

namespace ccnvm::fuzz::detail {
namespace {

using audit::kCcSweepKinds;

constexpr std::size_t kShards = 2;
constexpr std::size_t kKeys = 12;

/// Per-emulated-shard store geometry: single-shard internally (the
/// emulated service layers its own sharding on top, like the real one)
/// plus a txn journal.
store::StoreConfig txn_store_config() {
  store::StoreConfig cfg;
  cfg.shards = 1;
  cfg.buckets_per_shard = 64;
  cfg.heap_lines_per_shard = 192;
  cfg.txn_ops_capacity = 8;
  return cfg;
}

/// Committed values carry their writer: "t<txn id>:<key>". The history
/// checker needs exact read-observation attribution, and the crash
/// verifier needs applied-or-not to be unambiguous per key.
std::string value_tag(std::uint64_t txn_id, std::string_view key) {
  std::string tag = "t";
  tag += std::to_string(txn_id);
  tag += ':';
  tag += key;
  return tag;
}

std::optional<std::uint64_t> writer_of(std::string_view value) {
  if (value.size() < 2 || value[0] != 't') return std::nullopt;
  std::uint64_t id = 0;
  std::size_t i = 1;
  for (; i < value.size() && value[i] != ':'; ++i) {
    if (value[i] < '0' || value[i] > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(value[i] - '0');
  }
  if (i == 1 || i == value.size()) return std::nullopt;
  return id;
}

/// A history or plan op as the KV crash oracle's op (reads change nothing).
audit::KvOp kv_op(TxnOpRec::Kind kind, const std::string& key,
                  const std::string& value) {
  return {kind == TxnOpRec::Kind::kWrite   ? audit::KvOpKind::kPut
          : kind == TxnOpRec::Kind::kErase ? audit::KvOpKind::kErase
                                           : audit::KvOpKind::kGet,
          key, kind == TxnOpRec::Kind::kWrite ? value : ""};
}

struct PlanOp {
  TxnOpRec::Kind kind = TxnOpRec::Kind::kRead;
  std::string key;
};

/// One logical client's protocol state machine. A client runs one txn at
/// a time: plan -> lock -> prepare each participant -> decide -> finalize
/// the remaining mutating shards -> ack+release. Each arrow is one
/// scheduler step, so crashes land between any two protocol actions.
struct Client {
  bool active = true;
  bool in_txn = false;
  bool locked = false;
  TxnRecord rec;
  std::vector<PlanOp> plan;
  std::vector<std::size_t> participants;  // touched shards, ascending
  std::vector<std::size_t> mutating;      // shards with put/erase sub-ops
  std::size_t next_prepare = 0;
  bool decided = false;
  std::size_t next_finalize = 0;
};

}  // namespace

CaseOutcome run_txn_case(std::uint64_t case_seed, std::size_t max_ops,
                         bool planted_torn_txn, bool file_backend) {
  CaseOutcome out;
  Rng rng(case_seed);
  const store::StoreConfig cfg = txn_store_config();
  const std::vector<std::string> keys = audit::numbered_keys("tx-", kKeys);

  const core::DesignKind kind = kCcSweepKinds[rng.below(kCcSweepKinds.size())];
  std::vector<std::unique_ptr<core::SecureNvmDesign>> designs;
  std::vector<core::SecureNvmBase*> bases;
  std::vector<core::CcNvmDesign*> ccs;
  std::vector<store::SecureKvStore> stores;
  stores.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    core::DesignConfig dc;
    dc.data_capacity = store::capacity_for(cfg);
    dc.key_seed = derive_seed(case_seed, 0x7a9, s);  // decorrelated, as in
                                                     // the real service
    if (file_backend) dc.backend_factory = make_file_backend;
    designs.push_back(core::make_design(kind, dc));
    auto* base = dynamic_cast<core::SecureNvmBase*>(designs.back().get());
    auto* cc = dynamic_cast<core::CcNvmDesign*>(designs.back().get());
    CCNVM_CHECK_MSG(base != nullptr && cc != nullptr,
                    "txn fuzz needs a CcNvmDesign");
    bases.push_back(base);
    ccs.push_back(cc);
    stores.emplace_back(*base, cfg);
  }

  // Crash sampling: none (run both oracles), a step-budget power cut
  // (lands between protocol steps), or an armed TxnCrashPhase hook
  // (lands inside a store txn call — mid-redo, after the status flip...).
  enum class CrashMode { kNone, kStepBudget, kArmedHook };
  CrashMode mode = CrashMode::kNone;
  std::uint64_t kill_step = 0;
  std::uint64_t hook_countdown = 0;
  if (!planted_torn_txn) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 30) {
      mode = CrashMode::kStepBudget;
      kill_step = 1 + rng.below(static_cast<std::uint64_t>(max_ops) * 2 + 1);
    } else if (roll < 60) {
      mode = CrashMode::kArmedHook;
      const auto phase = static_cast<store::SecureKvStore::TxnCrashPhase>(
          rng.below(6));
      hook_countdown = 1 + rng.below(8);
      stores[rng.below(kShards)].set_txn_test_hook(
          [&hook_countdown, phase](store::SecureKvStore::TxnCrashPhase p) {
            if (p == phase && --hook_countdown == 0) {
              throw core::InjectedPowerLoss{};
            }
          });
    }
  }

  std::vector<TxnRecord> history;
  std::uint64_t next_txn_id = 1;
  std::uint64_t next_commit_seq = 0;
  std::size_t ops_budget = max_ops;

  if (planted_torn_txn) {
    // Self-test tearing: record a committed 2-put txn but apply only the
    // first write (on reserved keys no random txn touches). The serial
    // oracle must report a torn transaction; crash sampling stays off so
    // the oracle path always runs.
    TxnRecord forged;
    forged.id = next_txn_id++;
    forged.committed = true;
    forged.commit_seq = ++next_commit_seq;
    const std::array<std::string, 2> planted = {"tx-pb-0", "tx-pb-1"};
    for (const std::string& k : planted) {
      forged.ops.push_back(TxnOpRec{TxnOpRec::Kind::kWrite, k,
                                    value_tag(forged.id, k), std::nullopt});
    }
    const std::size_t s = service::KvService::shard_of(planted[0], kShards);
    CCNVM_CHECK_MSG(stores[s].put(planted[0], value_tag(forged.id, planted[0])),
                    "txn fuzz: planted put rejected");
    history.push_back(std::move(forged));
  }

  std::vector<Client> clients(2 + rng.below(2));
  std::array<std::ptrdiff_t, kShards> owner;
  owner.fill(-1);

  const auto plan_txn = [&](Client& c) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.below(4), ops_budget);
    ops_budget -= n;
    out.ops += n;
    c.rec = TxnRecord{};
    c.rec.id = next_txn_id++;
    c.plan.clear();
    std::set<std::size_t> touched;
    std::set<std::size_t> mut;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& key = keys[rng.below(kKeys)];
      const std::uint64_t roll = rng.below(100);
      const TxnOpRec::Kind op_kind = roll < 45   ? TxnOpRec::Kind::kWrite
                                     : roll < 75 ? TxnOpRec::Kind::kRead
                                                 : TxnOpRec::Kind::kErase;
      c.plan.push_back(PlanOp{op_kind, key});
      const std::size_t s = service::KvService::shard_of(key, kShards);
      touched.insert(s);
      if (op_kind != TxnOpRec::Kind::kRead) mut.insert(s);
    }
    c.participants.assign(touched.begin(), touched.end());
    c.mutating.assign(mut.begin(), mut.end());
    c.rec.ops.resize(c.plan.size());
    c.next_prepare = 0;
    c.decided = false;
    c.next_finalize = 0;
    c.in_txn = true;
    c.locked = false;
  };

  // The PREPARE wave for one shard: evaluate this shard's sub-ops in plan
  // order (reads see the txn's own buffered mutations first — the drain
  // worker's read-your-writes), then stage + journal + barrier.
  const auto prepare_shard = [&](Client& c, std::size_t shard) {
    store::Txn txn = stores[shard].begin_txn();
    bool mutates = false;
    for (std::size_t i = 0; i < c.plan.size(); ++i) {
      const PlanOp& op = c.plan[i];
      if (service::KvService::shard_of(op.key, kShards) != shard) continue;
      switch (op.kind) {
        case TxnOpRec::Kind::kRead: {
          std::optional<std::string> got;
          if (const std::optional<std::string>* p = txn.pending(op.key)) {
            got = *p;
          } else {
            got = stores[shard].get(op.key);
          }
          ++out.reads_compared;
          c.rec.ops[i] =
              TxnOpRec{TxnOpRec::Kind::kRead, op.key, got.value_or(""),
                       got ? writer_of(*got) : std::nullopt};
          CCNVM_CHECK_MSG(!got || c.rec.ops[i].observed.has_value(),
                          "txn fuzz: observed an untagged value");
          fold_digest(out.digest,
                      c.rec.ops[i].observed ? *c.rec.ops[i].observed + 1 : 0);
          break;
        }
        case TxnOpRec::Kind::kWrite: {
          const std::string v = value_tag(c.rec.id, op.key);
          txn.put(op.key, v);
          c.rec.ops[i] =
              TxnOpRec{TxnOpRec::Kind::kWrite, op.key, v, std::nullopt};
          mutates = true;
          break;
        }
        case TxnOpRec::Kind::kErase:
          txn.erase(op.key);
          c.rec.ops[i] =
              TxnOpRec{TxnOpRec::Kind::kErase, op.key, "", std::nullopt};
          mutates = true;
          break;
      }
    }
    if (mutates) {
      CCNVM_CHECK_MSG(
          stores[shard].prepare_txn(
              txn, c.rec.id,
              static_cast<std::uint32_t>(c.participants.front())),
          "txn fuzz: prepare rejected (store full?)");
      stores[shard].checkpoint();  // this shard's one prepare-wave barrier
    }
  };

  const auto step = [&](std::size_t idx) {
    Client& c = clients[idx];
    if (!c.in_txn) {
      plan_txn(c);
      return;
    }
    if (!c.locked) {
      for (std::size_t s : c.participants) {
        owner[s] = static_cast<std::ptrdiff_t>(idx);
      }
      c.locked = true;
      return;
    }
    if (c.next_prepare < c.participants.size()) {
      prepare_shard(c, c.participants[c.next_prepare++]);
      return;
    }
    if (!c.mutating.empty() && !c.decided) {
      // DECIDE on the coordinator (lowest touched shard, even when it is
      // itself read-only — prepared shards name it in their journal).
      const std::size_t coord = c.participants.front();
      stores[coord].decide_txn_commit(c.rec.id);
      stores[coord].finalize_txn(c.rec.id);
      stores[coord].checkpoint();
      c.decided = true;
      return;
    }
    while (c.next_finalize < c.mutating.size() &&
           c.mutating[c.next_finalize] == c.participants.front()) {
      ++c.next_finalize;  // the coordinator finalized in the decide step
    }
    if (c.next_finalize < c.mutating.size()) {
      const std::size_t s = c.mutating[c.next_finalize++];
      stores[s].finalize_txn(c.rec.id);
      stores[s].checkpoint();
      return;
    }
    c.rec.committed = true;
    c.rec.commit_seq = ++next_commit_seq;
    history.push_back(c.rec);
    for (std::size_t s : c.participants) owner[s] = -1;
    c.in_txn = false;
    c.locked = false;
  };

  bool crashed = false;
  std::uint64_t steps = 0;
  std::vector<std::size_t> candidates;
  while (!crashed) {
    candidates.clear();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      Client& c = clients[i];
      if (!c.active) continue;
      if (!c.in_txn) {
        if (ops_budget == 0) {
          c.active = false;
          continue;
        }
        candidates.push_back(i);
      } else if (!c.locked) {
        bool free = true;
        for (std::size_t s : c.participants) free = free && owner[s] < 0;
        if (free) candidates.push_back(i);
      } else {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) break;  // a lock holder is always runnable
    if (mode == CrashMode::kStepBudget && ++steps >= kill_step) {
      crashed = true;
      break;
    }
    try {
      step(candidates[rng.below(candidates.size())]);
    } catch (const core::InjectedPowerLoss&) {
      crashed = true;
    }
  }

  if (!crashed) {
    for (auto& st : stores) st.checkpoint();
    const SerializabilityVerdict verdict = check_serializability(history);
    CCNVM_CHECK_MSG(verdict.serializable, verdict.message.c_str());
    ++out.checks;

    std::map<std::string, std::string> final_state;
    for (auto& st : stores) {
      st.for_each([&](std::string_view k, std::string_view v) {
        final_state.emplace(std::string(k), std::string(v));
      });
    }
    const OracleResult oracle = replay_serial_oracle(history, final_state);
    CCNVM_CHECK_MSG(oracle.ok, oracle.message.c_str());
    out.checks += 1 + oracle.reads_checked;

    fold_digest(out.digest, verdict.edges);
    fold_digest(out.digest, final_state.size());
    for (const auto& [k, v] : final_state) {
      fold_digest(out.digest, splitmix64(k.size() * 131 + v.size()));
    }
    for (auto& st : stores) {
      fold_digest(out.digest, st.stats().txn_commits);
      fold_digest(out.digest, st.stats().txn_prepares);
    }
    return out;
  }

  // Crash path: power-cut both emulated shards, recover, and reopen them
  // in shard order with the coordinator's decision line as resolver —
  // what crashd's txn verifier does out of process.
  for (auto* cc : ccs) cc->crash_power_loss();
  ++out.crashes;
  for (auto& design : designs) {
    const core::RecoveryReport report = design->recover();
    CCNVM_CHECK_MSG(report.clean, "txn fuzz: recovery not clean");
    ++out.recoveries;
  }
  std::vector<store::SecureKvStore> reopened =
      audit::open_shard_stores(bases, cfg);

  // The KV crash oracle's model: every committed (acked) txn — `history`
  // holds exactly those, in commit order — then each locked client's txn
  // as its in-flight unit (locks are per shard, so in-flight txns are
  // key-disjoint).
  audit::KvModel model;
  for (const TxnRecord& t : history) {
    audit::KvUnit unit;
    for (const TxnOpRec& op : t.ops) {
      unit.push_back(kv_op(op.kind, op.key, op.value));
    }
    model.submit(std::move(unit));
    model.ack();
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const Client& c = clients[i];
    if (!c.in_txn || !c.locked) continue;
    audit::KvUnit unit;
    for (const PlanOp& op : c.plan) {
      unit.push_back(kv_op(op.kind, op.key, value_tag(c.rec.id, op.key)));
    }
    model.submit(std::move(unit), i);
  }

  std::vector<audit::ReopenedStore> keyed(kShards);
  for (std::size_t s = 0; s < kShards; ++s) keyed[s].kv = &reopened[s];
  for (const std::string& key : keys) {
    keyed[service::KvService::shard_of(key, kShards)].keys.push_back(key);
  }
  const std::vector<std::optional<std::string>> reads =
      audit::check_reopened(model, keyed);

  // The survivors, and the keys an in-flight txn would change: together
  // with one check per in-flight txn and one for the whole state, these
  // are the case's crash checks.
  audit::KvModel applied = model;
  for (const auto& [client, unit] : model.in_flight()) applied.ack(client);
  const auto value_in = [](const std::map<std::string, std::string>& state,
                           const std::string& key) {
    const auto it = state.find(key);
    return it == state.end() ? std::nullopt
                             : std::optional<std::string>(it->second);
  };
  std::map<std::string, std::string> got;
  std::size_t r = 0;
  for (const audit::ReopenedStore& s : keyed) {
    for (const std::string& key : s.keys) {
      if (reads[r]) got.emplace(key, *reads[r]);
      ++r;
      if (value_in(model.acked(), key) != value_in(applied.acked(), key)) {
        ++out.checks;
      }
    }
  }
  out.checks += model.in_flight().size() + got.size() + 1;

  fold_digest(out.digest, got.size());
  for (const auto& [k, v] : got) {
    fold_digest(out.digest, splitmix64(k.size() * 131 + v.size()));
  }
  for (auto& st : reopened) fold_digest(out.digest, st.size());
  return out;
}

}  // namespace ccnvm::fuzz::detail
