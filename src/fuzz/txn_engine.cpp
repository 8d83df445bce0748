// Txn engine: concurrent conflicting transactions on the seeded service
// driver (service/seeded_service.h), checked for serializability and
// crash atomicity.
//
// Each case runs a 2- or 3-shard service — the shipped ServiceCore and
// TxnMachine: admission, a one-phase COMMIT or PREPARE, DECIDE + a posted
// FINALIZE or the ABORT wave, release — with 2-3 clients, and the
// driver's seeded scheduler interleaves client steps with shard batches,
// so a case seed replays bit-identically. Some cases shrink the store
// heap so prepares vote no. Three shards let a txn on {A, C} decide on A
// while an acked txn on {A, B} still has its finalize queued on B — the
// race reopen's decision rule exists for; the campaign counts the power
// cuts that land in that window (ack_cuts).
//
// Written values are tagged with their writer's txn id, so the recorded
// history carries exact read observations; aborted txns enter it
// uncommitted. No-crash cases run both oracles of fuzz/txn_history.h
// (DSG cycle search, serial replay against the final state). Crash cases
// cut power between scheduler steps or inside a store txn call (the
// TxnCrashPhase hook throws out of apply_batch), recover, reopen the
// shards in shard order (audit::open_shard_stores) and hold them to the
// KV crash oracle (audit::check_reopened): acked txns fully present,
// admitted in-flight txns all-or-nothing, no spurious entries.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
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
#include "service/seeded_service.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"

namespace ccnvm::fuzz::detail {
namespace {

using audit::kCcSweepKinds;
using Kind = TxnOpRec::Kind;

constexpr std::size_t kKeys = 12;

/// Per-service-shard store geometry: single-shard internally (the service
/// layers its own sharding on top) plus a txn journal.
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
  return "t" + std::to_string(txn_id) + ":" + std::string(key);
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

/// A recorded txn as the KV crash oracle's unit (reads change nothing).
audit::KvUnit kv_unit(const TxnRecord& t) {
  audit::KvUnit unit;
  for (const TxnOpRec& op : t.ops) {
    const bool put = op.kind == Kind::kWrite;
    unit.push_back({put                        ? audit::KvOpKind::kPut
                    : op.kind == Kind::kErase ? audit::KvOpKind::kErase
                                              : audit::KvOpKind::kGet,
                    op.key, put ? op.value : ""});
  }
  return unit;
}

}  // namespace

CaseOutcome run_txn_case(std::uint64_t case_seed, std::size_t max_ops,
                         bool planted_torn_txn, bool file_backend) {
  CaseOutcome out;
  Rng rng(case_seed);
  const std::vector<std::string> keys = audit::numbered_keys("tx-", kKeys);

  service::ServiceConfig cfg;
  cfg.shards = 2 + rng.below(2);
  cfg.kind = kCcSweepKinds[rng.below(kCcSweepKinds.size())];
  cfg.store = txn_store_config();
  // A tight heap makes some prepares vote no, so the abort wave runs.
  if (rng.chance(0.3)) cfg.store.heap_lines_per_shard = 2 + rng.below(6);
  cfg.design.data_capacity = store::capacity_for(cfg.store);
  cfg.design.key_seed = derive_seed(case_seed, 0x7a9);
  if (file_backend) cfg.design.backend_factory = make_file_backend;
  service::SeededService service(cfg, derive_seed(case_seed, 0x5c4ed));
  // A slow shard keeps posted finalizes queued while other txns run on.
  if (rng.chance(0.5)) service.set_slow_shard(rng.below(cfg.shards));
  std::vector<core::SecureNvmBase*> bases;
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    bases.push_back(&service.engine_base(s));
  }

  // Crash sampling: none (run both oracles), a step-budget power cut
  // (lands between scheduler steps), an armed TxnCrashPhase hook (lands
  // inside a store txn call — mid-redo, after the status flip, inside an
  // abort...), or a cut at the first decision line written while an
  // acked txn's finalize is still queued (the early ack's window: reopen
  // must still commit that txn against the younger decision).
  std::uint64_t kill_step = 0;  // 0 = no step-budget cut
  std::uint64_t hook_countdown = 0;
  using Phase = store::SecureKvStore::TxnCrashPhase;
  Phase armed = Phase::kAfterStage;
  if (!planted_torn_txn) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 30) {
      kill_step = 1 + rng.below(static_cast<std::uint64_t>(max_ops) * 4 + 1);
    } else if (roll < 55) {
      armed = static_cast<Phase>(rng.below(7));
      // Aborts are rare (a no vote needs a full heap): cut in an early one.
      hook_countdown =
          1 + rng.below(armed == Phase::kAfterAbortRelease ? 2 : 8);
      service.engine_store(rng.below(cfg.shards)).set_txn_test_hook(
          [&hook_countdown, armed](Phase p) {
            if (p == armed && --hook_countdown == 0) {
              throw core::InjectedPowerLoss{};
            }
          });
    } else if (roll < 65) {
      for (std::size_t s = 0; s < cfg.shards; ++s) {
        service.engine_store(s).set_txn_test_hook([&service](Phase p) {
          if (p == Phase::kAfterDecide && service.acked_finalize_queued()) {
            throw core::InjectedPowerLoss{};
          }
        });
      }
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
      forged.ops.push_back(
          TxnOpRec{Kind::kWrite, k, value_tag(forged.id, k), std::nullopt});
    }
    const std::size_t s =
        service::ServiceCore::shard_of(planted[0], cfg.shards);
    CCNVM_CHECK_MSG(service.engine_store(s).put(
                        planted[0], value_tag(forged.id, planted[0])),
                    "txn fuzz: planted put rejected");
    history.push_back(std::move(forged));
  }

  // Each client plans one txn per idle step; its record (plan, then read
  // observations) is complete when the service releases the txn.
  std::vector<TxnRecord> in_flight(2 + rng.below(2));
  const auto finish = [&](std::size_t c, service::TxnOutcome&& o) {
    TxnRecord& rec = in_flight[c];
    rec.committed = o.committed;
    rec.commit_seq = o.committed ? ++next_commit_seq : 0;
    out.aborts += o.committed ? 0 : 1;
    for (std::size_t i = 0; o.committed && i < rec.ops.size(); ++i) {
      if (rec.ops[i].kind != Kind::kRead) continue;
      const std::optional<std::string>& got = o.results[i].value;
      rec.ops[i].value = got.value_or("");
      rec.ops[i].observed = got ? writer_of(*got) : std::nullopt;
      CCNVM_CHECK_MSG(!got || rec.ops[i].observed.has_value(),
                      "txn fuzz: observed an untagged value");
      ++out.reads_compared;
      fold_digest(out.digest,
                  rec.ops[i].observed ? *rec.ops[i].observed + 1 : 0);
    }
    history.push_back(rec);
  };
  for (std::size_t c = 0; c < in_flight.size(); ++c) {
    service.add_client([&, c] {
      if (ops_budget == 0) return false;
      const std::size_t n = std::min<std::size_t>(1 + rng.below(4), ops_budget);
      ops_budget -= n;
      out.ops += n;
      TxnRecord& rec = in_flight[c];
      rec = TxnRecord{};
      rec.id = next_txn_id++;
      std::vector<service::TxnOp> ops;
      for (std::size_t i = 0; i < n; ++i) {
        const std::string& key = keys[rng.below(kKeys)];
        const std::uint64_t roll = rng.below(100);
        const Kind kind = roll < 45   ? Kind::kWrite
                          : roll < 75 ? Kind::kRead
                                      : Kind::kErase;
        const std::string value =
            kind == Kind::kWrite ? value_tag(rec.id, key) : "";
        rec.ops.push_back(TxnOpRec{kind, key, value, std::nullopt});
        ops.push_back({kind == Kind::kWrite  ? service::OpType::kPut
                       : kind == Kind::kRead ? service::OpType::kGet
                                             : service::OpType::kErase,
                       key, value});
      }
      service.submit_txn(c, ops, [&finish, c](service::TxnOutcome&& o) {
        finish(c, std::move(o));
      });
      return true;
    });
  }

  bool crashed = false;
  try {
    for (std::uint64_t steps = 1; service.step(); ++steps) {
      if (steps == kill_step) {
        crashed = true;
        break;
      }
    }
  } catch (const core::InjectedPowerLoss&) {
    crashed = true;
    if (armed == Phase::kAfterAbortRelease) ++out.abort_cuts;
  }
  if (crashed && service.acked_finalize_queued()) ++out.ack_cuts;

  if (!crashed) {
    service.shutdown();
    const SerializabilityVerdict verdict = check_serializability(history);
    CCNVM_CHECK_MSG(verdict.serializable, verdict.message.c_str());
    ++out.checks;

    std::map<std::string, std::string> final_state;
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      service.engine_store(s).for_each(
          [&](std::string_view k, std::string_view v) {
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
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      const store::StoreStats& st = service.engine_store(s).stats();
      fold_digest(out.digest, st.txn_commits);
      fold_digest(out.digest, st.txn_prepares);
    }
    return out;
  }

  // Crash path: power-cut every shard, recover, and reopen them in shard
  // order with the coordinator's decision line as resolver — what
  // crashd's txn verifier does out of process.
  for (core::SecureNvmBase* base : bases) {
    dynamic_cast<core::CcNvmDesign&>(*base).crash_power_loss();
  }
  ++out.crashes;
  for (core::SecureNvmBase* base : bases) {
    CCNVM_CHECK_MSG(base->recover().clean, "txn fuzz: recovery not clean");
    ++out.recoveries;
  }
  std::vector<store::SecureKvStore> reopened =
      audit::open_shard_stores(bases, cfg.store);

  // The KV crash oracle's model: every committed (acked) txn — `history`
  // holds exactly those, in commit order, beside the aborted ones — then
  // each admitted client's txn as its in-flight unit (admission is per
  // shard, so in-flight txns are key-disjoint).
  audit::KvModel model;
  for (const TxnRecord& t : history) {
    if (!t.committed) continue;
    model.submit(kv_unit(t));
    model.ack();
  }
  for (std::size_t c = 0; c < in_flight.size(); ++c) {
    if (service.admitted(c)) model.submit(kv_unit(in_flight[c]), c);
  }

  std::vector<audit::ReopenedStore> keyed(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) keyed[s].kv = &reopened[s];
  for (const std::string& key : keys) {
    keyed[service::ServiceCore::shard_of(key, cfg.shards)].keys.push_back(
        key);
  }
  // check_reopened checked every key, each in-flight txn and the stores'
  // live counts.
  const std::vector<std::optional<std::string>> reads =
      audit::check_reopened(model, keyed);
  out.checks += reads.size() + model.in_flight().size() + 1;
  for (const std::optional<std::string>& v : reads) {
    fold_digest(out.digest, v ? v->size() + 1 : 0);
  }
  for (auto& st : reopened) fold_digest(out.digest, st.size());
  return out;
}

}  // namespace ccnvm::fuzz::detail
