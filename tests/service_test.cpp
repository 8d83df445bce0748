// Unit tests for the concurrent KV service (src/service/kv_service.h):
// model equivalence through the queue/drain path, the ack-after-barrier
// contract (observable through the stats counters), routing stability,
// shutdown semantics, and the bench harness's determinism guarantees.
#include "service/kv_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "service/seeded_service.h"
#include "service/service_bench.h"
#include "store/ycsb_runner.h"

namespace ccnvm::service {
namespace {

ServiceConfig small_config(std::size_t shards, std::size_t max_batch = 8,
                           std::uint32_t max_delay_us = 0) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.queue_capacity = 32;
  cfg.commit.max_batch = max_batch;
  cfg.commit.max_delay_us = max_delay_us;
  cfg.store = store::StoreConfig::sized_for(64, 96, /*shards=*/1);
  cfg.design.data_capacity = store::capacity_for(cfg.store);
  return cfg;
}

TEST(KvServiceTest, PutGetEraseMatchModel) {
  KvService service(small_config(2));
  std::map<std::string, std::string> model;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i % 12);
    const std::string value = "v" + std::to_string(i);
    EXPECT_TRUE(service.put(key, value).ok);
    model[key] = value;
    if (i % 5 == 4) {
      const std::string victim = "k" + std::to_string((i / 5) % 12);
      const Result erased = service.erase(victim);
      EXPECT_EQ(erased.ok, model.erase(victim) > 0);
    }
  }
  for (int i = 0; i < 12; ++i) {
    const std::string key = "k" + std::to_string(i);
    const Result got = service.get(key);
    const auto it = model.find(key);
    EXPECT_EQ(got.ok, it != model.end()) << key;
    if (it != model.end()) {
      ASSERT_TRUE(got.value.has_value());
      EXPECT_EQ(*got.value, it->second);
    }
  }
  service.shutdown();
}

TEST(KvServiceTest, EveryMutationIsCoveredByABarrierBeforeItsAck) {
  // after_barrier_hook fires after each group-commit barrier and before
  // any of that batch's acks. Blocking clients: when put() returns, its
  // ack has fired, so the covering barrier must already be visible.
  std::atomic<std::uint64_t> barriers_seen{0};
  ServiceConfig cfg = small_config(1);
  cfg.after_barrier_hook = [&barriers_seen] {
    barriers_seen.fetch_add(1, std::memory_order_relaxed);
  };
  KvService service(cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(service.put("key" + std::to_string(i), "value").ok);
    EXPECT_GE(barriers_seen.load(std::memory_order_relaxed), i + 1)
        << "ack fired before its barrier";
  }
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.mutations, 10u);
  EXPECT_EQ(s.barriers, 10u);  // one synchronous client: no amortization
  EXPECT_DOUBLE_EQ(s.amortization(), 1.0);
}

TEST(KvServiceTest, ReadOnlyBatchesSkipTheBarrier) {
  KvService service(small_config(1));
  ASSERT_TRUE(service.put("k", "v").ok);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(service.get("k").ok);
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.gets, 8u);
  EXPECT_EQ(s.barriers, 1u);  // only the put's batch paid a barrier
}

TEST(KvServiceTest, GroupCommitLeavesEpochDrainsToTheDesign) {
  // A dirty batch pays a media persist barrier, not an epoch drain: the
  // only explicit drain is shutdown's quiesce. Drains from the design's
  // own triggers (DAQ full, dirty eviction, update limit) still happen.
  KvService service(small_config(1));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(service.put("d" + std::to_string(i % 24), "v").ok);
  }
  service.shutdown();
  EXPECT_EQ(service.stats().barriers, 64u);
  EXPECT_EQ(service.engine_base(0).stats().drains_by_trigger[3], 1u);
  EXPECT_TRUE(service.engine_base(0).audit_image().empty());
}

TEST(KvServiceTest, UndrainedImageAtTheLastBarrierRecoversEveryAck) {
  // Power-cycle the engine exactly at its last group-commit barrier: the
  // image is undrained, so recovery must roll counters forward (§4.3),
  // and every acknowledged put must read back.
  struct Snapshot {
    nvm::NvmImage image;
    core::TcbRegisters tcb;
  };
  const ServiceConfig cfg = small_config(1);
  ServiceConfig hooked = cfg;
  std::optional<Snapshot> last;
  KvService* live = nullptr;
  // Runs on the drain thread, which owns the engine.
  hooked.after_barrier_hook = [&last, &live] {
    core::SecureNvmBase& base = live->engine_base(0);
    last.emplace(Snapshot{base.image().snapshot(), base.tcb()});
  };
  KvService service(hooked);
  live = &service;
  std::map<std::string, std::string> model;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "u" + std::to_string(i % 16);
    const std::string value = "value-" + std::to_string(i);
    ASSERT_TRUE(service.put(key, value).ok);
    model[key] = value;
  }
  service.shutdown();
  ASSERT_TRUE(last.has_value());

  std::unique_ptr<core::SecureNvmDesign> design = core::make_design(
      cfg.kind, KvService::engine_design_config(cfg, 0));
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  ASSERT_NE(base, nullptr);
  base->restore_from_power_down(std::move(last->image), last->tcb);
  const core::RecoveryReport report = base->recover();
  EXPECT_TRUE(report.clean) << report.detail;
  EXPECT_TRUE(report.metadata_recovered);
  EXPECT_GT(report.counters_recovered, 0u) << "the image was drained";

  store::SecureKvStore kv = store::SecureKvStore::open(*base, cfg.store);
  EXPECT_EQ(kv.size(), model.size());
  for (const auto& [key, value] : model) {
    EXPECT_EQ(kv.get(key), std::optional<std::string>(value)) << key;
  }
}

TEST(KvServiceTest, ShardOfIsStableAndCoversAllShards) {
  // Pinned expectations: the crashd service verifier reconstructs
  // routing from these values in a different process.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    std::vector<bool> hit(shards, false);
    for (int i = 0; i < 256; ++i) {
      const std::string key = "key-" + std::to_string(i);
      const std::size_t s = KvService::shard_of(key, shards);
      ASSERT_LT(s, shards);
      EXPECT_EQ(KvService::shard_of(key, shards), s);  // deterministic
      hit[s] = true;
    }
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_TRUE(hit[s]) << "shard " << s << " never routed to";
    }
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(KvService::shard_of("key-" + std::to_string(i), 1), 0u);
  }
}

TEST(KvServiceTest, EngineDesignConfigDecorrelatesKeySeeds) {
  ServiceConfig cfg = small_config(2);
  cfg.design.key_seed = 0x1234;
  // Shard 0 keeps the template seed (single-shard services match a bare
  // store); other shards derive distinct seeds.
  EXPECT_EQ(KvService::engine_design_config(cfg, 0).key_seed, 0x1234u);
  const std::uint64_t seed1 = KvService::engine_design_config(cfg, 1).key_seed;
  EXPECT_NE(seed1, 0x1234u);
  // Deterministic: the crashd verifier re-derives the same seeds.
  EXPECT_EQ(KvService::engine_design_config(cfg, 1).key_seed, seed1);
  // Other template fields pass through untouched.
  EXPECT_EQ(KvService::engine_design_config(cfg, 1).data_capacity,
            cfg.design.data_capacity);
}

TEST(KvServiceTest, KeysLandOnTheirRoutedShard) {
  KvService service(small_config(2));
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(service.put("route-" + std::to_string(i), "x").ok);
  }
  service.shutdown();
  // Post-quiesce: each engine holds exactly the keys that route to it.
  for (std::size_t s = 0; s < service.shards(); ++s) {
    service.engine_store(s).for_each(
        [&](std::string_view key, std::string_view) {
          EXPECT_EQ(KvService::shard_of(key, service.shards()), s)
              << "misrouted " << key;
        });
    EXPECT_TRUE(service.engine_base(s).audit_image().empty());
  }
}

TEST(KvServiceTest, ShutdownDrainsEverythingAndIsIdempotent) {
  ServiceConfig cfg = small_config(1, /*max_batch=*/4);
  KvService service(cfg);
  std::vector<std::future<Result>> pending;
  for (int i = 0; i < 16; ++i) {
    Request r;
    r.op = OpType::kPut;
    r.key = "sd" + std::to_string(i);
    r.value = "v";
    pending.push_back(service.submit(std::move(r)));
  }
  service.shutdown();
  service.shutdown();  // idempotent
  // Every submitted request was drained and acknowledged, none dropped.
  for (std::future<Result>& f : pending) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(service.stats().puts, 16u);
}

TEST(KvServiceTest, StragglerGapMatchesGreedyResults) {
  // The gap changes batching, never results: same final content either way.
  for (const std::uint32_t gap_us : {0u, 300u}) {
    KvService service(small_config(1, /*max_batch=*/8, gap_us));
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(service.put("g" + std::to_string(i % 7), "v" +
                              std::to_string(i)).ok);
    }
    for (int i = 0; i < 7; ++i) {
      const Result got = service.get("g" + std::to_string(i));
      ASSERT_TRUE(got.ok);
      // Last write to g<i> is the highest j < 20 with j % 7 == i.
      const int last = i + ((19 - i) / 7) * 7;
      EXPECT_EQ(*got.value, "v" + std::to_string(last));
    }
    service.shutdown();
  }
}

ServiceConfig txn_config(std::size_t shards, std::size_t max_batch = 8) {
  ServiceConfig cfg = small_config(shards, max_batch);
  cfg.store.txn_ops_capacity = 8;
  cfg.design.data_capacity = store::capacity_for(cfg.store);
  return cfg;
}

/// A key of the form "<prefix><i>" routing to service shard `want`.
std::string key_on_shard(std::size_t shards, std::size_t want,
                         const std::string& prefix) {
  for (int i = 0;; ++i) {
    const std::string key = prefix + std::to_string(i);
    if (KvService::shard_of(key, shards) == want) return key;
  }
}

TEST(KvServiceTxnTest, SubmitTxnRequiresAJournal) {
  const CheckThrowScope throw_scope;
  KvService service(small_config(1));
  EXPECT_THROW(service.submit_txn({{OpType::kPut, "k", "v"}}), CheckFailure);
  service.shutdown();
}

TEST(KvServiceTxnTest, MultiShardTxnCommitsAtomically) {
  KvService service(txn_config(2));
  const std::string ka = key_on_shard(2, 0, "a-");
  const std::string kb = key_on_shard(2, 1, "b-");
  const TxnOutcome out = service.submit_txn({
      {OpType::kPut, ka, "va"},
      {OpType::kPut, kb, "vb"},
  });
  EXPECT_TRUE(out.committed);
  ASSERT_EQ(out.results.size(), 2u);
  EXPECT_TRUE(out.results[0].ok);
  EXPECT_TRUE(out.results[1].ok);
  EXPECT_EQ(*service.get(ka).value, "va");
  EXPECT_EQ(*service.get(kb).value, "vb");
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.txns, 1u);
  EXPECT_EQ(s.multi_shard_txns, 1u);
  EXPECT_EQ(s.failed_txns, 0u);
}

TEST(KvServiceTxnTest, ReadYourWritesInsideTheTxn) {
  KvService service(txn_config(2));
  ASSERT_TRUE(service.put("old", "committed").ok);
  const TxnOutcome out = service.submit_txn({
      {OpType::kGet, "old", ""},       // committed state
      {OpType::kPut, "old", "newer"},  // buffered
      {OpType::kGet, "old", ""},       // must see the buffer
      {OpType::kErase, "old", ""},
      {OpType::kGet, "old", ""},       // buffered erase: a miss
  });
  ASSERT_TRUE(out.committed);
  ASSERT_EQ(out.results.size(), 5u);
  EXPECT_EQ(*out.results[0].value, "committed");
  EXPECT_EQ(*out.results[2].value, "newer");
  EXPECT_TRUE(out.results[3].ok);
  EXPECT_FALSE(out.results[4].ok);
  EXPECT_FALSE(service.get("old").ok);
  service.shutdown();
}

TEST(KvServiceTxnTest, OneVoteNoAbortsEveryShard) {
  KvService service(txn_config(2));
  const std::string ka = key_on_shard(2, 0, "ok-");
  const std::string kb = key_on_shard(2, 1, "bad-");
  // The oversized value makes kb's shard vote no at prepare.
  const TxnOutcome out = service.submit_txn({
      {OpType::kPut, ka, "fine"},
      {OpType::kPut, kb, std::string(70000, 'x')},
  });
  EXPECT_FALSE(out.committed);
  EXPECT_FALSE(service.get(ka).ok) << "aborted txn leaked a write";
  EXPECT_FALSE(service.get(kb).ok);
  // The journals are released: the next txn commits normally.
  EXPECT_TRUE(service.submit_txn({{OpType::kPut, ka, "v2"}}).committed);
  EXPECT_EQ(*service.get(ka).value, "v2");
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.failed_txns, 1u);
  EXPECT_EQ(s.txns, 1u);
}

TEST(KvServiceTxnTest, TxnSubOpsShareOneBarrierPerShardPerWave) {
  // Three puts on one shard as singles: three barriers. As one txn: the
  // prepare batch pays ONE barrier for all three (plus one for the
  // decide/finalize batch) — the group-commit amortization the txn path
  // inherits.
  KvService service(txn_config(1));
  ASSERT_TRUE(service
                  .submit_txn({{OpType::kPut, "t0", "v"},
                               {OpType::kPut, "t1", "v"},
                               {OpType::kPut, "t2", "v"}})
                  .committed);
  service.shutdown();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.barriers, 2u) << "prepare + decide, one barrier each";
  EXPECT_EQ(s.txns, 1u);
  EXPECT_EQ(s.multi_shard_txns, 0u);
}

TEST(KvServiceTxnTest, ReadOnlyTxnsSkipEveryBarrier) {
  KvService service(txn_config(2));
  ASSERT_TRUE(service.put("r", "v").ok);
  const ServiceStats before = service.stats();
  const TxnOutcome out = service.submit_txn({
      {OpType::kGet, "r", ""},
      {OpType::kGet, "absent", ""},
  });
  ASSERT_TRUE(out.committed);
  EXPECT_EQ(*out.results[0].value, "v");
  EXPECT_FALSE(out.results[1].ok);
  service.shutdown();
  EXPECT_EQ(service.stats().barriers, before.barriers);
}

TEST(KvServiceTxnTest, WaveHooksFireInOrderForMutatingTxnsOnly) {
  ServiceConfig cfg = txn_config(2);
  std::vector<int> waves;
  cfg.txn_wave_hook = [&waves](int wave, std::size_t participants) {
    EXPECT_GE(participants, 1u);
    waves.push_back(wave);
  };
  KvService service(cfg);
  ASSERT_TRUE(service.submit_txn({{OpType::kGet, "x", ""}}).committed);
  EXPECT_TRUE(waves.empty()) << "read-only txns have no commit waves";
  ASSERT_TRUE(
      service.submit_txn({{OpType::kPut, "x", "v"}}).committed);
  EXPECT_EQ(waves, (std::vector<int>{0, 1, 2}));
  service.shutdown();
}

TEST(KvServiceTxnTest, EmptyTxnCommitsTrivially) {
  KvService service(txn_config(1));
  const TxnOutcome out = service.submit_txn({});
  EXPECT_TRUE(out.committed);
  EXPECT_TRUE(out.results.empty());
  service.shutdown();
  EXPECT_EQ(service.stats().txns, 0u);
}

// The txn step machine's action order, traced on the seeded driver (one
// client, no threads): "admit 0 1", "prepare 0 1", ..., "release 0 1".
struct TxnTrace {
  std::vector<std::string> actions;
  TxnOutcome outcome;
  std::uint64_t barriers = 0;
};

TxnTrace trace_txn(const ServiceConfig& cfg, const std::vector<TxnOp>& ops) {
  SeededService service(cfg, /*schedule_seed=*/3);
  TxnTrace trace;
  service.on_action = [&trace](std::size_t, const TxnAction& a) {
    std::string line;
    switch (a.kind) {
      case TxnAction::Kind::kAdmit:
        line = "admit";
        break;
      case TxnAction::Kind::kWave:
        line = a.requests[0].op == OpType::kTxnPrepare    ? "prepare"
               : a.requests[0].op == OpType::kTxnDecide   ? "decide"
               : a.requests[0].op == OpType::kTxnFinalize ? "finalize"
                                                          : "abort";
        break;
      case TxnAction::Kind::kRelease:
        line = "release";
        break;
      case TxnAction::Kind::kDone:
        line = "done";
        break;
    }
    for (std::size_t s : a.shards) line += " " + std::to_string(s);
    trace.actions.push_back(line);
  };
  bool submitted = false;
  service.add_client([&] {
    if (submitted) return false;
    submitted = true;
    service.submit_txn(0, ops, [&trace](TxnOutcome&& o) {
      trace.outcome = std::move(o);
    });
    return true;
  });
  service.shutdown();
  trace.barriers = service.stats().barriers;
  return trace;
}

TEST(TxnStepOrderTest, MutatingTxnReleasesOnlyAfterTheLastFinalize) {
  const TxnTrace t =
      trace_txn(txn_config(2), {{OpType::kPut, key_on_shard(2, 1, "b-"), "b"},
                                {OpType::kPut, key_on_shard(2, 0, "a-"), "a"}});
  EXPECT_TRUE(t.outcome.committed);
  EXPECT_EQ(t.actions,
            (std::vector<std::string>{"admit 0 1", "prepare 0 1", "decide 0",
                                      "finalize 1", "release 0 1"}));
  EXPECT_EQ(t.barriers, 4u) << "prepare on both shards, decide, finalize";
}

TEST(TxnStepOrderTest, ReadOnlyTxnStopsAfterPrepareWithNoBarrier) {
  const TxnTrace t =
      trace_txn(txn_config(2), {{OpType::kGet, key_on_shard(2, 0, "a-"), ""},
                                {OpType::kGet, key_on_shard(2, 1, "b-"), ""}});
  EXPECT_TRUE(t.outcome.committed);
  EXPECT_EQ(t.actions, (std::vector<std::string>{"admit 0 1", "prepare 0 1",
                                                 "release 0 1"}));
  EXPECT_EQ(t.barriers, 0u);
}

TEST(TxnStepOrderTest, NoVoteAbortsOnlyTheYesVotingMutatingShards) {
  // Shard 0 only reads, shard 1 stages a put, shard 2's oversized value
  // votes no: only shard 1 has a journal to roll back.
  const TxnTrace t = trace_txn(
      txn_config(3),
      {{OpType::kGet, key_on_shard(3, 0, "a-"), ""},
       {OpType::kPut, key_on_shard(3, 1, "b-"), "fine"},
       {OpType::kPut, key_on_shard(3, 2, "c-"), std::string(70000, 'x')}});
  EXPECT_FALSE(t.outcome.committed);
  EXPECT_EQ(t.actions,
            (std::vector<std::string>{"admit 0 1 2", "prepare 0 1 2",
                                      "abort 1", "release 0 1 2"}));
}

TEST(ServiceBenchTest, DigestIsDeterministicAndThreadCountInvariant) {
  ServiceBenchOptions opts;
  opts.threads = 2;
  opts.service_shards = 2;
  opts.records_per_thread = 32;
  opts.ops_per_thread = 48;
  opts.commit.max_delay_us = 0;
  const ServiceBenchResult a = run_service_ycsb(opts);
  ASSERT_TRUE(a.verified) << a.failure;
  const ServiceBenchResult b = run_service_ycsb(opts);
  ASSERT_TRUE(b.verified) << b.failure;
  // Same options -> bit-identical final state regardless of scheduling.
  EXPECT_EQ(a.digest, b.digest);
  // A different shard fan-out re-routes but must not change content.
  ServiceBenchOptions reshard = opts;
  reshard.service_shards = 1;
  const ServiceBenchResult c = run_service_ycsb(reshard);
  ASSERT_TRUE(c.verified) << c.failure;
  EXPECT_EQ(a.digest, c.digest);
}

TEST(ServiceBenchTest, EveryClientIsLiveAtOnce) {
  // Clients are blocking actors, not compute: all eight must be running
  // at the same time, whatever the core count. Each one waits at an
  // eight-party rendezvous before its first request; clients queued
  // behind a core-capped pool would never all arrive and the wait would
  // time out.
  constexpr std::size_t kClients = 8;
  KvService service(small_config(2));
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<int> met(kClients, 0);
  std::vector<int> acked(kClients, 0);
  run_clients(kClients, [&](std::size_t t) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      met[t] = cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return arrived == kClients; })
                   ? 1
                   : 0;
    }
    const std::string key = "client-" + std::to_string(t);
    acked[t] = service.put(key, key).ok ? 1 : 0;
  });
  for (std::size_t t = 0; t < kClients; ++t) {
    EXPECT_EQ(met[t], 1) << "client " << t << " never saw all eight live";
    EXPECT_EQ(acked[t], 1) << "client " << t;
  }
  service.shutdown();
}

TEST(ServiceBenchTest, StatsAccountForEveryRequest) {
  ServiceBenchOptions opts;
  opts.threads = 3;
  opts.service_shards = 2;
  opts.records_per_thread = 24;
  opts.ops_per_thread = 40;
  opts.commit.max_delay_us = 0;
  const ServiceBenchResult r = run_service_ycsb(opts);
  ASSERT_TRUE(r.verified) << r.failure;
  EXPECT_EQ(r.ops, 3u * 40u);
  // Load puts + timed ops (RMW issues a get and a put per op).
  EXPECT_GE(r.stats.batched_ops, r.ops + 3u * 24u);
  EXPECT_EQ(r.stats.batched_ops, r.stats.queue_pushed);
  EXPECT_EQ(r.stats.failed_puts, 0u);
  EXPECT_GE(r.stats.amortization(), 1.0);
}

}  // namespace
}  // namespace ccnvm::service
