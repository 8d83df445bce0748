#include "service/service_bench.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <map>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nvm/file_backend.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"

namespace ccnvm::service {
namespace {

/// Deterministic value payload for (thread, key, version): the clients
/// and the replay model fabricate identical bytes from the same triple.
std::string value_for(std::uint64_t thread, std::uint64_t key_id,
                      std::uint64_t version, std::uint32_t bytes) {
  std::string v(bytes, '\0');
  const std::uint64_t tag = derive_seed(thread + 1, key_id, version);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(
        static_cast<std::uint8_t>(splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

void fold_fnv(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
  h *= 1099511628211ull;
}

std::string temp_dir(const std::string& requested) {
  if (!requested.empty()) return requested;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before any client threads
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
}

/// The engine setup both harnesses share. Each engine is sized for the
/// full keyspace: routing is hashed, so a shard can in principle see any
/// key, and slack is cheap here.
template <typename Options>
ServiceConfig bench_config(const Options& o, std::uint64_t keys,
                           std::uint32_t value_bytes, std::size_t txn_ops,
                           const std::string& tag) {
  ServiceConfig cfg;
  cfg.shards =
      o.service_shards != 0 ? o.service_shards : default_parallelism();
  cfg.commit = o.commit;
  cfg.kind = o.kind;
  cfg.store = store::StoreConfig::sized_for(keys, value_bytes, /*shards=*/1);
  cfg.store.txn_ops_capacity = txn_ops;
  cfg.design.data_capacity = store::capacity_for(cfg.store);
  // Group commit pays a media barrier per batch and leaves epoch drains
  // to the design's triggers: a tight update limit or DAQ would force
  // frequent drains (each an msync on durable media) on zipf-hammered
  // keys.
  cfg.design.update_limit = 1u << 20;
  cfg.design.daq_entries = 1024;
  cfg.design.wpq_entries = 1024;  // a drain batch must fit in the WPQ
  if (o.durable) {
    const std::string prefix = temp_dir(o.work_dir) + "/ccnvm-" + tag + "-" +
                               std::to_string(o.seed) + "-t" +
                               std::to_string(o.threads) + "-s";
    cfg.backend_factory = [prefix](std::size_t shard,
                                   std::uint64_t capacity_bytes) {
      // Unlinked right after create: durable while the process lives
      // (every barrier is a real msync), zero cleanup on exit.
      return nvm::FileBackend::create(
          prefix + std::to_string(shard), capacity_bytes,
          nvm::FileBackend::SyncMode::kBarrier, /*unlink_after_create=*/true);
    };
  }
  return cfg;
}

struct Client {
  std::map<std::string, std::string> model;
  std::string failure;
};

/// Load phase (untimed): thread t populates record ids [0, records) of its
/// key range, which starts at t * span.
void load(KvService& service, std::vector<Client>& clients,
          std::uint64_t span, std::uint64_t records,
          std::uint32_t value_bytes) {
  run_clients(clients.size(), [&](std::size_t t) {
    Client& c = clients[t];
    for (std::uint64_t id = 0; id < records; ++id) {
      const std::string key = trace::YcsbGenerator::key_name(t * span + id);
      std::string value = value_for(t, id, 0, value_bytes);
      if (!service.put(key, value).ok) {
        if (c.failure.empty()) c.failure = "load put rejected: " + key;
        return;
      }
      c.model[key] = std::move(value);
    }
  });
}

void record_timing(ServiceBenchResult& res, std::uint64_t ops,
                   std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  res.ops = ops;
  res.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  res.ops_per_sec =
      res.wall_seconds > 0.0 ? static_cast<double>(res.ops) / res.wall_seconds
                             : 0.0;
}

/// After shutdown: every engine must audit clean and hold exactly the
/// union of the clients' models, each key on its routed shard. Fills the
/// digest and `verified`; keeps the first failure already recorded.
void verify(KvService& service, const std::vector<Client>& clients,
            ServiceBenchResult& res) {
  std::map<std::string, std::string> expected;
  for (const Client& c : clients) {
    if (!c.failure.empty() && res.failure.empty()) res.failure = c.failure;
    expected.insert(c.model.begin(), c.model.end());
  }

  std::map<std::string, std::string> found;
  for (std::size_t s = 0; s < service.shards(); ++s) {
    if (!service.engine_base(s).audit_image().empty() && res.failure.empty()) {
      res.failure = "shard " + std::to_string(s) + " does not audit clean";
    }
    service.engine_store(s).for_each(
        [&](std::string_view key, std::string_view value) {
          if (KvService::shard_of(key, service.shards()) != s &&
              res.failure.empty()) {
            res.failure = "misrouted key: " + std::string(key);
          }
          found.emplace(std::string(key), std::string(value));
        });
  }
  if (res.failure.empty() && found != expected) {
    res.failure = "final store content diverges from the model";
  }

  for (const auto& [key, value] : expected) {
    fold_fnv(res.digest, key);
    fold_fnv(res.digest, value);
  }
  res.verified = res.failure.empty();
}

}  // namespace

void run_clients(std::size_t count,
                 const std::function<void(std::size_t)>& client) {
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      try {
        client(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

ServiceBenchResult run_service_ycsb(const ServiceBenchOptions& options) {
  CCNVM_CHECK_MSG(options.threads >= 1, "service bench: need >= 1 thread");
  CCNVM_CHECK_MSG(options.ops_per_thread >= 1 && options.records_per_thread >= 1,
                  "service bench: need records and ops");
  trace::YcsbWorkload workload = trace::ycsb_by_name(options.workload);
  workload.record_count = options.records_per_thread;
  workload.validate();

  // Disjoint per-thread key ranges: thread t owns record ids
  // [t*key_span, t*key_span + records + inserts). Insert headroom (an
  // insert count is bounded by ops_per_thread) is only reserved for
  // insert-bearing workloads — it inflates the store geometry, and a
  // bigger mapping makes every durable barrier's msync more expensive.
  const std::uint64_t key_span =
      options.records_per_thread +
      (workload.insert_prop > 0.0 ? options.ops_per_thread : 0);
  const std::uint64_t total_keys = options.threads * key_span;

  const ServiceConfig cfg = bench_config(options, total_keys,
                                         workload.value_bytes, 0, "svcbench");
  ServiceBenchResult res;
  KvService service(cfg);
  std::vector<Client> clients(options.threads);
  load(service, clients, key_span, options.records_per_thread,
       workload.value_bytes);

  // --- Timed phase: the YCSB op mix, one blocking client per thread. ---
  const auto t0 = std::chrono::steady_clock::now();
  run_clients(options.threads, [&](std::size_t t) {
    Client& c = clients[t];
    if (!c.failure.empty()) return;
    const std::uint64_t base = t * key_span;
    trace::YcsbGenerator gen(workload, derive_seed(options.seed, t, 0x51c));
    std::uint64_t version = 0;
    for (std::uint64_t i = 0; i < options.ops_per_thread; ++i) {
      const trace::KvOp op = gen.next();
      const std::string key = trace::YcsbGenerator::key_name(base + op.key_id);
      switch (op.type) {
        case trace::KvOpType::kRead: {
          const Result got = service.get(key);
          const auto it = c.model.find(key);
          const bool hit = it != c.model.end();
          if (got.ok != hit || (hit && got.value != it->second)) {
            if (c.failure.empty()) c.failure = "stale read: " + key;
            return;
          }
          break;
        }
        case trace::KvOpType::kReadModifyWrite:
          (void)service.get(key);
          [[fallthrough]];
        case trace::KvOpType::kUpdate:
        case trace::KvOpType::kInsert: {
          std::string value = value_for(t, op.key_id, ++version, op.value_bytes);
          if (!service.put(key, value).ok) {
            if (c.failure.empty()) c.failure = "put rejected: " + key;
            return;
          }
          c.model[key] = std::move(value);
          break;
        }
      }
    }
  });
  record_timing(res, options.threads * options.ops_per_thread, t0);

  // --- Quiesce, then verify the final state exactly. ---
  service.shutdown();
  res.stats = service.stats();
  verify(service, clients, res);
  return res;
}

ServiceBenchResult run_service_txn_mix(const TxnMixOptions& options) {
  CCNVM_CHECK_MSG(options.threads >= 1, "txn mix: need >= 1 thread");
  CCNVM_CHECK_MSG(options.records_per_thread >= 4 && options.txns_per_thread >= 1,
                  "txn mix: need records and txns");
  CCNVM_CHECK_MSG(options.read_prop >= 0.0 && options.read_prop <= 1.0,
                  "txn mix: read_prop out of range");
  const std::uint64_t total_keys = options.threads * options.records_per_thread;

  // Largest txn below is 4 keys; 8 journal slots leave erase headroom.
  const ServiceConfig cfg = bench_config(options, total_keys,
                                         options.value_bytes, 8, "txnbench");
  ServiceBenchResult res;
  KvService service(cfg);
  std::vector<Client> clients(options.threads);
  load(service, clients, options.records_per_thread,
       options.records_per_thread, options.value_bytes);

  // --- Timed phase: multi-key transactions, one blocking client each. ---
  const auto t0 = std::chrono::steady_clock::now();
  run_clients(options.threads, [&](std::size_t t) {
    Client& c = clients[t];
    if (!c.failure.empty()) return;
    const std::uint64_t base = t * options.records_per_thread;
    Rng rng(derive_seed(options.seed, t, 0x7a17));
    const std::uint64_t read_cut =
        static_cast<std::uint64_t>(options.read_prop * 1000.0);
    std::uint64_t version = 0;
    for (std::uint64_t i = 0; i < options.txns_per_thread; ++i) {
      // 2-4 DISTINCT keys: a contiguous run starting at a random record,
      // wrapping inside the thread's range (hash routing scatters them
      // across shards regardless of adjacency here).
      const std::uint64_t span = 2 + rng.below(3);
      const std::uint64_t first = rng.below(options.records_per_thread);
      const bool read_only = rng.below(1000) < read_cut;
      std::vector<TxnOp> ops;
      ops.reserve(span);
      ++version;
      for (std::uint64_t k = 0; k < span; ++k) {
        const std::uint64_t id = (first + k) % options.records_per_thread;
        const std::string key = trace::YcsbGenerator::key_name(base + id);
        if (read_only) {
          ops.push_back({OpType::kGet, key, ""});
        } else {
          ops.push_back({OpType::kPut, key,
                         value_for(t, id, version, options.value_bytes)});
        }
      }
      const TxnOutcome out = service.submit_txn(ops);
      if (!out.committed) {
        if (c.failure.empty()) {
          c.failure = "txn aborted (store sized so nothing may vote no)";
        }
        return;
      }
      for (std::uint64_t k = 0; k < span; ++k) {
        if (read_only) {
          const auto it = c.model.find(ops[k].key);
          const bool hit = it != c.model.end();
          const auto& got = out.results[k].value;
          if (got.has_value() != hit || (hit && *got != it->second)) {
            if (c.failure.empty()) c.failure = "stale txn read: " + ops[k].key;
            return;
          }
        } else {
          c.model[ops[k].key] = ops[k].value;
        }
      }
    }
  });
  record_timing(res, options.threads * options.txns_per_thread, t0);

  // --- Quiesce, then verify the final state exactly. ---
  service.shutdown();
  res.stats = service.stats();
  if (res.stats.failed_txns != 0 && res.failure.empty()) {
    res.failure = "aborted transactions in a mix sized to never abort";
  }
  // Key choice and routing are both deterministic, so the multi-shard
  // count is too: a sharded service that never exercised cross-shard
  // commit would make the headline number meaningless.
  if (service.shards() > 1 && res.stats.multi_shard_txns == 0 &&
      res.failure.empty()) {
    res.failure = "no transaction ever spanned more than one shard";
  }
  verify(service, clients, res);
  return res;
}

}  // namespace ccnvm::service
