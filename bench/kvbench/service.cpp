// The four service workloads: kv-a-1c, kv-b-large, kv-a-open, txn-2pc.
//
// Each run builds the service the way `ccnvm kv serve` does (shipped
// group-commit policy, cc-NVM with update_limit 2^20 and 1024-entry
// DAQ/WPQ), loads it, warms it up, then drives it from the bench's own
// seeded generators for the timed window and verifies the final content
// against the per-client models.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "layers.h"
#include "nvm/file_backend.h"
#include "service/service_bench.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"

namespace kvbench {
namespace {

using namespace ccnvm;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kUnbounded = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kReplayCapPerClient = 6000;

/// What one client (or the open-loop generator/collector pair) did in one
/// phase.
struct ClientLog {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string failure;
  std::vector<double> lat_us;
  std::vector<std::uint8_t> is_write;
  std::vector<double> late_us;
  std::uint64_t user_bytes = 0;  // key + value of acknowledged writes
  std::uint64_t steps = 0;       // sequential service round trips
  std::vector<Push> pushes;      // traced phase only
  std::vector<ReplayOp> replay;  // traced phase only
  // Open loop.
  std::uint64_t scheduled = 0;
  std::int64_t first_due = 0, last_due = 0, first_wake = 0, last_wake = 0;

  void fail(const std::string& what) {
    ++failed;
    if (failure.empty()) failure = what;
  }
};

struct Phase {
  std::int64_t deadline = kNever;
  std::uint64_t budget = kUnbounded;  // client requests across clients
  bool record = false;                // keep latencies
  bool traced = false;                // keep push records, spans, replay ops
};

struct Client {
  std::unique_ptr<trace::YcsbGenerator> gen;  // kv shapes
  Rng rng{0};                                 // txn shape
  std::unordered_map<std::string, std::string> model;
  std::uint64_t version = 0;
};

struct Probes {
  std::vector<NvmCounters> nvm;
  std::vector<DrainObserver> drains;
};

/// One set-up service with its clients. Members are destroyed in reverse
/// order, so the service (whose backends and observers point into probes)
/// goes first.
struct Rig {
  const Spec* spec = nullptr;
  std::uint64_t records_per_client = 0;
  std::uint32_t value_bytes = 0;
  service::ServiceConfig cfg;
  std::unique_ptr<Probes> probes;
  std::unique_ptr<service::KvService> svc;
  std::vector<Client> clients;
  Rng arrivals{0};
  std::uint64_t requests = 0;  // load + warm-up requests issued
  std::uint64_t failed = 0;
  std::string failure;
};

// 2PC wave stamps of the calling client's current transaction.
thread_local std::int64_t tl_wave[3] = {-1, -1, -1};

std::string key_of(const Rig& rig, std::size_t client, std::uint64_t id) {
  return trace::YcsbGenerator::key_name(client * rig.records_per_client + id);
}

void closed_client(Rig& rig, std::size_t c, const Phase& ph,
                   std::uint64_t budget, ClientLog& log) {
  Client& cl = rig.clients[c];
  std::int64_t last = now_ns();
  while (log.ops < budget && now_ns() < ph.deadline) {
    const trace::KvOp op = cl.gen->next();
    const std::string key = key_of(rig, c, op.key_id);
    const bool write = op.type != trace::KvOpType::kRead;
    std::string value;
    if (write) value = value_for(c, op.key_id, ++cl.version, op.value_bytes);
    const std::int64_t t0 = now_ns();
    const service::Result r =
        write ? rig.svc->put(key, value) : rig.svc->get(key);
    const std::int64_t t1 = now_ns();
    ++log.ops;
    ++log.steps;
    if (write) {
      if (r.ok) {
        log.user_bytes += key.size() + value.size();
        cl.model[key] = value;
      } else {
        log.fail("put rejected: " + key);
      }
    } else {
      const auto it = cl.model.find(key);
      if (it == cl.model.end() || !r.ok || r.value != it->second) {
        log.fail("stale read: " + key);
      }
    }
    if (ph.record) {
      log.lat_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      log.is_write.push_back(write ? 1 : 0);
      log.late_us.push_back(static_cast<double>(t0 - last) / 1e3);
    }
    if (ph.traced) {
      log.pushes.push_back({service::KvService::shard_of(key, rig.cfg.shards),
                            t0, t1, write ? 1u : 0u, write ? 0u : 1u, t0, 0});
      span(write ? "client.put" : "client.get", t0, t1);
      if (log.replay.size() < kReplayCapPerClient) {
        log.replay.push_back({write, true, key, value});
      }
    }
    last = t1;
  }
}

void txn_client(Rig& rig, std::size_t c, const Phase& ph, std::uint64_t budget,
                ClientLog& log) {
  Client& cl = rig.clients[c];
  const std::size_t shards = rig.cfg.shards;
  const service::TxnMixOptions mix;
  const auto read_cut = static_cast<std::uint64_t>(mix.read_prop * 1000.0);
  std::int64_t last = now_ns();
  while (log.ops < budget && now_ns() < ph.deadline) {
    // 2-4 distinct keys: a contiguous run of the client's records, as the
    // service's own txn mix draws them.
    const std::uint64_t n = 2 + cl.rng.below(3);
    const std::uint64_t first = cl.rng.below(rig.records_per_client);
    const bool read_only = cl.rng.below(1000) < read_cut;
    ++cl.version;
    std::vector<service::TxnOp> ops;
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t id = (first + k) % rig.records_per_client;
      if (read_only) {
        ops.push_back({service::OpType::kGet, key_of(rig, c, id), ""});
      } else {
        ops.push_back({service::OpType::kPut, key_of(rig, c, id),
                       value_for(c, id, cl.version, rig.value_bytes)});
      }
    }
    tl_wave[0] = tl_wave[1] = tl_wave[2] = -1;
    const std::int64_t t0 = now_ns();
    const service::TxnOutcome out = rig.svc->submit_txn(ops);
    const std::int64_t t1 = now_ns();
    ++log.ops;
    log.steps += read_only ? 1 : 3;  // prepare [, decide, finalize] waves
    if (!out.committed) {
      log.fail("txn aborted");
    } else {
      for (std::size_t k = 0; k < ops.size(); ++k) {
        if (read_only) {
          const auto it = cl.model.find(ops[k].key);
          if (it == cl.model.end() || out.results[k].value != it->second) {
            log.fail("stale txn read: " + ops[k].key);
          }
        } else {
          cl.model[ops[k].key] = ops[k].value;
          log.user_bytes += ops[k].key.size() + ops[k].value.size();
        }
      }
    }
    if (ph.record) {
      log.lat_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      log.is_write.push_back(read_only ? 0 : 1);
      log.late_us.push_back(static_cast<double>(t0 - last) / 1e3);
    }
    if (ph.traced) {
      // Every touched shard gets one prepare; a mutating txn then sends a
      // decide to the coordinator (lowest touched shard) and a finalize to
      // the others. Wave pushes follow the client-side wave stamps.
      std::vector<std::uint32_t> puts(shards, 0), gets(shards, 0);
      for (const service::TxnOp& op : ops) {
        const std::size_t s = service::KvService::shard_of(op.key, shards);
        (read_only ? gets : puts)[s] += 1;
      }
      const std::int64_t w0 = tl_wave[0] >= 0 ? tl_wave[0] : t1;
      const std::int64_t w1 = tl_wave[1] >= 0 ? tl_wave[1] : t1;
      const std::int64_t w2 = tl_wave[2] >= 0 ? tl_wave[2] : t1;
      std::size_t coordinator = shards;
      for (std::size_t s = 0; s < shards; ++s) {
        if (puts[s] + gets[s] == 0) continue;
        if (coordinator == shards) coordinator = s;
        log.pushes.push_back(
            {s, t0, read_only ? t1 : w0, puts[s], gets[s], w0, 0});
      }
      span("client.txn", t0, t1);
      if (!read_only) {
        log.pushes.push_back({coordinator, w0, w1, 0, 0, w0, 1});
        for (std::size_t s = coordinator + 1; s < shards; ++s) {
          if (puts[s] != 0) log.pushes.push_back({s, w1, w2, 0, 0, w0, 2});
        }
        span("txn.prepare", t0, w0);
        span("txn.decide", w0, w1);
        span("txn.finalize", w1, w2);
      }
      for (std::size_t k = 0; k < ops.size(); ++k) {
        if (log.replay.size() >= kReplayCapPerClient) break;
        log.replay.push_back(
            {!read_only, k + 1 == ops.size(), ops[k].key, ops[k].value});
      }
    }
    last = t1;
  }
}

/// Open loop: this thread issues requests at seeded Poisson arrival times
/// regardless of completions; a collector thread waits for the acks in
/// order (one shard, so acks arrive in submission order). Latency counts
/// from each request's due time.
void open_loop(Rig& rig, const Phase& ph, ClientLog& log) {
  Client& cl = rig.clients[0];
  struct Pending {
    std::future<service::Result> fut;
    std::int64_t due = 0;
    std::int64_t sent = 0;
    bool write = false;
    std::string key;
    std::string value;  // write: what was sent; read: what must come back
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;  // guarded by mu
  bool closed = false;        // guarded by mu
  ClientLog col;              // owned by the collector until joined

  std::thread collector([&] {
    thread_log().label = "collector";
    try {
      while (true) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        const service::Result r = p.fut.get();
        const std::int64_t wake = now_ns();
        if (col.ops++ == 0) col.first_wake = wake;
        ++col.steps;
        col.last_wake = wake;
        if (p.write) {
          if (r.ok) {
            col.user_bytes += p.key.size() + p.value.size();
          } else {
            col.fail("put rejected: " + p.key);
          }
        } else if (!r.ok || r.value != p.value) {
          col.fail("stale read: " + p.key);
        }
        if (ph.record) {
          col.lat_us.push_back(static_cast<double>(wake - p.due) / 1e3);
          col.is_write.push_back(p.write ? 1 : 0);
        }
        if (ph.traced) {
          col.pushes.push_back({0, p.sent, wake, p.write ? 1u : 0u,
                                p.write ? 0u : 1u, p.sent, 0});
          span(p.write ? "client.put" : "client.get", p.sent, wake);
          if (col.replay.size() < kReplayCapPerClient) {
            col.replay.push_back(
                {p.write, true, p.key, p.write ? p.value : ""});
          }
        }
      }
    } catch (const std::exception& e) {
      col.fail(std::string("collector: ") + e.what());
    }
  });

  std::uint64_t n = 0;
  try {
    std::int64_t due = now_ns();
    while (n < ph.budget) {
      const double gap_s =
          -std::log1p(-rig.arrivals.uniform()) / rig.spec->rate;
      due += static_cast<std::int64_t>(gap_s * 1e9);
      if (due > ph.deadline) break;
      if (n == 0) log.first_due = due;
      log.last_due = due;
      const std::int64_t wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));

      const trace::KvOp op = cl.gen->next();
      Pending p;
      p.due = due;
      p.key = key_of(rig, 0, op.key_id);
      p.write = op.type != trace::KvOpType::kRead;
      service::Request req;
      req.op = p.write ? service::OpType::kPut : service::OpType::kGet;
      req.key = p.key;
      if (p.write) {
        p.value = value_for(0, op.key_id, ++cl.version, op.value_bytes);
        req.value = p.value;
        // One FIFO shard: every later read is applied after this write.
        cl.model[p.key] = p.value;
      } else {
        p.value = cl.model[p.key];
      }
      p.sent = now_ns();
      if (ph.record) {
        log.late_us.push_back(static_cast<double>(p.sent - due) / 1e3);
      }
      p.fut = rig.svc->submit(std::move(req));
      {
        const std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(p));
      }
      cv.notify_one();
      ++n;
    }
  } catch (const std::exception& e) {
    log.fail(std::string("generator: ") + e.what());
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  collector.join();

  log.scheduled = n;
  log.ops = col.ops;
  log.steps = col.steps;
  log.failed += col.failed;
  if (log.failure.empty()) log.failure = col.failure;
  log.lat_us = std::move(col.lat_us);
  log.is_write = std::move(col.is_write);
  log.user_bytes = col.user_bytes;
  log.pushes = std::move(col.pushes);
  log.replay = std::move(col.replay);
  log.first_wake = col.first_wake;
  log.last_wake = col.last_wake;
}

std::vector<ClientLog> run_phase(Rig& rig, const Phase& ph) {
  const std::size_t n = rig.clients.size();
  std::vector<ClientLog> logs(n);
  if (rig.spec->shape == Shape::kOpen) {
    open_loop(rig, ph, logs[0]);
    return logs;
  }
  const auto body = [&](std::size_t c) {
    const std::uint64_t budget =
        ph.budget == kUnbounded ? kUnbounded
                                : ph.budget / n + (c < ph.budget % n ? 1 : 0);
    try {
      if (rig.spec->shape == Shape::kTxn) {
        txn_client(rig, c, ph, budget, logs[c]);
      } else {
        closed_client(rig, c, ph, budget, logs[c]);
      }
    } catch (const std::exception& e) {
      logs[c].fail(std::string("client: ") + e.what());
    }
  };
  // Client 0 runs on this thread, so clients + drain workers never
  // exceed the workload's stated thread count.
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < n; ++c) {
    threads.emplace_back([&body, c] {
      thread_log().label = "client-" + std::to_string(c);
      body(c);
    });
  }
  thread_log().label = "client-0";
  body(0);
  for (std::thread& t : threads) t.join();
  return logs;
}

std::unique_ptr<Rig> build_rig(const Spec& spec, const Options& o,
                               bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->spec = &spec;
  const std::uint64_t records = o.records != 0 ? o.records : spec.records;
  rig->records_per_client = records / spec.clients;
  rig->value_bytes = spec.shape == Shape::kTxn
                         ? service::TxnMixOptions{}.value_bytes
                         : trace::ycsb_by_name(spec.ycsb).value_bytes;

  service::ServiceConfig& cfg = rig->cfg;
  cfg.shards = spec.shards;
  cfg.commit = service::ServiceBenchOptions{}.commit;
  cfg.kind = core::DesignKind::kCcNvm;
  cfg.store = store::StoreConfig::sized_for(
      rig->records_per_client * spec.clients, rig->value_bytes, /*shards=*/1);
  if (spec.shape == Shape::kTxn) cfg.store.txn_ops_capacity = 8;
  cfg.design.data_capacity = store::capacity_for(cfg.store);
  cfg.design.update_limit = 1u << 20;
  cfg.design.daq_entries = 1024;
  cfg.design.wpq_entries = 1024;

  if (traced) {
    rig->probes = std::make_unique<Probes>();
    rig->probes->nvm.resize(spec.shards);
    rig->probes->drains.resize(spec.shards);
    cfg.after_apply_hook = on_after_apply;
    cfg.after_barrier_hook = on_after_barrier;
    cfg.txn_wave_hook = [](int wave, std::size_t) {
      if (tracing() && wave >= 0 && wave < 3) tl_wave[wave] = now_ns();
    };
  }
  if (spec.durable || traced) {
    const std::string prefix = o.work_dir + "/kvbench-" + spec.name + "-" +
                               std::to_string(::getpid()) + "-s";
    Probes* probes = rig->probes.get();
    const bool durable = spec.durable;
    cfg.backend_factory =
        [prefix, probes, durable](
            std::size_t shard,
            std::uint64_t capacity) -> std::unique_ptr<nvm::Backend> {
      std::unique_ptr<nvm::Backend> media;
      if (durable) {
        // Unlinked at once: durable while the process lives, every
        // barrier a real msync + fsync, nothing left behind.
        media = nvm::FileBackend::create(prefix + std::to_string(shard),
                                         capacity,
                                         nvm::FileBackend::SyncMode::kBarrier,
                                         /*unlink_after_create=*/true);
      } else {
        media = std::make_unique<nvm::MapBackend>();
      }
      if (probes == nullptr) return media;
      return std::make_unique<TimingBackend>(std::move(media),
                                             &probes->nvm[shard]);
    };
  }
  rig->svc = std::make_unique<service::KvService>(cfg);

  rig->clients.resize(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    Client& cl = rig->clients[c];
    if (spec.shape == Shape::kTxn) {
      cl.rng = Rng(derive_seed(o.seed, c, 0x7a17));
    } else {
      trace::YcsbWorkload w = trace::ycsb_by_name(spec.ycsb);
      w.record_count = rig->records_per_client;
      w.zipf_theta = spec.zipf_theta;
      cl.gen = std::make_unique<trace::YcsbGenerator>(
          w, derive_seed(o.seed, c, 0x6b76));
    }
  }
  rig->arrivals = Rng(derive_seed(o.seed, 0xa771));

  // Load straight into each engine's store (the service allows it before
  // any traffic), then checkpoint: the service path would pay one
  // batch-close wait per record.
  for (std::size_t c = 0; c < spec.clients; ++c) {
    for (std::uint64_t id = 0; id < rig->records_per_client; ++id) {
      const std::string key = key_of(*rig, c, id);
      std::string value = value_for(c, id, 0, rig->value_bytes);
      const std::size_t s = service::KvService::shard_of(key, cfg.shards);
      ++rig->requests;
      if (!rig->svc->engine_store(s).put(key, value)) {
        ++rig->failed;
        if (rig->failure.empty()) rig->failure = "load put rejected: " + key;
        continue;
      }
      rig->clients[c].model[key] = std::move(value);
    }
  }
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    rig->svc->engine_store(s).checkpoint();
    if (traced) {
      rig->svc->engine_base(s).attach_observer(&rig->probes->drains[s]);
    }
  }

  Phase warm;
  warm.budget = o.warmup != 0 ? o.warmup : spec.warmup;
  for (const ClientLog& log : run_phase(*rig, warm)) {
    rig->requests += log.ops;
    rig->failed += log.failed;
    if (rig->failure.empty()) rig->failure = log.failure;
  }
  return rig;
}

/// Shuts the service down and holds its final state to the models: every
/// shard audits clean, every key lives on its routed shard with its last
/// acknowledged value, and no key is missing.
void verify(Rig& rig, const Options& o, Report& rep) {
  service::KvService& svc = *rig.svc;
  svc.shutdown();
  auto& model0 = rig.clients[0].model;
  if (o.corrupt_model && !model0.empty()) {
    auto victim = std::min_element(
        model0.begin(), model0.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    victim->second[0] = static_cast<char>(victim->second[0] ^ 1);
  }
  std::unordered_map<std::string, const std::string*> expected;
  for (const Client& cl : rig.clients) {
    for (const auto& [key, value] : cl.model) expected.emplace(key, &value);
  }
  std::uint64_t matched = 0;
  for (std::size_t s = 0; s < svc.shards(); ++s) {
    if (!svc.engine_base(s).audit_image().empty()) {
      rep.fail("shard " + std::to_string(s) + " does not audit clean");
    }
    svc.engine_store(s).for_each([&](std::string_view key,
                                     std::string_view value) {
      if (service::KvService::shard_of(key, svc.shards()) != s) {
        rep.fail("misrouted key: " + std::string(key));
      }
      const auto it = expected.find(std::string(key));
      if (it == expected.end() || *it->second != value) {
        rep.fail("final content diverges from the model at " +
                 std::string(key));
      } else {
        ++matched;
      }
    });
  }
  if (matched < expected.size()) {
    rep.fail("keys missing from the store", expected.size() - matched);
  }
  std::vector<std::pair<std::string_view, const std::string*>> sorted(
      expected.begin(), expected.end());
  std::sort(sorted.begin(), sorted.end());
  rep.digest = kFnvBasis;
  for (const auto& [key, value] : sorted) {
    fold_fnv(rep.digest, key);
    fold_fnv(rep.digest, *value);
  }
}

struct Collected {
  std::uint64_t ops = 0;
  std::uint64_t steps = 0;
  std::uint64_t user_bytes = 0;
  std::vector<double> lat_us, get_us, put_us, late_us;
};

Collected collect(const std::vector<ClientLog>& logs, Report& rep) {
  Collected out;
  for (const ClientLog& log : logs) {
    out.ops += log.ops;
    out.steps += log.steps;
    out.user_bytes += log.user_bytes;
    rep.attempted += log.ops;
    if (log.failed != 0) rep.fail(log.failure, log.failed);
    for (std::size_t i = 0; i < log.lat_us.size(); ++i) {
      out.lat_us.push_back(log.lat_us[i]);
      (log.is_write[i] != 0 ? out.put_us : out.get_us).push_back(log.lat_us[i]);
    }
    out.late_us.insert(out.late_us.end(), log.late_us.begin(),
                       log.late_us.end());
  }
  return out;
}

/// Latency context beside the gated p50: per op type, and the tails.
void latency_detail(const Collected& c, const std::string& prefix,
                    Report& rep) {
  const auto add = [&](const std::string& name, const std::vector<double>& v) {
    rep.detail[prefix + name + "n"] = static_cast<double>(v.size());
    if (v.empty()) return;
    rep.detail[prefix + name + "p50_us"] = quantile(v, 0.5);
    // A p99 needs >= 10 samples beyond it.
    if (v.size() >= 1000) {
      rep.detail[prefix + name + "p99_us"] = quantile(v, 0.99);
    }
  };
  add("", c.lat_us);
  add("get_", c.get_us);
  add("put_", c.put_us);
}

/// Timed ops per second; for the open loop, the achieved rate, which must
/// stay within 1% of the realized offered rate.
double throughput(const Spec& spec, const std::vector<ClientLog>& logs,
                  std::uint64_t ops, double wall_s, Report& rep) {
  if (spec.shape != Shape::kOpen) {
    return ratio(static_cast<double>(ops), wall_s);
  }
  const ClientLog& log = logs[0];
  const double offered =
      ratio(static_cast<double>(log.scheduled - 1),
            static_cast<double>(log.last_due - log.first_due) / 1e9);
  const double achieved =
      ratio(static_cast<double>(log.ops - 1),
            static_cast<double>(log.last_wake - log.first_wake) / 1e9);
  rep.detail["open.offered_ops_s"] = offered;
  rep.detail["open.achieved_ops_s"] = achieved;
  if (std::fabs(ratio(achieved, offered) - 1.0) > 0.01) {
    rep.fail("open loop: achieved rate strays more than 1% from offered");
  }
  return achieved;
}

void snapshot_recovery(Rig& rig, Report& rep) {
  core::SecureNvmBase& live = rig.svc->engine_base(0);
  nvm::NvmImage image = live.image();  // volatile copy, untimed
  const core::TcbRegisters tcb = live.tcb();
  const std::int64_t t0 = now_ns();
  auto design = core::make_design(
      rig.cfg.kind, service::KvService::engine_design_config(rig.cfg, 0));
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  base->restore_from_power_down(std::move(image), tcb);
  const std::int64_t t1 = now_ns();
  const core::RecoveryReport report = design->recover();
  const std::int64_t t2 = now_ns();
  store::SecureKvStore kv = store::SecureKvStore::open(*base, rig.cfg.store);
  const std::int64_t t3 = now_ns();
  if (!report.clean || !report.metadata_recovered) {
    rep.fail("shard 0 snapshot recovery not clean: " + report.detail);
  }
  if (kv.size() != rig.svc->engine_store(0).size()) {
    rep.fail("shard 0 snapshot reopen lost entries");
  }
  rep.layers["core.restore_ms"] = static_cast<double>(t1 - t0) / 1e6;
  rep.layers["core.recover_ms"] = static_cast<double>(t2 - t1) / 1e6;
  rep.layers["store.open_ms"] = static_cast<double>(t3 - t2) / 1e6;
}

void describe(const Spec& spec, const Rig& rig, const Options& o,
              std::size_t setups, Report& rep) {
  rep.offered_load =
      spec.shape == Shape::kOpen
          ? "open loop, Poisson arrivals at " +
                std::to_string(static_cast<int>(spec.rate)) + " ops/s"
          : "closed loop, " + std::to_string(spec.clients) + " client(s)";
  auto& c = rep.config;
  c["records"] = std::to_string(rig.records_per_client * spec.clients);
  c["clients"] = std::to_string(spec.clients);
  c["shards"] = std::to_string(spec.shards);
  c["value_bytes"] = std::to_string(rig.value_bytes);
  c["mix"] = spec.shape == Shape::kTxn ? "txn 80% rewrite / 20% read-only"
                                       : spec.ycsb;
  if (spec.shape != Shape::kTxn) {
    c["zipf_theta"] = std::to_string(spec.zipf_theta);
  }
  c["media"] = spec.durable ? "FileBackend kBarrier (msync+fsync per barrier)"
                            : "MapBackend (in-memory)";
  c["commit.max_batch"] = std::to_string(rig.cfg.commit.max_batch);
  c["commit.max_delay_us"] = std::to_string(rig.cfg.commit.max_delay_us);
  c["design"] = "cc-NVM";
  c["design.update_limit"] = std::to_string(rig.cfg.design.update_limit);
  c["design.daq_entries"] = std::to_string(rig.cfg.design.daq_entries);
  c["design.wpq_entries"] = std::to_string(rig.cfg.design.wpq_entries);
  c["design.meta_cache_bytes"] =
      std::to_string(rig.cfg.design.meta_cache_bytes);
  c["design.data_capacity"] = std::to_string(rig.cfg.design.data_capacity);
  c["warmup"] = std::to_string(o.warmup != 0 ? o.warmup : spec.warmup);
  c["setups"] = std::to_string(setups);
}

}  // namespace

Report run_service_workload(const Spec& spec, const Options& o) {
  Report rep;
  rep.traced = !o.trace_path.empty();
  const std::size_t setups =
      rep.traced ? 1 : std::max<std::size_t>(1, o.setups);
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (std::size_t k = 0; k < setups; ++k) {
    rig.reset();
    reset_logs();
    const std::int64_t t0 = now_ns();
    rig = build_rig(spec, o, rep.traced);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  describe(spec, *rig, o, setups, rep);
  rep.attempted += rig->requests;
  if (rig->failed != 0) rep.fail(rig->failure, rig->failed);
  service::KvService& svc = *rig->svc;

  if (!rep.traced) {
    const Tally before = tally(svc);
    Phase ph;
    ph.record = true;
    const std::int64_t start = now_ns();
    ph.deadline = start + static_cast<std::int64_t>(o.seconds * 1e9);
    const std::vector<ClientLog> logs = run_phase(*rig, ph);
    const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
    const Collected c = collect(logs, rep);
    verify(*rig, o, rep);
    const Tally delta = tally(svc) - before;
    rep.e2e["setup_s"] = quantile(setup_s, 0.5);
    rep.e2e["ops_per_s"] = throughput(spec, logs, c.ops, wall_s, rep);
    rep.e2e["latency_us"] = quantile(c.lat_us, 0.5);
    rep.e2e["write_amp"] =
        ratio(static_cast<double>(delta.total_writes() * ccnvm::kLineSize),
              static_cast<double>(c.user_bytes));
    rep.e2e["peak_rss_mb"] = peak_rss_mb();
    rep.detail["ops.timed"] = static_cast<double>(c.ops);
    rep.detail["loadgen.late_p99_us"] = quantile(c.late_us, 0.99);
    for (std::size_t k = 0; k < setup_s.size(); ++k) {
      rep.detail["setup_s." + std::to_string(k)] = setup_s[k];
    }
    latency_detail(c, "", rep);
    return rep;
  }

  // Traced run: an untraced half for the overhead baseline, then the
  // traced half, both with the probes installed (off during the first).
  const double half_s = o.seconds / 2.0;
  Phase plain;
  plain.record = true;
  plain.deadline = now_ns() + static_cast<std::int64_t>(half_s * 1e9);
  const Collected base_c = collect(run_phase(*rig, plain), rep);

  reset_logs();
  const Tally before = tally(svc);
  Phase traced = plain;
  traced.traced = true;
  set_tracing(true);
  traced.deadline = now_ns() + static_cast<std::int64_t>(half_s * 1e9);
  const std::vector<ClientLog> logs = run_phase(*rig, traced);
  set_tracing(false);
  const Tally delta = tally(svc) - before;
  const Collected c = collect(logs, rep);
  const std::uint64_t high_water = svc.stats().queue_high_water;
  verify(*rig, o, rep);
  snapshot_recovery(*rig, rep);

  std::vector<const DrainObserver*> drains;
  std::vector<const NvmCounters*> nvm;
  std::vector<const ThreadLog*> drain_logs;
  for (std::size_t s = 0; s < spec.shards; ++s) {
    drains.push_back(&rig->probes->drains[s]);
    nvm.push_back(&rig->probes->nvm[s]);
    ThreadLog* drain_log = rig->probes->nvm[s].drain_log;
    if (drain_log != nullptr) {
      drain_log->label = "drain-s" + std::to_string(s);
    }
    drain_logs.push_back(drain_log);
  }
  const double ops = static_cast<double>(c.ops);
  measure_crypto(o.seed, rep);
  fill_engine_layers(delta, ops, drains, nvm, rep);
  rep.layers["service.batch_mean"] =
      ratio(static_cast<double>(delta.batched_ops),
            static_cast<double>(delta.batches));
  rep.layers["service.barriers_per_mutation"] =
      ratio(static_cast<double>(delta.barriers),
            static_cast<double>(delta.mutations));
  rep.layers["service.queue_high_water"] = static_cast<double>(high_water);
  rep.layers["loadgen.late_p99_us"] = quantile(c.late_us, 0.99);
  rep.layers["trace.overhead_frac"] =
      ratio(quantile(c.lat_us, 0.5), quantile(base_c.lat_us, 0.5)) - 1.0;

  // Bare legs on the same geometry, after the service's memory is gone.
  std::vector<Push> pushes;
  std::vector<ReplayOp> replay;
  for (std::size_t i = 0; i < kReplayCapPerClient; ++i) {
    for (const ClientLog& log : logs) {
      if (i < log.replay.size()) replay.push_back(log.replay[i]);
    }
  }
  for (const ClientLog& log : logs) {
    pushes.insert(pushes.end(), log.pushes.begin(), log.pushes.end());
  }
  std::vector<KeyValue> initial;
  for (std::size_t cl = 0; cl < spec.clients; ++cl) {
    for (std::uint64_t id = 0; id < rig->records_per_client; ++id) {
      initial.push_back(
          {key_of(*rig, cl, id), value_for(cl, id, 0, rig->value_bytes)});
    }
  }
  const core::DesignConfig dc =
      service::KvService::engine_design_config(rig->cfg, 0);
  const store::StoreConfig sc = rig->cfg.store;
  const std::uint64_t footprint = sc.footprint_bytes();
  // The drain logs outlive the rig (the registry owns them).
  rig.reset();
  direct_leg(dc, sc, initial, replay, o.seconds, rep);
  core_micro(dc, footprint, o.seed, rep);
  const ServiceTiming timing = analyze_service(std::move(pushes), drain_logs);
  rep.layers["service.pre_apply_us_p50"] = quantile(timing.pre_us, 0.5);
  rep.layers["service.ack_us_p50"] = quantile(timing.ack_us, 0.5);
  rep.layers["service.barrier_us_p50"] = quantile(timing.barrier_us, 0.5);
  rep.layers["service.barrier_us_p99"] = quantile(timing.barrier_us, 0.99);
  rep.detail["service.apply_us_mean"] = mean(timing.apply_us);
  rep.detail["service.requests_matched"] = static_cast<double>(timing.matched);
  rep.detail["service.requests_unmatched"] =
      static_cast<double>(timing.unmatched);

  // Each row is one probe's per-call mean times calls per op, so the rows
  // reconcile with the e2e mean only if the probes agree. Service rows are
  // per request (a transaction's waves are sequential round trips); store
  // calls come from the direct leg and ServiceStats; every request a
  // barrier released waited for one drain and its barrier.
  const double per_op = ratio(static_cast<double>(c.steps), ops);
  const double waits_per_op =
      ratio(static_cast<double>(timing.barrier_waits),
            static_cast<double>(timing.matched)) *
      per_op;
  const double drain_us = rep.detail["core.drain_us_mean"];
  const double barrier_us = rep.detail["nvm.persist_barrier_us_mean"];
  if (spec.shape == Shape::kOpen) {
    // Open-loop latency counts from the due time, so generator lateness
    // (due -> sent) is part of every request's cost.
    add_ladder_row(rep, "generator lateness", mean(c.late_us));
  }
  add_ladder_row(rep, "service pre-apply wait", mean(timing.pre_us) * per_op);
  add_ladder_row(rep, "store apply (direct leg)",
                 (rep.detail["store.put_us_mean"] *
                      static_cast<double>(delta.puts) +
                  rep.detail["store.get_us_mean"] *
                      static_cast<double>(delta.gets)) /
                     ops);
  add_ladder_row(rep, "batch-mates' applies", mean(timing.mates_us) * per_op);
  add_ladder_row(rep, "core drain, without its barrier",
                 (drain_us - barrier_us) * waits_per_op);
  add_ladder_row(rep, "nvm barrier", barrier_us * waits_per_op);
  add_ladder_row(rep, "service ack", mean(timing.ack_us) * per_op);
  close_ladder(rep, mean(c.lat_us));

  rep.detail["ops.timed"] = ops;
  rep.detail["trace.untraced_p50_us"] = quantile(base_c.lat_us, 0.5);
  rep.detail["trace.traced_p50_us"] = quantile(c.lat_us, 0.5);
  latency_detail(c, "traced.", rep);
  return rep;
}

}  // namespace kvbench
