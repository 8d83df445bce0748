// The restart workload: the paper's recovery claim, end to end.
//
// Set-up populates a 1-shard service on a FileBackend image (pipelined
// puts, so batches fill), shuts it down (quiesced), applies unquiesced
// zipf updates straight to the engine's store, then pulls the power.
// Each timed rep reopens an untimed copy of that crashed image:
//   FileBackend::open -> decode_tcb -> restore_from_power_down   (restore)
//   -> recover()                                                   (recover)
//   -> SecureKvStore::open                                         (open)
// and then serves a seeded sample of reads from the recovered store, each
// checked against the model. No service and no barrier are involved in
// the timed part.
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "core/tcb.h"
#include "layers.h"
#include "nvm/file_backend.h"
#include "service/service_bench.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"

namespace kvbench {
namespace {

using namespace ccnvm;

/// The crashed image and what set-up learned while building it.
struct Image {
  std::map<std::string, std::string> model;  // last acknowledged values
  std::uint64_t user_bytes = 0;
  std::uint64_t nvm_writes = 0;  // line writes, populate through crash
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::string failure;
  // Traced set-up only.
  std::vector<Push> pushes;
  std::vector<double> late_us;
  std::vector<ReplayOp> replay;
  service::ServiceStats stats;

  void fail(const std::string& what) {
    ++failed;
    if (failure.empty()) failure = what;
  }
};

struct Probes {
  NvmCounters populate_nvm;
  DrainObserver drains;
  NvmCounters rep_nvm;
};

Image build_image(const Options& o, std::uint64_t records,
                  const core::DesignConfig& dc, const store::StoreConfig& sc,
                  const std::string& path, Probes* probes) {
  Image img;
  const std::uint32_t value_bytes = trace::ycsb_by_name("ycsb-a").value_bytes;
  service::ServiceConfig cfg;
  cfg.shards = 1;
  cfg.commit = service::ServiceBenchOptions{}.commit;
  cfg.design = dc;
  cfg.store = sc;
  NvmCounters* counters = probes != nullptr ? &probes->populate_nvm : nullptr;
  cfg.backend_factory = [path, counters](std::size_t, std::uint64_t capacity)
      -> std::unique_ptr<nvm::Backend> {
    std::unique_ptr<nvm::Backend> media =
        nvm::FileBackend::create(path, capacity);
    if (counters == nullptr) return media;
    return std::make_unique<TimingBackend>(std::move(media), counters);
  };
  if (probes != nullptr) {
    cfg.after_apply_hook = on_after_apply;
    cfg.after_barrier_hook = on_after_barrier;
  }
  service::KvService svc(cfg);
  if (probes != nullptr) {
    svc.engine_base(0).attach_observer(&probes->drains);
    set_tracing(true);
  }

  // Pipelined populate: up to a full batch of requests in flight.
  struct InFlight {
    std::future<service::Result> fut;
    std::int64_t push = 0;
    std::string key;
    std::string value;
  };
  const std::size_t window = cfg.commit.max_batch;
  std::deque<InFlight> inflight;
  std::int64_t slot_free = now_ns();
  const auto retire = [&] {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const service::Result r = f.fut.get();
    const std::int64_t wake = now_ns();
    slot_free = wake;
    if (!r.ok) {
      img.fail("populate put rejected: " + f.key);
      return;
    }
    img.user_bytes += f.key.size() + f.value.size();
    // No client spans here: 64 K of them would fill this thread's span
    // budget before the reopens it exists to show.
    if (tracing()) img.pushes.push_back({0, f.push, wake, 1, 0, f.push, 0});
    img.model[f.key] = std::move(f.value);
  };
  for (std::uint64_t id = 0; id < records; ++id) {
    if (inflight.size() >= window) retire();
    InFlight f;
    f.key = trace::YcsbGenerator::key_name(id);
    f.value = value_for(0, id, 0, value_bytes);
    service::Request req;
    req.op = service::OpType::kPut;
    req.key = f.key;
    req.value = f.value;
    f.push = now_ns();
    if (tracing()) {
      img.late_us.push_back(static_cast<double>(f.push - slot_free) / 1e3);
    }
    f.fut = svc.submit(std::move(req));
    inflight.push_back(std::move(f));
    ++img.requests;
  }
  while (!inflight.empty()) retire();
  set_tracing(false);
  img.stats = svc.stats();
  svc.shutdown();

  // Unquiesced zipf updates through the bare store, then power loss.
  trace::YcsbWorkload w = trace::ycsb_by_name("ycsb-a");
  w.read_prop = 0.0;
  w.update_prop = 1.0;
  w.record_count = records;
  trace::YcsbGenerator gen(w, derive_seed(o.seed, 0x4e57));
  Rng reads(derive_seed(o.seed, 0x4e58));
  store::SecureKvStore& kv = svc.engine_store(0);
  for (std::uint64_t i = 0; i < o.restart_updates; ++i) {
    const trace::KvOp op = gen.next();
    const std::string key = trace::YcsbGenerator::key_name(op.key_id);
    std::string value = value_for(0, op.key_id, i + 1, op.value_bytes);
    ++img.requests;
    if (!kv.put(key, value)) {
      img.fail("update rejected: " + key);
      continue;
    }
    img.user_bytes += key.size() + value.size();
    if (probes != nullptr) {
      const std::string probe_key =
          trace::YcsbGenerator::key_name(reads.below(records));
      img.replay.push_back({true, true, key, value});
      img.replay.push_back({false, true, probe_key, ""});
    }
    img.model[key] = std::move(value);
  }
  img.nvm_writes = svc.engine_base(0).traffic().total_writes();
  svc.engine_base(0).crash_power_loss();
  return img;
}

/// The reads a recovered store serves after each reopen: seeded keys with
/// their expected values (null: the key was never acknowledged).
using Sample = std::vector<std::pair<std::string, const std::string*>>;

Sample pick_sample(const Image& img, std::uint64_t records,
                   std::uint64_t seed) {
  constexpr std::size_t kReads = 4096;
  Rng pick(derive_seed(seed, 0x5eed));
  Sample sample;
  for (std::size_t i = 0; i < kReads; ++i) {
    std::string key = trace::YcsbGenerator::key_name(pick.below(records));
    const auto it = img.model.find(key);
    sample.emplace_back(std::move(key),
                        it == img.model.end() ? nullptr : &it->second);
  }
  return sample;
}

struct RepTimes {
  double restore_ms = 0.0, recover_ms = 0.0, open_ms = 0.0, total_us = 0.0;
  double reads_us = 0.0;  // the sampled reads after the reopen
  std::vector<std::int64_t> slice_ns;  // the reopen's SliceClock slices
  std::vector<std::int64_t> read_ns;   // each sampled read, in sample order
};

/// ~1 ms of a reopen, which makes ~1 M line accesses in ~200 ms.
constexpr std::uint64_t kSliceAccesses = 4096;

/// Stamps the clock at every kSliceAccesses-th line access. A reopen makes
/// the same accesses in the same order every rep, so the stamps cut every
/// rep into the same slices of work.
class SliceClock final : public ForwardingBackend {
 public:
  SliceClock(std::unique_ptr<nvm::Backend> inner,
             std::vector<std::int64_t>* cuts)
      : ForwardingBackend(std::move(inner)), cuts_(cuts) {}

  /// Ends the reopen: later accesses (the sampled reads) are not cut.
  void stop() { cuts_ = nullptr; }

  bool read_line(Addr addr, Line& out) const override {
    tick();
    return inner_->read_line(addr, out);
  }
  void write_line(Addr addr, const Line& value) override {
    tick();
    inner_->write_line(addr, value);
  }

 private:
  void tick() const {
    if (cuts_ != nullptr && ++accesses_ % kSliceAccesses == 0) {
      cuts_->push_back(now_ns());
    }
  }

  mutable std::uint64_t accesses_ = 0;
  std::vector<std::int64_t>* cuts_;
};

/// One reopen of a fresh copy of the crashed image, then the sampled
/// reads. Every rep does the same work. Returns false when the image
/// could not even be mapped.
bool reopen(const std::string& golden, const std::string& copy,
            const core::DesignConfig& dc, const store::StoreConfig& sc,
            Image& img, const Sample& sample, bool readback,
            bool corrupt_model, Probes* probes, Tally* tally, RepTimes& t,
            Report& rep) {
  std::filesystem::copy_file(golden, copy,
                             std::filesystem::copy_options::overwrite_existing);
  std::vector<std::int64_t> cuts;
  cuts.reserve(1024);
  const std::int64_t t0 = now_ns();
  cuts.push_back(t0);
  std::unique_ptr<nvm::FileBackend> file = nvm::FileBackend::open(copy);
  if (file == nullptr) {
    rep.fail("crashed image does not map");
    return false;
  }
  std::uint8_t regs[nvm::Backend::kRegisterCapacity];
  const std::size_t reg_len = file->load_registers(regs, sizeof(regs));
  core::TcbRegisters tcb;
  if (!core::decode_tcb(regs, reg_len, tcb)) {
    rep.fail("crashed image carries no TCB registers");
    return false;
  }
  std::unique_ptr<nvm::Backend> media = std::move(file);
  if (probes != nullptr && tracing()) {
    media = std::make_unique<TimingBackend>(std::move(media), &probes->rep_nvm);
  }
  auto clock = std::make_unique<SliceClock>(std::move(media), &cuts);
  SliceClock* slice_clock = clock.get();
  media = std::move(clock);
  auto design = core::make_design(core::DesignKind::kCcNvm, dc);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  base->restore_from_power_down(nvm::NvmImage(std::move(media)), tcb);
  const std::int64_t t1 = now_ns();
  const core::RecoveryReport report = design->recover();
  const std::int64_t t2 = now_ns();
  store::SecureKvStore kv = store::SecureKvStore::open(*base, sc);
  const std::int64_t t3 = now_ns();
  slice_clock->stop();
  cuts.push_back(t3);
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    t.slice_ns.push_back(cuts[i] - cuts[i - 1]);
  }
  std::uint64_t stale = 0;
  t.read_ns.reserve(sample.size());
  for (const auto& [key, want] : sample) {
    const std::int64_t start = now_ns();
    const std::optional<std::string> got = kv.get(key);
    t.read_ns.push_back(now_ns() - start);
    if (want == nullptr || !got.has_value() || *got != *want) ++stale;
  }
  const std::int64_t t4 = now_ns();
  if (tally != nullptr) tally->add_engine(*base, &kv);
  span("restart.restore", t0, t1);
  span("restart.recover", t1, t2);
  span("restart.open", t2, t3);
  span("restart.reads", t3, t4);
  span("restart.rep", t0, t3);
  t.restore_ms = static_cast<double>(t1 - t0) / 1e6;
  t.recover_ms = static_cast<double>(t2 - t1) / 1e6;
  t.open_ms = static_cast<double>(t3 - t2) / 1e6;
  t.total_us = static_cast<double>(t3 - t0) / 1e3;
  t.reads_us = static_cast<double>(t4 - t3) / 1e3;

  rep.attempted += 1 + sample.size();
  if (!report.clean || !report.metadata_recovered) {
    rep.fail("recovery not clean: " + report.detail);
  }
  if (kv.size() != img.model.size()) rep.fail("reopened store lost entries");
  if (stale != 0) rep.fail("sampled read after recovery is stale", stale);
  if (readback) {
    if (corrupt_model && !img.model.empty()) {
      std::string& v = img.model.begin()->second;
      v[0] = static_cast<char>(v[0] ^ 1);
    }
    for (const auto& [key, value] : img.model) {
      ++rep.attempted;
      const std::optional<std::string> got = kv.get(key);
      if (!got.has_value() || *got != value) {
        rep.fail("acknowledged value lost across the crash: " + key);
      }
    }
  }
  return true;
}

std::vector<RepTimes> run_reps(const std::string& golden,
                               const std::string& copy,
                               const core::DesignConfig& dc,
                               const store::StoreConfig& sc, Image& img,
                               const Sample& sample, double seconds,
                               bool readback_first, const Options& o,
                               Probes* probes, Tally* tally, Report& rep) {
  std::vector<RepTimes> reps;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  // At least one rep, so every run measures a reopen.
  do {
    RepTimes t;
    const bool readback = readback_first && reps.empty();
    if (!reopen(golden, copy, dc, sc, img, sample, readback,
                o.corrupt_model && readback, probes, tally, t, rep)) {
      break;
    }
    reps.push_back(t);
  } while (now_ns() < deadline);
  return reps;
}

std::vector<double> column(const std::vector<RepTimes>& v,
                           double RepTimes::*field) {
  std::vector<double> out;
  for (const RepTimes& t : v) out.push_back(t.*field);
  return out;
}

/// The fastest rep's value of `field`. Every rep does the same work on
/// the same image, so what differs between reps is the host: co-tenants
/// on sibling cores stretch recover() from 150 ms to over 300 ms, in
/// bursts. Over ten seeds on a shared 4-core host the median of all
/// reopens spread 27% between runs where the fastest spread 4%.
double fastest(const std::vector<RepTimes>& v, double RepTimes::*field) {
  const std::vector<double> all = column(v, field);
  return all.empty() ? 0.0 : *std::min_element(all.begin(), all.end());
}

/// The sum over slices of each slice's fastest rep, in µs; nullopt when
/// the reps were not cut alike. A whole rep at full speed needs a quiet
/// host for all of it; a short slice needs a short quiet moment once in
/// ~40 reps. On a loaded host the fastest whole reopen grew 23% and the
/// sum of its ~1 ms slices 18%; the fastest whole read pass grew 17% and
/// the sum of its reads 13%.
std::optional<double> fastest_slices_us(
    const std::vector<RepTimes>& v,
    std::vector<std::int64_t> RepTimes::*slices) {
  if (v.empty()) return std::nullopt;
  std::vector<std::int64_t> best = v.front().*slices;
  for (const RepTimes& t : v) {
    if ((t.*slices).size() != best.size()) return std::nullopt;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], (t.*slices)[i]);
    }
  }
  std::int64_t sum = 0;
  for (const std::int64_t ns : best) sum += ns;
  return static_cast<double>(sum) / 1e3;
}

}  // namespace

Report run_restart_workload(const Spec& spec, const Options& o) {
  Report rep;
  rep.traced = !o.trace_path.empty();
  rep.offered_load =
      "sequential reopens of one crashed image, each followed by 4096 reads";
  const std::uint64_t records = o.records != 0 ? o.records : spec.records;
  const std::uint32_t value_bytes = trace::ycsb_by_name("ycsb-a").value_bytes;
  const store::StoreConfig sc =
      store::StoreConfig::sized_for(records, value_bytes, /*shards=*/1);
  core::DesignConfig dc;
  dc.data_capacity = store::capacity_for(sc);
  dc.update_limit = 1u << 20;
  dc.daq_entries = 1024;
  dc.wpq_entries = 1024;
  const std::string stem =
      o.work_dir + "/kvbench-restart-" + std::to_string(::getpid());
  const std::string golden = stem + ".img";
  const std::string copy = stem + ".rep.img";

  const std::size_t setups =
      rep.traced ? 1 : std::max<std::size_t>(1, o.setups);
  std::unique_ptr<Probes> probes;
  std::vector<double> setup_s;
  Image img;
  for (std::size_t k = 0; k < setups; ++k) {
    reset_logs();
    if (rep.traced) probes = std::make_unique<Probes>();
    const std::int64_t t0 = now_ns();
    img = build_image(o, records, dc, sc, golden, probes.get());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  rep.attempted += img.requests;
  if (img.failed != 0) rep.fail(img.failure, img.failed);

  auto& c = rep.config;
  c["records"] = std::to_string(records);
  c["value_bytes"] = std::to_string(value_bytes);
  c["unquiesced_updates"] = std::to_string(o.restart_updates);
  c["media"] = "FileBackend (page-cache durability, kNone)";
  c["design"] = "cc-NVM";
  c["design.update_limit"] = std::to_string(dc.update_limit);
  c["design.daq_entries"] = std::to_string(dc.daq_entries);
  c["design.wpq_entries"] = std::to_string(dc.wpq_entries);
  c["design.data_capacity"] = std::to_string(dc.data_capacity);
  c["setups"] = std::to_string(setups);

  rep.digest = kFnvBasis;
  for (const auto& [key, value] : img.model) {
    fold_fnv(rep.digest, key);
    fold_fnv(rep.digest, value);
  }
  const double write_amp =
      ratio(static_cast<double>(img.nvm_writes * kLineSize),
            static_cast<double>(img.user_bytes));

  const Sample sample = pick_sample(img, records, o.seed);
  if (!rep.traced) {
    const std::vector<RepTimes> reps = run_reps(
        golden, copy, dc, sc, img, sample, o.seconds, true, o, nullptr,
        nullptr, rep);
    rep.e2e["setup_s"] = quantile(setup_s, 0.5);
    const std::optional<double> reopen_us =
        fastest_slices_us(reps, &RepTimes::slice_ns);
    const std::optional<double> reads_us =
        fastest_slices_us(reps, &RepTimes::read_ns);
    rep.e2e["ops_per_s"] =
        ratio(static_cast<double>(sample.size()) * 1e6,
              reads_us.value_or(fastest(reps, &RepTimes::reads_us)));
    rep.e2e["latency_us"] =
        reopen_us.value_or(fastest(reps, &RepTimes::total_us));
    rep.e2e["write_amp"] = write_amp;
    rep.e2e["peak_rss_mb"] = peak_rss_mb();
    rep.detail["ops.timed"] = static_cast<double>(reps.size());
    // 0: the reps were not cut alike, so latency_us is the fastest reopen.
    rep.detail["reopen_slices"] =
        reopen_us.has_value() ? static_cast<double>(reps[0].slice_ns.size())
                              : 0.0;
    rep.detail["reopen_us_p50"] =
        quantile(column(reps, &RepTimes::total_us), 0.5);
    rep.detail["reopen_us_min"] = fastest(reps, &RepTimes::total_us);
    rep.detail["reads_us_p50"] =
        quantile(column(reps, &RepTimes::reads_us), 0.5);
    rep.detail["reads_us_min"] = fastest(reps, &RepTimes::reads_us);
    rep.detail["restore_ms_min"] = fastest(reps, &RepTimes::restore_ms);
    rep.detail["recover_ms_min"] = fastest(reps, &RepTimes::recover_ms);
    rep.detail["open_ms_min"] = fastest(reps, &RepTimes::open_ms);
    for (std::size_t k = 0; k < setup_s.size(); ++k) {
      rep.detail["setup_s." + std::to_string(k)] = setup_s[k];
    }
  } else {
    const double half_s = o.seconds / 2.0;
    const std::vector<RepTimes> plain =
        run_reps(golden, copy, dc, sc, img, sample, half_s, true, o,
                 probes.get(), nullptr, rep);
    Tally tally;
    set_tracing(true);
    const std::vector<RepTimes> traced =
        run_reps(golden, copy, dc, sc, img, sample, half_s, false, o,
                 probes.get(), &tally, rep);
    set_tracing(false);
    const double ops = static_cast<double>(traced.size());

    measure_crypto(o.seed, rep);
    // Per-op counts are per reopen; drains and barriers happen only while
    // the image is built, so their timings come from the populate phase.
    fill_engine_layers(tally, ops, {&probes->drains},
                       {&probes->rep_nvm}, rep);
    std::vector<double> barrier_us;
    for (const NvmCounters* n : {&probes->populate_nvm, &probes->rep_nvm}) {
      for (const std::int64_t ns : n->barrier_ns) {
        barrier_us.push_back(static_cast<double>(ns) / 1e3);
      }
    }
    rep.layers["nvm.persist_barrier_us_p50"] = quantile(barrier_us, 0.5);
    rep.layers["nvm.persist_barrier_us_p99"] = quantile(barrier_us, 0.99);
    rep.layers["core.restore_ms"] = fastest(plain, &RepTimes::restore_ms);
    rep.layers["core.recover_ms"] = fastest(plain, &RepTimes::recover_ms);
    rep.layers["store.open_ms"] = fastest(plain, &RepTimes::open_ms);
    rep.layers["service.batch_mean"] =
        ratio(static_cast<double>(img.stats.batched_ops),
              static_cast<double>(img.stats.batches));
    rep.layers["service.barriers_per_mutation"] =
        ratio(static_cast<double>(img.stats.barriers),
              static_cast<double>(img.stats.mutations));
    rep.layers["service.queue_high_water"] =
        static_cast<double>(img.stats.queue_high_water);
    rep.layers["loadgen.late_p99_us"] = quantile(img.late_us, 0.99);
    rep.layers["trace.overhead_frac"] =
        ratio(fastest(traced, &RepTimes::total_us),
              fastest(plain, &RepTimes::total_us)) -
        1.0;

    ThreadLog* drain_log = probes->populate_nvm.drain_log;
    if (drain_log != nullptr) drain_log->label = "drain-s0";
    std::vector<KeyValue> initial;
    for (std::uint64_t id = 0; id < records; ++id) {
      initial.push_back({trace::YcsbGenerator::key_name(id),
                         value_for(0, id, 0, value_bytes)});
    }
    direct_leg(dc, sc, initial, img.replay, o.seconds, rep);
    core_micro(dc, sc.footprint_bytes(), o.seed, rep);
    const ServiceTiming timing = analyze_service(img.pushes, {drain_log});
    rep.layers["service.pre_apply_us_p50"] = quantile(timing.pre_us, 0.5);
    rep.layers["service.ack_us_p50"] = quantile(timing.ack_us, 0.5);
    rep.layers["service.barrier_us_p50"] = quantile(timing.barrier_us, 0.5);
    rep.layers["service.barrier_us_p99"] = quantile(timing.barrier_us, 0.99);
    rep.detail["service.requests_matched"] =
        static_cast<double>(timing.matched);
    rep.detail["service.requests_unmatched"] =
        static_cast<double>(timing.unmatched);
    rep.detail["ops.timed"] = ops;
  }
  std::filesystem::remove(golden);
  std::filesystem::remove(copy);
  return rep;
}

}  // namespace kvbench
