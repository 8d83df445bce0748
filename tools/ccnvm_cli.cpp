// ccnvm — command-line driver for the cc-NVM simulator.
//
//   ccnvm list                          workloads and designs
//   ccnvm geometry <MiB>                layout/tree geometry for a capacity
//   ccnvm run <workload> <design> [refs]   one timing simulation
//   ccnvm compare <workload> [refs]        all designs, normalized table
//   ccnvm demo recovery                 functional crash+recover walkthrough
//   ccnvm demo attack                   post-crash attack locating demo
//   ccnvm audit [seed] [jobs]           audited crash sweep (CCNVM_AUDIT)
//   ccnvm kv run <workload> <design>    YCSB over the secure KV store
//   ccnvm kv serve [--threads=N] [--shards=S] [--ops=K] [--durable]
//                                       concurrent KV service smoke run
//   ccnvm kv sweep [seed] [jobs]        KV crash-kill sweep (CCNVM_AUDIT)
//   ccnvm fuzz --engine=<diff|crash|attack|txn> [--seed=S] [--budget=N|Ns]
//              [--jobs=J] [--ops=K] [--replay=CASE_SEED] [--out=FILE]
//                                       randomized campaigns (CCNVM_AUDIT)
//   ccnvm crashd sweep [--scenarios=N] [--seed=S] [--jobs=J]
//                      [--service|--txn|--design=D] [--dir=D] [--keep]
//                                       out-of-process kill-9 sweep
//   ccnvm crashd worker --image=F --seed=S --index=I
//                       [--service|--txn|--design=D]
//   ccnvm crashd verify --image=F --seed=S --index=I
//                       [--service|--txn|--design=D]
//   ccnvm nvlint [path]...              persist-ordering static analyzer
//
// Designs: wocc | sc | osiris | ccnvm-nods | ccnvm | ccnvm-plus |
//          triad[-nK] | phoenix
#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#ifdef CCNVM_HAVE_AUDIT
#include "audit/crash_sweep.h"
#include "common/check.h"
#include "crashd/crashd.h"
#include "fuzz/fuzz.h"
#endif
#include "attacks/injector.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "nvlint/nvlint.h"
#include "core/cc_nvm.h"
#include "nvm/layout.h"
#include "secure/tree_compare.h"
#include "service/service_bench.h"
#include "sim/experiment.h"
#include "store/ycsb_runner.h"

using namespace ccnvm;

namespace {

/// Strict decimal parse for argv values: rejects empty strings, signs,
/// non-digits and overflow instead of letting std::stoull throw (or
/// silently accept "12abc").
std::optional<std::uint64_t> parse_u64(const std::string& arg) {
  if (arg.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : arg) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

/// The VALUE of `arg` when it is the flag `prefix` ("--name=VALUE").
std::optional<std::string> flag_value(const std::string& arg,
                                      const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  if (arg.compare(0, n, prefix) != 0) return std::nullopt;
  return arg.substr(n);
}

int cmd_list() {
  std::printf("workloads:");
  for (const auto& p : trace::spec2006_profiles()) {
    std::printf(" %s", p.name.c_str());
  }
  std::printf("\ndesigns:   wocc sc osiris ccnvm-nods ccnvm ccnvm-plus "
              "triad[-nK] phoenix\n");
  return 0;
}

int cmd_geometry(std::uint64_t mib) {
  const std::uint64_t cap = mib << 20;
  const nvm::NvmLayout layout(cap);
  const secure::TreeGeometry g = secure::bonsai_geometry(cap);
  std::printf("capacity:          %llu MiB\n",
              static_cast<unsigned long long>(mib));
  std::printf("pages / counters:  %llu\n",
              static_cast<unsigned long long>(layout.num_pages()));
  std::printf("tree levels:       %u (root on chip)\n", layout.tree_levels());
  std::printf("interior nodes:    %llu (%llu KiB in NVM)\n",
              static_cast<unsigned long long>(g.interior_nodes),
              static_cast<unsigned long long>(g.interior_bytes() >> 10));
  std::printf("metadata overhead: %.2f%% (incl. 25%% data HMACs)\n",
              100.0 * g.metadata_overhead());
  std::printf("total footprint:   %llu MiB\n",
              static_cast<unsigned long long>(layout.total_bytes() >> 20));
  return 0;
}

int cmd_run(const std::string& workload, const std::string& design,
            std::uint64_t refs) {
  std::uint32_t persist_level = 1;
  const auto kind = core::parse_design(design, &persist_level);
  if (!kind) {
    std::fprintf(stderr, "unknown design '%s'\n", design.c_str());
    return 2;
  }
  sim::SystemConfig cfg;
  cfg.kind = *kind;
  cfg.design.persist_level = persist_level;
  cfg.design.data_capacity = 16ull << 30;
  cfg.design.functional = false;
  sim::System system(cfg);
  trace::TraceGenerator gen(trace::profile_by_name(workload), 2019);
  system.run(gen, refs / 5);  // warm up
  system.reset_measurement();
  system.run(gen, refs);
  const sim::SimResult r = system.result();
  std::printf("%s on %s: %llu refs\n", r.name.c_str(), workload.c_str(),
              static_cast<unsigned long long>(refs));
  std::printf("  IPC                 %.4f\n", r.ipc);
  std::printf("  NVM writes          %llu (data %llu, DH %llu, counters "
              "%llu, MT %llu)\n",
              static_cast<unsigned long long>(r.nvm_writes),
              static_cast<unsigned long long>(r.traffic.data_writes),
              static_cast<unsigned long long>(r.traffic.dh_writes),
              static_cast<unsigned long long>(r.traffic.counter_writes),
              static_cast<unsigned long long>(r.traffic.mt_writes));
  std::printf("  write-backs         %llu  drains %llu\n",
              static_cast<unsigned long long>(r.design_stats.write_backs),
              static_cast<unsigned long long>(r.design_stats.drains));
  std::printf("  L2 hit rate         %.1f%%   meta cache %.1f%%\n",
              100.0 * r.l2_stats.hit_rate(), 100.0 * r.meta_stats.hit_rate());
  return 0;
}

int cmd_compare(const std::string& workload, std::uint64_t refs) {
  sim::ExperimentConfig config;
  config.measure_refs = refs;
  config.warmup_refs = refs / 5;
  const std::vector<core::DesignKind> kinds = {
      core::DesignKind::kWoCc, core::DesignKind::kStrict,
      core::DesignKind::kOsirisPlus, core::DesignKind::kCcNvmNoDs,
      core::DesignKind::kCcNvm};
  const sim::BenchmarkRow row = sim::run_benchmark(
      trace::profile_by_name(workload), kinds, config);
  std::printf("%-14s %10s %10s\n", "design", "IPC", "writes");
  for (const sim::DesignRun& run : row.runs) {
    std::printf("%-14s %10.3f %10.3f\n", run.result.name.c_str(),
                row.ipc_norm(run.kind), row.writes_norm(run.kind));
  }
  return 0;
}

int cmd_demo(const std::string& which) {
  core::DesignConfig cfg;
  cfg.data_capacity = 64 * kPageSize;
  if (which == "recovery") {
    core::CcNvmDesign nvm(cfg, true);
    Line v{};
    v[0] = 42;
    nvm.write_back(0, v);
    nvm.crash_power_loss();
    const auto report = nvm.recover();
    std::printf("crash mid-epoch -> %s; data[0]=%d\n", report.detail.c_str(),
                nvm.read_block(0).plaintext[0]);
    return 0;
  }
  if (which == "attack") {
    core::CcNvmDesign nvm(cfg, true);
    Line v{};
    for (int i = 0; i < 8; ++i) {
      v[0] = static_cast<std::uint8_t>(i);
      nvm.write_back(static_cast<Addr>(i) * kLineSize, v);
    }
    nvm.quiesce();
    nvm.crash_power_loss();
    Rng rng(1);
    attacks::spoof_data(nvm, 3 * kLineSize, rng);
    const auto report = nvm.recover();
    std::printf("spoofed block 3 across a crash -> detected=%d located=%d",
                report.attack_detected, report.attack_located);
    if (!report.tampered_blocks.empty()) {
      std::printf(" at %s", addr_str(report.tampered_blocks[0]).c_str());
    }
    std::printf("\n");
    return 0;
  }
  std::fprintf(stderr, "unknown demo '%s' (recovery|attack)\n", which.c_str());
  return 2;
}

int cmd_audit(std::uint64_t seed, std::uint64_t jobs) {
#ifdef CCNVM_HAVE_AUDIT
  audit::CrashSweepConfig cfg;
  cfg.seed = seed;
  cfg.jobs = static_cast<std::size_t>(jobs);
  const audit::CrashSweepResult r =
      audit::run_crash_sweep(audit::SweepWorkload::kRawLines, cfg);
  std::printf("audited crash sweep: all invariants held\n");
  std::printf("  scenarios           %llu (crashes %llu, recoveries %llu)\n",
              static_cast<unsigned long long>(r.scenarios),
              static_cast<unsigned long long>(r.crashes),
              static_cast<unsigned long long>(r.recoveries));
  std::printf("  writes verified     %llu\n",
              static_cast<unsigned long long>(r.verified));
  std::printf("  events / checks     %llu / %llu (image verifications %llu)\n",
              static_cast<unsigned long long>(r.events_observed),
              static_cast<unsigned long long>(r.checks_performed),
              static_cast<unsigned long long>(r.image_verifications));
  return 0;
#else
  (void)seed;
  (void)jobs;
  std::fprintf(stderr, "this ccnvm was built with CCNVM_AUDIT=OFF\n");
  return 2;
#endif
}

int cmd_kv_run(const std::string& workload_name, const std::string& design,
               std::uint64_t ops, std::uint64_t records) {
  std::uint32_t persist_level = 1;
  const auto kind = core::parse_design(design, &persist_level);
  if (!kind) {
    std::fprintf(stderr, "unknown design '%s'\n", design.c_str());
    return 2;
  }
  trace::YcsbWorkload workload;
  bool found = false;
  for (const trace::YcsbWorkload& w : trace::ycsb_workloads()) {
    if (w.name == workload_name) {
      workload = w;
      found = true;
      break;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown YCSB workload '%s' (ycsb-a..d, ycsb-f)\n",
                 workload_name.c_str());
    return 2;
  }
  workload.record_count = records;
  store::YcsbRunOptions options;
  options.ops = ops;
  const std::uint64_t peak_keys = records + ops / 16 + 64;
  const store::StoreConfig store_config =
      store::StoreConfig::sized_for(peak_keys, workload.value_bytes);
  core::DesignConfig design_config;
  design_config.persist_level = persist_level;
  design_config.data_capacity = store::capacity_for(store_config);
  auto nvm = core::make_design(*kind, design_config);
  auto& base = dynamic_cast<core::SecureNvmBase&>(*nvm);
  const store::YcsbRunResult r =
      store::run_ycsb_workload(base, store_config, workload, options);
  std::printf("%s on %s: %llu records, %llu ops\n",
              std::string(nvm->name()).c_str(), workload.name.c_str(),
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(r.ops));
  std::printf("  throughput          %.0f ops/s (load %.3f s, run %.3f s)\n",
              r.ops_per_sec(), r.load_seconds, r.run_seconds);
  std::printf("  reads / mutations   %llu / %llu\n",
              static_cast<unsigned long long>(r.reads),
              static_cast<unsigned long long>(r.mutations));
  std::printf("  NVM writes          %llu (data %llu, DH %llu, counters "
              "%llu, MT %llu)\n",
              static_cast<unsigned long long>(r.traffic.total_writes()),
              static_cast<unsigned long long>(r.traffic.data_writes),
              static_cast<unsigned long long>(r.traffic.dh_writes),
              static_cast<unsigned long long>(r.traffic.counter_writes),
              static_cast<unsigned long long>(r.traffic.mt_writes));
  std::printf("  writes per op       %.3f   drains %llu\n", r.writes_per_op(),
              static_cast<unsigned long long>(r.design_stats.drains));
  return 0;
}

int usage();

/// `ccnvm kv serve` — smoke-run the concurrent KV service: N blocking
/// client threads against per-shard group-commit drain workers, with the
/// final state verified exactly against a replayed model.
int cmd_kv_serve(int argc, char** argv) {
  service::ServiceBenchOptions opts;
  opts.threads = 4;
  opts.records_per_thread = 128;
  opts.ops_per_thread = 256;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* p) { return flag_value(arg, p); };
    if (const auto v = value_of("--threads=")) {
      const auto t = parse_u64(*v);
      if (!t || *t == 0) return usage();
      opts.threads = static_cast<std::size_t>(*t);
    } else if (const auto v = value_of("--shards=")) {
      const auto s = parse_u64(*v);
      if (!s) return usage();
      opts.service_shards = static_cast<std::size_t>(*s);
    } else if (const auto v = value_of("--ops=")) {
      const auto n = parse_u64(*v);
      if (!n || *n == 0) return usage();
      opts.ops_per_thread = *n;
    } else if (const auto v = value_of("--records=")) {
      const auto n = parse_u64(*v);
      if (!n || *n == 0) return usage();
      opts.records_per_thread = *n;
    } else if (const auto v = value_of("--workload=")) {
      opts.workload = *v;
    } else if (const auto v = value_of("--max-batch=")) {
      const auto n = parse_u64(*v);
      if (!n || *n == 0) return usage();
      opts.commit.max_batch = static_cast<std::size_t>(*n);
    } else if (const auto v = value_of("--max-delay-us=")) {
      const auto n = parse_u64(*v);
      if (!n) return usage();
      opts.commit.max_delay_us = static_cast<std::uint32_t>(*n);
    } else if (const auto v = value_of("--seed=")) {
      const auto s = parse_u64(*v);
      if (!s) return usage();
      opts.seed = *s;
    } else if (arg == "--durable") {
      opts.durable = true;
    } else {
      return usage();
    }
  }
  const service::ServiceBenchResult r = service::run_service_ycsb(opts);
  std::printf("kv service (%s, %s media): %zu client threads, %zu shards\n",
              opts.workload.c_str(), opts.durable ? "durable" : "in-memory",
              opts.threads,
              opts.service_shards != 0 ? opts.service_shards
                                       : default_parallelism());
  std::printf("  throughput          %.0f ops/s (%llu ops in %.3f s)\n",
              r.ops_per_sec, static_cast<unsigned long long>(r.ops),
              r.wall_seconds);
  std::printf("  batches             %llu (avg %.2f ops, max %llu)\n",
              static_cast<unsigned long long>(r.stats.batches),
              r.stats.batches != 0 ? static_cast<double>(r.stats.batched_ops) /
                                         static_cast<double>(r.stats.batches)
                                   : 0.0,
              static_cast<unsigned long long>(r.stats.max_batch));
  std::printf("  group commit        %llu mutations / %llu barriers "
              "(amortization %.2fx)\n",
              static_cast<unsigned long long>(r.stats.mutations),
              static_cast<unsigned long long>(r.stats.barriers),
              r.stats.amortization());
  std::printf("  queue high water    %llu\n",
              static_cast<unsigned long long>(r.stats.queue_high_water));
  std::printf("  state digest        %016llx (%s)\n",
              static_cast<unsigned long long>(r.digest),
              r.verified ? "verified against model, audits clean"
                         : "VERIFICATION FAILED");
  if (!r.verified) {
    std::printf("  failure: %s\n", r.failure.c_str());
    return 1;
  }
  return 0;
}

int cmd_kv_sweep(std::uint64_t seed, std::uint64_t jobs) {
#ifdef CCNVM_HAVE_AUDIT
  audit::CrashSweepConfig cfg;
  cfg.seed = seed;
  cfg.jobs = static_cast<std::size_t>(jobs);
  const audit::CrashSweepResult r =
      audit::run_crash_sweep(audit::SweepWorkload::kKv, cfg);
  std::printf("kv crash-kill sweep: zero lost, zero spurious\n");
  std::printf("  scenarios           %llu (crashes %llu, recoveries %llu)\n",
              static_cast<unsigned long long>(r.scenarios),
              static_cast<unsigned long long>(r.crashes),
              static_cast<unsigned long long>(r.recoveries));
  std::printf("  ops applied         %llu (killed mid-flight %llu)\n",
              static_cast<unsigned long long>(r.ops_applied),
              static_cast<unsigned long long>(r.in_flight_ops));
  std::printf("  keys / survivors    %llu / %llu\n",
              static_cast<unsigned long long>(r.verified),
              static_cast<unsigned long long>(r.survivors_scanned));
  std::printf("  events / checks     %llu / %llu (image verifications %llu)\n",
              static_cast<unsigned long long>(r.events_observed),
              static_cast<unsigned long long>(r.checks_performed),
              static_cast<unsigned long long>(r.image_verifications));
  return 0;
#else
  (void)seed;
  (void)jobs;
  std::fprintf(stderr, "this ccnvm was built with CCNVM_AUDIT=OFF\n");
  return 2;
#endif
}

#ifdef CCNVM_HAVE_AUDIT
std::optional<core::CcNvmDesign::ProtocolMutation> parse_planted_bug(
    const std::string& name) {
  using M = core::CcNvmDesign::ProtocolMutation;
  if (name == "none") return M::kNone;
  if (name == "leak-daq") return M::kLeakDaqEntry;
  if (name == "skip-nwb-reset") return M::kSkipNwbReset;
  if (name == "commit-before-end") return M::kCommitBeforeEnd;
  return std::nullopt;
}

void print_failures(const fuzz::FuzzCampaignResult& result,
                    const std::string& out_path) {
  for (const fuzz::FuzzFailure& f : result.failures) {
    const std::string first_line =
        f.message.substr(0, f.message.find('\n'));
    std::printf("FAIL iteration=%llu seed=%llu ops=%llu: %s\n",
                static_cast<unsigned long long>(f.iteration),
                static_cast<unsigned long long>(f.case_seed),
                static_cast<unsigned long long>(f.ops), first_line.c_str());
    std::printf("  repro: %s\n",
                f.repro(result.engine, result.file_backend).c_str());
  }
  if (!out_path.empty()) {
    if (std::FILE* out = std::fopen(out_path.c_str(), "w")) {
      for (const fuzz::FuzzFailure& f : result.failures) {
        std::fprintf(out, "%s\n",
                     f.repro(result.engine, result.file_backend).c_str());
      }
      std::fclose(out);
      std::printf("failing seeds written to %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    }
  }
}
#endif

int usage();

int cmd_fuzz(int argc, char** argv) {
#ifdef CCNVM_HAVE_AUDIT
  fuzz::FuzzConfig cfg;
  std::optional<std::uint64_t> replay;
  std::string out_path;
  bool engine_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* p) { return flag_value(arg, p); };
    if (const auto v = value_of("--engine=")) {
      const auto engine = fuzz::parse_engine(*v);
      if (!engine) {
        std::fprintf(stderr, "unknown engine '%s' (diff|crash|attack|txn)\n",
                     v->c_str());
        return 2;
      }
      cfg.engine = *engine;
      engine_set = true;
    } else if (const auto v = value_of("--seed=")) {
      const auto seed = parse_u64(*v);
      if (!seed) return usage();
      cfg.seed = *seed;
    } else if (const auto v = value_of("--jobs=")) {
      const auto jobs = parse_u64(*v);
      if (!jobs) return usage();
      cfg.jobs = static_cast<std::size_t>(*jobs);
    } else if (const auto v = value_of("--budget=")) {
      // Digits = case count; an 's' suffix = wall-clock seconds (timed
      // campaigns keep per-case determinism only).
      if (!v->empty() && v->back() == 's') {
        const auto secs = parse_u64(v->substr(0, v->size() - 1));
        if (!secs) return usage();
        cfg.seconds = static_cast<double>(*secs);
      } else {
        const auto iters = parse_u64(*v);
        if (!iters) return usage();
        cfg.iterations = *iters;
      }
    } else if (const auto v = value_of("--ops=")) {
      const auto ops = parse_u64(*v);
      if (!ops) return usage();
      cfg.max_ops = static_cast<std::size_t>(*ops);
    } else if (const auto v = value_of("--replay=")) {
      replay = parse_u64(*v);
      if (!replay) return usage();
    } else if (const auto v = value_of("--out=")) {
      out_path = *v;
    } else if (const auto v = value_of("--backend=")) {
      if (*v == "file") {
        cfg.file_backend = true;
      } else if (*v != "mem") {
        std::fprintf(stderr, "unknown backend '%s' (mem|file)\n", v->c_str());
        return 2;
      }
    } else if (const auto v = value_of("--planted-bug=")) {
      if (*v == "torn-txn") {
        // The txn engine's self-test: commit a txn but apply only half.
        cfg.planted_torn_txn = true;
        continue;
      }
      const auto bug = parse_planted_bug(*v);
      if (!bug) {
        std::fprintf(stderr,
                     "unknown planted bug '%s' "
                     "(none|leak-daq|skip-nwb-reset|commit-before-end|"
                     "torn-txn)\n",
                     v->c_str());
        return 2;
      }
      cfg.planted_bug = *bug;
    } else if (arg == "--no-minimize") {
      cfg.minimize = false;
    } else {
      return usage();
    }
  }
  if (!engine_set) return usage();

  if (replay) {
    // Single-case replay of a reported failure seed.
    CheckThrowScope throw_scope;
    const fuzz::CaseOutcome outcome =
        fuzz::run_fuzz_case(cfg.engine, *replay, cfg.max_ops, cfg.planted_bug,
                            cfg.file_backend, cfg.planted_torn_txn);
    if (outcome.ok) {
      std::printf("replay %llu on %s: ok (%llu ops, digest %016llx)\n",
                  static_cast<unsigned long long>(*replay),
                  std::string(fuzz::engine_name(cfg.engine)).c_str(),
                  static_cast<unsigned long long>(outcome.ops),
                  static_cast<unsigned long long>(outcome.digest));
      return 0;
    }
    std::printf("replay %llu on %s: FAIL\n%s\n",
                static_cast<unsigned long long>(*replay),
                std::string(fuzz::engine_name(cfg.engine)).c_str(),
                outcome.message.c_str());
    return 1;
  }

  const fuzz::FuzzCampaignResult result = fuzz::run_fuzz_campaign(cfg);
  std::printf("fuzz %s: %llu cases, seed %llu, digest %016llx\n",
              std::string(fuzz::engine_name(result.engine)).c_str(),
              static_cast<unsigned long long>(result.iterations),
              static_cast<unsigned long long>(result.seed),
              static_cast<unsigned long long>(result.digest));
  std::printf("  ops %llu  crashes %llu  recoveries %llu  attacks %llu\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.crashes),
              static_cast<unsigned long long>(result.recoveries),
              static_cast<unsigned long long>(result.attacks));
  std::printf("  reads compared %llu  checks %llu  failures %llu\n",
              static_cast<unsigned long long>(result.reads_compared),
              static_cast<unsigned long long>(result.checks),
              static_cast<unsigned long long>(result.failures.size()));
  if (result.engine == fuzz::Engine::kTxn) {
    std::printf("  txns aborted %llu  power cuts inside an abort %llu\n",
                static_cast<unsigned long long>(result.aborts),
                static_cast<unsigned long long>(result.abort_cuts));
  }
  if (!result.ok()) {
    print_failures(result, out_path);
    return 1;
  }
  return 0;
#else
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "this ccnvm was built with CCNVM_AUDIT=OFF\n");
  return 2;
#endif
}

int cmd_crashd(int argc, char** argv) {
#ifdef CCNVM_HAVE_AUDIT
  if (argc < 3) return usage();
  const std::string sub = argv[2];

  std::string image;
  std::uint64_t index = 0;
  crashd::SweepConfig cfg;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* p) { return flag_value(arg, p); };
    if (const auto v = value_of("--image=")) {
      image = *v;
    } else if (const auto v = value_of("--seed=")) {
      const auto s = parse_u64(*v);
      if (!s) return usage();
      cfg.seed = *s;
    } else if (const auto v = value_of("--index=")) {
      const auto idx = parse_u64(*v);
      if (!idx) return usage();
      index = *idx;
    } else if (const auto v = value_of("--scenarios=")) {
      const auto n = parse_u64(*v);
      if (!n) return usage();
      cfg.scenarios = *n;
    } else if (const auto v = value_of("--jobs=")) {
      const auto jobs = parse_u64(*v);
      if (!jobs) return usage();
      cfg.jobs = static_cast<std::size_t>(*jobs);
    } else if (const auto v = value_of("--dir=")) {
      cfg.work_dir = *v;
    } else if (arg == "--keep") {
      cfg.keep_files = true;
    } else if (arg == "--service" || arg == "--txn") {
      // One family per run: a second family flag is a usage error.
      if (cfg.family != crashd::Family::kSingle) return usage();
      cfg.family =
          arg == "--txn" ? crashd::Family::kTxn : crashd::Family::kService;
    } else if (const auto v = value_of("--design=")) {
      cfg.design = *v;
    } else {
      return usage();
    }
  }
  // run_sweep validates its own copy; worker/verify need the parse here.
  crashd::DesignPin pin_storage;
  if (const std::string why = crashd::parse_sweep_pin(cfg, pin_storage);
      !why.empty()) {
    std::fprintf(stderr, "%s\n", why.c_str());
    return 2;
  }
  const crashd::DesignPin* pin = cfg.design.empty() ? nullptr : &pin_storage;

  if (sub == "worker") {
    if (image.empty()) return usage();
    // No CheckThrowScope: a broken invariant in the worker must abort,
    // which the sweep reports as an unexpected wait status.
    return crashd::run_worker(cfg.family, image, cfg.seed, index, pin);
  }
  if (sub == "verify") {
    if (image.empty()) return usage();
    CheckThrowScope throw_scope;
    const crashd::VerifyResult r =
        crashd::verify(cfg.family, image, cfg.seed, index, pin);
    const std::string desc =
        crashd::describe(cfg.family, cfg.seed, index, pin);
    std::printf("scenario %llu [%s]: %s\n",
                static_cast<unsigned long long>(index), desc.c_str(),
                r.ok ? "ok" : "FAIL");
    if (!r.ok) {
      std::printf("  %s\n", r.message.c_str());
      return 1;
    }
    std::printf("  killed=%d acked=%llu keys=%llu checks=%llu attack=%d\n",
                r.worker_was_killed ? 1 : 0,
                static_cast<unsigned long long>(r.acked_ops),
                static_cast<unsigned long long>(r.keys_checked),
                static_cast<unsigned long long>(r.auditor_checks),
                r.attack_checked ? 1 : 0);
    return 0;
  }
  if (sub == "sweep") {
    const crashd::SweepResult r = crashd::run_sweep(cfg);
    std::printf("crashd kill-9 sweep: %s\n",
                r.ok() ? "zero lost acked ops, zero auditor violations"
                       : "FAILURES");
    std::printf("  scenarios           %llu (killed %llu, clean %llu, "
                "attack %llu)\n",
                static_cast<unsigned long long>(r.scenarios),
                static_cast<unsigned long long>(r.killed),
                static_cast<unsigned long long>(r.clean_exits),
                static_cast<unsigned long long>(r.attack_scenarios));
    std::printf("  acked ops verified  %llu\n",
                static_cast<unsigned long long>(r.acked_ops));
    std::printf("  auditor checks      %llu\n",
                static_cast<unsigned long long>(r.auditor_checks));
    for (const std::string& f : r.failures) {
      std::printf("FAIL %s\n", f.c_str());
      std::printf("  repro: ccnvm crashd verify --image=<kept> --seed=%llu "
                  "--index=<i> (rerun sweep with --keep --dir=D)\n",
                  static_cast<unsigned long long>(cfg.seed));
    }
    return r.ok() ? 0 : 1;
  }
  return usage();
#else
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "this ccnvm was built with CCNVM_AUDIT=OFF\n");
  return 2;
#endif
}

/// `ccnvm nvlint [path]...` — run the persist-ordering static analyzer
/// (tools/nvlint, docs/LINT.md) over the given trees; defaults to src/
/// relative to the current directory.
int cmd_nvlint(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) paths.emplace_back(argv[i]);
  if (paths.empty()) paths.emplace_back("src");
  return nvlint::run_lint(paths, nvlint::Config{}, stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: ccnvm list\n"
               "       ccnvm geometry <MiB>\n"
               "       ccnvm run <workload> <design> [refs=300000]\n"
               "       ccnvm compare <workload> [refs=300000]\n"
               "       ccnvm demo <recovery|attack>\n"
               "       ccnvm audit [seed=1] [jobs=1]\n"
               "       ccnvm kv run <ycsb-a|b|c|d|f> <design> [ops=20000] "
               "[records=2000]\n"
               "       ccnvm kv serve [--threads=4] [--shards=0] [--ops=256]\n"
               "             [--records=128] [--workload=ycsb-a] "
               "[--max-batch=32]\n"
               "             [--max-delay-us=200] [--durable] [--seed=1]\n"
               "       ccnvm kv sweep [seed=1] [jobs=1]\n"
               "       ccnvm fuzz --engine=<diff|crash|attack|txn> "
               "[--seed=1]\n"
               "             [--budget=256|30s] [--jobs=1] [--ops=48]\n"
               "             [--backend=mem|file] [--replay=CASE_SEED] "
               "[--out=FILE]\n"
               "             [--planted-bug=NAME] [--no-minimize]\n"
               "       ccnvm crashd sweep [--scenarios=200] [--seed=1]\n"
               "             [--jobs=1] [--dir=DIR] [--keep] "
               "[--service|--txn|--design=NAME]\n"
               "       ccnvm crashd <worker|verify> --image=FILE --seed=S "
               "--index=I [--service|--txn|--design=NAME]\n"
               "       ccnvm nvlint [path=src]...\n"
               "designs: wocc sc osiris ccnvm-nods ccnvm ccnvm-plus "
               "triad[-nK] phoenix\n");
  return 2;
}

/// argv[i] as a checked number, or `fallback` when argv is too short.
/// nullopt means a malformed argument (caller prints usage).
std::optional<std::uint64_t> arg_u64(int argc, char** argv, int i,
                                     std::uint64_t fallback) {
  if (argc <= i) return fallback;
  return parse_u64(argv[i]);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "list") return cmd_list();
  if (cmd == "geometry" && argc >= 3) {
    const auto mib = parse_u64(argv[2]);
    return mib ? cmd_geometry(*mib) : usage();
  }
  if (cmd == "run" && argc >= 4) {
    const auto refs = arg_u64(argc, argv, 4, 300000);
    return refs ? cmd_run(argv[2], argv[3], *refs) : usage();
  }
  if (cmd == "compare" && argc >= 3) {
    const auto refs = arg_u64(argc, argv, 3, 300000);
    return refs ? cmd_compare(argv[2], *refs) : usage();
  }
  if (cmd == "demo" && argc >= 3) return cmd_demo(argv[2]);
  if (cmd == "audit") {
    const auto seed = arg_u64(argc, argv, 2, 1);
    const auto jobs = arg_u64(argc, argv, 3, 1);
    return seed && jobs ? cmd_audit(*seed, *jobs) : usage();
  }
  if (cmd == "fuzz") return cmd_fuzz(argc, argv);
  if (cmd == "crashd") return cmd_crashd(argc, argv);
  if (cmd == "nvlint") return cmd_nvlint(argc, argv);
  if (cmd == "kv" && argc >= 3) {
    const std::string sub = argv[2];
    if (sub == "run" && argc >= 5) {
      const auto ops = arg_u64(argc, argv, 5, 20000);
      const auto records = arg_u64(argc, argv, 6, 2000);
      if (!ops || !records) return usage();
      return cmd_kv_run(argv[3], argv[4], *ops, *records);
    }
    if (sub == "serve") return cmd_kv_serve(argc, argv);
    if (sub == "sweep") {
      const auto seed = arg_u64(argc, argv, 3, 1);
      const auto jobs = arg_u64(argc, argv, 4, 1);
      return seed && jobs ? cmd_kv_sweep(*seed, *jobs) : usage();
    }
    return usage();
  }
  return usage();
}
