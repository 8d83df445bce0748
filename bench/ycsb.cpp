// YCSB over the KV service layer: every core workload (A/B/C/D/F) against
// the five evaluated designs, reporting ops/s and NVM write traffic
// normalized to the w/o CC baseline — the paper's write-efficiency story
// (Fig. 5b) retold at the key-value API instead of raw write-backs.
//
//   ycsb [--smoke] [--json out.json] [out.csv]
//   ycsb --threads=N [--workload=ycsb-a] [--in-memory] [--smoke]
//        [--json out.json]
//   ycsb --txn [--threads=N] [--in-memory] [--smoke] [--json out.json]
//
// --smoke shrinks the record/op counts so the binary doubles as a CI
// check (every cell still runs, through the same code path).
// --json writes the machine-readable baseline record (per-cell ops/s and
// the run's wall-clock; schema in docs/PERF.md).
//
// --threads=N switches to the concurrent-service scaling mode: N blocking
// client threads drive a KvService (per-shard MPSC queues, group-commit
// barriers; docs/SERVICE.md) on durable kBarrier media, and the bench
// reports the throughput-vs-threads curve at 1, 2, 4, ... N clients. The
// scaling comes from barrier amortization — one msync + fsync barrier
// retires a whole batch — so the ratio column against 1 thread is the
// group-commit payoff. Each cell takes the best of three repetitions
// (co-tenant noise on shared machines hits the slow barriers hardest) and
// every repetition must verify bit-identically against the replayed model.
//
// --txn switches to the YCSB-T-like transactional mix: clients issue
// 2-4-key transactions through KvService::submit_txn (80% atomic
// multi-key rewrites, 20% read-only snapshots), and the bench reports
// txns/s per client count plus the multi-shard commit share — the cost
// of the one-barrier-per-shard prepare/decide/finalize protocol under
// load. Same best-of-three + exact-verification discipline.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/design.h"
#include "crypto/dispatch.h"
#include "service/service_bench.h"
#include "sim/report.h"
#include "store/ycsb_runner.h"

namespace {

/// `ycsb --threads=N`: the service scaling curve. Returns the process
/// exit code (non-zero when any repetition fails verification).
int run_scaling_mode(std::size_t max_threads, const std::string& workload,
                     bool durable, bool smoke, const std::string& json_path) {
  using namespace ccnvm;
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::size_t> counts{1};
  for (std::size_t c = 2; c < max_threads; c *= 2) counts.push_back(c);
  if (max_threads > 1) counts.push_back(max_threads);

  const std::size_t reps = smoke ? 1 : 3;
  std::printf("=== KV service scaling: %s, %s media, best of %zu ===\n\n",
              workload.c_str(), durable ? "durable (msync per barrier)"
                                        : "in-memory",
              reps);
  std::printf("%8s %12s %8s %8s %10s %10s   %s\n", "threads", "ops/s",
              "vs 1T", "amort", "avg-batch", "max-batch", "digest");

  sim::BenchJson doc;
  doc.bench = smoke ? "ycsb-service-smoke" : "ycsb-service";
  doc.crypto_aes = crypto::impl_name(crypto::active_aes_impl());
  doc.crypto_sha1 = crypto::impl_name(crypto::active_sha1_impl());
  doc.crypto_sha1_many = crypto::impl_name(crypto::active_sha1_many_impl());

  bool ok = true;
  double base_ops_per_sec = 0.0;
  for (const std::size_t threads : counts) {
    service::ServiceBenchOptions opts;
    opts.workload = workload;
    opts.threads = threads;
    opts.durable = durable;
    if (smoke) {
      opts.records_per_thread = 64;
      opts.ops_per_thread = 96;
    }
    service::ServiceBenchResult best;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const service::ServiceBenchResult r = service::run_service_ycsb(opts);
      if (!r.verified) {
        std::printf("%8zu  VERIFICATION FAILED: %s\n", threads,
                    r.failure.c_str());
        ok = false;
        break;
      }
      if (rep > 0 && r.digest != best.digest) {
        std::printf("%8zu  digest drift across repetitions\n", threads);
        ok = false;
        break;
      }
      if (rep == 0 || r.ops_per_sec > best.ops_per_sec) best = r;
    }
    if (!ok) break;
    if (threads == 1) base_ops_per_sec = best.ops_per_sec;
    const double scaling =
        base_ops_per_sec > 0.0 ? best.ops_per_sec / base_ops_per_sec : 0.0;
    const double avg_batch =
        best.stats.batches != 0
            ? static_cast<double>(best.stats.batched_ops) /
                  static_cast<double>(best.stats.batches)
            : 0.0;
    std::printf("%8zu %12.0f %7.2fx %7.2fx %10.2f %10llu   %016llx\n",
                threads, best.ops_per_sec, scaling,
                best.stats.amortization(), avg_batch,
                static_cast<unsigned long long>(best.stats.max_batch),
                static_cast<unsigned long long>(best.digest));
    const std::string suffix = "/t" + std::to_string(threads);
    doc.metrics.push_back(
        {"service_ops_per_sec" + suffix, best.ops_per_sec, "ops/s"});
    doc.metrics.push_back({"service_scaling" + suffix, scaling, "x"});
    doc.metrics.push_back(
        {"service_amortization" + suffix, best.stats.amortization(), "x"});
  }

  std::printf("\n(one persist barrier per batch: the vs-1T column is the\n"
              " group-commit payoff; every row verified bit-identical\n"
              " against the replayed model and audited clean)\n");
  if (!json_path.empty() && ok) {
    doc.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!sim::write_bench_json(json_path, doc)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json written to %s; wall %.3fs)\n", json_path.c_str(),
                doc.wall_seconds);
  }
  return ok ? 0 : 1;
}

/// `ycsb --txn`: the transactional-mix scaling curve. Returns the
/// process exit code (non-zero when any repetition fails verification).
int run_txn_mode(std::size_t max_threads, bool durable, bool smoke,
                 const std::string& json_path) {
  using namespace ccnvm;
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::size_t> counts{1};
  for (std::size_t c = 2; c < max_threads; c *= 2) counts.push_back(c);
  if (max_threads > 1) counts.push_back(max_threads);

  const std::size_t reps = smoke ? 1 : 3;
  std::printf("=== KV txn mix (2-4 keys/txn, 80%% update / 20%% read-only), "
              "%s media, best of %zu ===\n\n",
              durable ? "durable (msync per barrier)" : "in-memory", reps);
  std::printf("%8s %12s %8s %12s %10s   %s\n", "threads", "txns/s", "vs 1T",
              "multi-shard", "aborts", "digest");

  sim::BenchJson doc;
  doc.bench = smoke ? "ycsb-txn-smoke" : "ycsb-txn";
  doc.crypto_aes = crypto::impl_name(crypto::active_aes_impl());
  doc.crypto_sha1 = crypto::impl_name(crypto::active_sha1_impl());
  doc.crypto_sha1_many = crypto::impl_name(crypto::active_sha1_many_impl());

  bool ok = true;
  double base_txns_per_sec = 0.0;
  for (const std::size_t threads : counts) {
    service::TxnMixOptions opts;
    opts.threads = threads;
    opts.durable = durable;
    if (smoke) {
      opts.records_per_thread = 32;
      opts.txns_per_thread = 48;
    }
    service::ServiceBenchResult best;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const service::ServiceBenchResult r = service::run_service_txn_mix(opts);
      if (!r.verified) {
        std::printf("%8zu  VERIFICATION FAILED: %s\n", threads,
                    r.failure.c_str());
        ok = false;
        break;
      }
      if (rep > 0 && r.digest != best.digest) {
        std::printf("%8zu  digest drift across repetitions\n", threads);
        ok = false;
        break;
      }
      if (rep == 0 || r.ops_per_sec > best.ops_per_sec) best = r;
    }
    if (!ok) break;
    if (threads == 1) base_txns_per_sec = best.ops_per_sec;
    const double scaling =
        base_txns_per_sec > 0.0 ? best.ops_per_sec / base_txns_per_sec : 0.0;
    const double multi_share =
        best.stats.txns != 0
            ? static_cast<double>(best.stats.multi_shard_txns) /
                  static_cast<double>(best.stats.txns)
            : 0.0;
    std::printf("%8zu %12.0f %7.2fx %11.0f%% %10llu   %016llx\n", threads,
                best.ops_per_sec, scaling, multi_share * 100.0,
                static_cast<unsigned long long>(best.stats.failed_txns),
                static_cast<unsigned long long>(best.digest));
    const std::string suffix = "/t" + std::to_string(threads);
    doc.metrics.push_back(
        {"txn_mix_txns_per_sec" + suffix, best.ops_per_sec, "txns/s"});
    doc.metrics.push_back({"txn_mix_scaling" + suffix, scaling, "x"});
    doc.metrics.push_back(
        {"txn_mix_multi_shard_share" + suffix, multi_share, "x"});
  }

  std::printf("\n(every committed txn paid one group-commit barrier per\n"
              " touched shard; every row verified exactly against the\n"
              " replayed model, audited clean, and aborted nothing)\n");
  if (!json_path.empty() && ok) {
    doc.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!sim::write_bench_json(json_path, doc)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json written to %s; wall %.3fs)\n", json_path.c_str(),
                doc.wall_seconds);
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccnvm;

  bool smoke = false;
  bool in_memory = false;
  bool txn = false;
  std::size_t threads = 0;
  std::string scaling_workload = "ycsb-a";
  std::string csv_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--in-memory") == 0) {
      in_memory = true;
    } else if (std::strcmp(argv[i], "--txn") == 0) {
      txn = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<std::size_t>(std::strtoul(argv[i] + 10, nullptr, 10));
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
      scaling_workload = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      csv_path = argv[i];
    }
  }
  if (txn) {
    return run_txn_mode(threads > 0 ? threads : 8, !in_memory, smoke,
                        json_path);
  }
  if (threads > 0) {
    return run_scaling_mode(threads, scaling_workload, !in_memory, smoke,
                            json_path);
  }
  const auto t0 = std::chrono::steady_clock::now();

  const std::vector<core::DesignKind> kinds = {
      core::DesignKind::kWoCc, core::DesignKind::kStrict,
      core::DesignKind::kOsirisPlus, core::DesignKind::kCcNvmNoDs,
      core::DesignKind::kCcNvm};

  std::printf("=== YCSB on the secure KV store: writes normalized to "
              "w/o CC ===\n\n");
  std::printf("%-8s %8s", "workload", "ops");
  for (core::DesignKind kind : kinds) {
    std::printf(" %12s", std::string(core::design_name(kind)).c_str());
  }
  std::printf("\n");

  std::vector<sim::KvCsvRow> csv_rows;
  for (trace::YcsbWorkload workload : trace::ycsb_workloads()) {
    if (smoke) workload.record_count = 100;
    store::YcsbRunOptions options;
    options.ops = smoke ? 150 : 6000;
    // Workload D inserts ~5% of ops on top of the loaded records.
    const std::uint64_t peak_keys =
        workload.record_count + options.ops / 16 + 64;
    const store::StoreConfig store_config = store::StoreConfig::sized_for(
        peak_keys, workload.value_bytes);
    core::DesignConfig design_config;
    design_config.data_capacity = store::capacity_for(store_config);

    std::printf("%-8s %8llu", workload.name.c_str(),
                static_cast<unsigned long long>(options.ops));
    double wocc_writes = 0.0;
    for (core::DesignKind kind : kinds) {
      auto design = core::make_design(kind, design_config);
      auto& base = dynamic_cast<core::SecureNvmBase&>(*design);
      const store::YcsbRunResult r =
          store::run_ycsb_workload(base, store_config, workload, options);
      const double writes = static_cast<double>(r.traffic.total_writes());
      if (kind == core::DesignKind::kWoCc) wocc_writes = writes;
      const double norm = wocc_writes > 0.0 ? writes / wocc_writes : 0.0;
      std::printf(" %12.3f", norm);
      csv_rows.push_back(sim::KvCsvRow{
          workload.name, std::string(core::design_name(kind)), r.ops,
          r.ops_per_sec(), r.traffic.total_writes(), r.writes_per_op(),
          norm});
    }
    std::printf("\n");
  }

  std::printf("\n(per-design columns: NVM writes / w/o CC writes; the cc\n"
              " designs' overhead is the price of crash consistency +\n"
              " security at the KV API)\n");
  if (!csv_path.empty()) {
    if (!sim::write_kv_csv(csv_path, csv_rows)) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("\n(csv written to %s)\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    sim::BenchJson doc;
    doc.bench = smoke ? "ycsb-smoke" : "ycsb";
    doc.crypto_aes = crypto::impl_name(crypto::active_aes_impl());
    doc.crypto_sha1 = crypto::impl_name(crypto::active_sha1_impl());
  doc.crypto_sha1_many = crypto::impl_name(crypto::active_sha1_many_impl());
    doc.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    for (const sim::KvCsvRow& row : csv_rows) {
      doc.metrics.push_back({"ops_per_sec/" + row.workload + "/" + row.design,
                             row.ops_per_sec, "ops/s"});
    }
    if (!sim::write_bench_json(json_path, doc)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json written to %s; wall %.3fs; crypto aes=%s sha1=%s)\n",
                json_path.c_str(), doc.wall_seconds, doc.crypto_aes.c_str(),
                doc.crypto_sha1.c_str());
  }
  return 0;
}
