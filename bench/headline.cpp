// Headline claims of the abstract, §2.3 and §6, regenerated in one run:
//   - naive strict consistency deteriorates performance by 41.4% and
//     increases memory writes by 5.5x vs the no-crash-consistency system;
//   - cc-NVM improves IPC by 20.4% over Osiris Plus while adding 29.6%
//     write traffic, buying locate-after-crash protection.
//
//   headline [--json out.json]
//
// --json additionally writes the machine-readable baseline record
// (per-design geomean IPC/writes, the claim deltas, and the run's
// wall-clock; schema in docs/PERF.md) that CI tracks as
// BENCH_headline.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/cc_nvm.h"
#include "core/design.h"
#include "core/persistence.h"
#include "crypto/dispatch.h"
#include "crypto/hmac_sha1.h"
#include "crypto/otp.h"
#include "crypto/sha1.h"
#include "nvm/file_backend.h"
#include "nvm/image.h"
#include "service/service_bench.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"
#include "trace/ycsb.h"

namespace {

/// Ops/s of `fn` over a fixed wall budget. Batches of 64 keep the clock
/// off the hot path; ~40ms is enough for a stable geomean while keeping
/// the whole micro suite under half a second.
template <typename Fn>
double measure_ops_per_sec(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  constexpr auto kBudget = std::chrono::milliseconds(40);
  const auto start = clock::now();
  const auto deadline = start + kBudget;
  std::uint64_t ops = 0;
  while (clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) fn();
    ops += 64;
  }
  const double secs = std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(ops) / secs;
}

/// kvbench kv-b-large's engine: a store sized for 65 536 ycsb-b records
/// on one shard, update limit 2^20, 1 024-entry DAQ and WPQ.
ccnvm::store::StoreConfig kv_b_large_store() {
  return ccnvm::store::StoreConfig::sized_for(
      65536, ccnvm::trace::ycsb_by_name("ycsb-b").value_bytes, /*shards=*/1);
}

ccnvm::core::DesignConfig kv_b_large_design(
    const ccnvm::store::StoreConfig& scfg) {
  ccnvm::core::DesignConfig dcfg;
  dcfg.data_capacity = ccnvm::store::capacity_for(scfg);
  dcfg.update_limit = 1u << 20;
  dcfg.daq_entries = 1024;
  dcfg.wpq_entries = 1024;
  return dcfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccnvm;

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc &&
        argv[i + 1][0] != '-') {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json FILE]\n", argv[0]);
      return 2;
    }
  }

  sim::ExperimentConfig config;
  const auto t0 = std::chrono::steady_clock::now();
  const auto rows = sim::run_figure5_grid(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  struct Claim {
    const char* text;
    double paper;
    double measured;
  };
  const double ipc_sc = sim::geomean_ipc(rows, core::DesignKind::kStrict);
  const double ipc_op = sim::geomean_ipc(rows, core::DesignKind::kOsirisPlus);
  const double ipc_cc = sim::geomean_ipc(rows, core::DesignKind::kCcNvm);
  const double wr_sc = sim::geomean_writes(rows, core::DesignKind::kStrict);
  const double wr_op =
      sim::geomean_writes(rows, core::DesignKind::kOsirisPlus);
  const double wr_cc = sim::geomean_writes(rows, core::DesignKind::kCcNvm);

  const Claim claims[] = {
      {"SC performance loss vs w/o CC (%)", 41.4, (1.0 - ipc_sc) * 100.0},
      {"SC write amplification vs w/o CC (x)", 5.5, wr_sc},
      {"cc-NVM IPC gain over Osiris Plus (%)", 20.4,
       (ipc_cc / ipc_op - 1.0) * 100.0},
      {"cc-NVM extra writes vs Osiris Plus (%)", 29.6,
       (wr_cc / wr_op - 1.0) * 100.0},
      {"cc-NVM IPC loss vs w/o CC (%)", 18.7, (1.0 - ipc_cc) * 100.0},
      {"cc-NVM writes vs w/o CC (+%)", 39.0, (wr_cc - 1.0) * 100.0},
  };

  std::printf("=== Headline claims: paper vs this reproduction ===\n\n");
  std::printf("%-42s %10s %10s\n", "claim", "paper", "measured");
  for (const Claim& c : claims) {
    std::printf("%-42s %10.1f %10.1f\n", c.text, c.paper, c.measured);
  }

  if (!json_path.empty()) {
    sim::BenchJson doc;
    doc.bench = "headline";
    doc.crypto_aes = crypto::impl_name(crypto::active_aes_impl());
    doc.crypto_sha1 = crypto::impl_name(crypto::active_sha1_impl());
    doc.crypto_sha1_many =
        crypto::impl_name(crypto::active_sha1_many_impl());
    doc.wall_seconds = wall;
    const struct {
      const char* name;
      core::DesignKind kind;
    } designs[] = {
        {"strict", core::DesignKind::kStrict},
        {"osiris_plus", core::DesignKind::kOsirisPlus},
        {"cc_nvm", core::DesignKind::kCcNvm},
    };
    for (const auto& d : designs) {
      doc.metrics.push_back({std::string("geomean_ipc_norm/") + d.name,
                             sim::geomean_ipc(rows, d.kind), "x"});
      doc.metrics.push_back({std::string("geomean_writes_norm/") + d.name,
                             sim::geomean_writes(rows, d.kind), "x"});
    }
    for (const Claim& c : claims) {
      doc.metrics.push_back({std::string("claim/") + c.text, c.measured, ""});
    }

    // Crypto micro-throughputs: the hot primitives of every simulated
    // access, measured directly so the CI perf gate (tools/bench_gate)
    // catches regressions the normalized claim ratios can't see — IPC
    // norms divide out a uniformly slower crypto layer.
    const crypto::HmacKey hmac_key = crypto::HmacKey::from_seed(2019);
    const crypto::HmacEngine hmac(hmac_key);
    const crypto::Aes128 aes(crypto::Aes128::key_from_seed(2019));
    Line line{};
    for (std::size_t i = 0; i < kLineSize; ++i) {
      line[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    std::uint64_t sink = 0;
    doc.metrics.push_back(
        {"throughput/hmac_line_tag", measure_ops_per_sec([&] {
           const Tag128 t = hmac.tag({line.data(), line.size()});
           sink += t.bytes[0];
         }),
         "ops/s"});
    // Multi-buffer tagging: 8 lines per call through tag_many, reported
    // in tags/s so it compares directly against hmac_line_tag. On an
    // AVX2 host this is the batch speedup the drain / scan paths see; on
    // the serial tier it degenerates to the per-call number.
    std::array<Line, 8> batch_lines;
    for (std::size_t b = 0; b < batch_lines.size(); ++b) {
      for (std::size_t i = 0; i < kLineSize; ++i) {
        batch_lines[b][i] = static_cast<std::uint8_t>(i * 31 + 7 * b + 3);
      }
    }
    std::array<crypto::LineRef, 8> batch_refs;
    for (std::size_t b = 0; b < batch_refs.size(); ++b) {
      batch_refs[b] = {batch_lines[b].data(), batch_lines[b].size()};
    }
    std::array<Tag128, 8> batch_tags;
    doc.metrics.push_back(
        {"throughput/hmac_tag_many_8",
         8.0 * measure_ops_per_sec([&] {
           hmac.tag_many(batch_refs, batch_tags);
           sink += batch_tags[0].bytes[0];
         }),
         "tags/s"});
    doc.metrics.push_back(
        {"throughput/otp_pad", measure_ops_per_sec([&] {
           const Line pad =
               crypto::generate_otp(aes, (sink % 64) * kLineSize, {3, 5});
           sink += pad[0];
         }),
         "ops/s"});
    crypto::Aes128::Block block{};
    doc.metrics.push_back({"throughput/aes_block", measure_ops_per_sec([&] {
                             block = aes.encrypt(block);
                             sink += block[0];
                           }),
                           "ops/s"});
    std::vector<std::uint8_t> big(64 * 1024);
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i);
    }
    doc.metrics.push_back(
        {"throughput/sha1_64k", measure_ops_per_sec([&] {
           sink += crypto::Sha1::hash({big.data(), big.size()})[0];
         }),
         "ops/s"});
    // Pure ALU spin: crypto-free machine-speed probe. bench_gate divides
    // the throughput ratios by this ratio so a slower/throttled CI host
    // doesn't read as a code regression. The empty asm makes `x` opaque at
    // every step; without it the compiler folds the 256-step affine chain
    // into one multiply-add and the spin reads ~1000x the host's speed.
    doc.metrics.push_back({"calibration/spin", measure_ops_per_sec([&] {
                             std::uint64_t x = sink | 1;
                             for (int i = 0; i < 256; ++i) {
                               x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                               asm volatile("" : "+r"(x));
                             }
                             sink += x;
                           }),
                           "ops/s"});
    // A volatile store keeps the measured work observable.
    const volatile std::uint64_t observed_sink = sink;
    (void)observed_sink;

    // Concurrent KV service throughput (docs/SERVICE.md): N blocking
    // clients over group-commit drain workers, in-memory media so the
    // numbers are CPU-bound and bench_gate's spin normalization applies.
    // The amortization metric is structural (mutations per barrier at 8
    // clients), so it rides along ungated as a sanity record.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
      service::ServiceBenchOptions opts;
      opts.threads = threads;
      opts.records_per_thread = 128;
      opts.ops_per_thread = 256;
      const service::ServiceBenchResult r = service::run_service_ycsb(opts);
      if (!r.verified) {
        std::fprintf(stderr, "kv service bench failed verification: %s\n",
                     r.failure.c_str());
        return 1;
      }
      doc.metrics.push_back(
          {"throughput/kv_service_threads_" + std::to_string(threads),
           r.ops_per_sec, "ops/s"});
      if (threads == 8) {
        doc.metrics.push_back({"service/group_commit_amortization",
                               r.stats.amortization(), "x"});
      }
    }

    // Transactional mix (docs/SERVICE.md, Transactions): 2-4-key txns
    // through submit_txn, 80% atomic rewrites / 20% read-only snapshots,
    // 8 clients. Gated like the other throughput metrics; the
    // multi-shard share rides along ungated so a routing change that
    // quietly stopped exercising cross-shard 2PC is visible in the json.
    {
      service::TxnMixOptions topts;
      topts.threads = 8;
      // Pinned, not per-core: the metric must price the cross-shard
      // prepare/decide/finalize path on every host, including 1-core CI
      // runners where the per-core default would degenerate to local
      // commits.
      topts.service_shards = 2;
      topts.records_per_thread = 128;
      topts.txns_per_thread = 192;
      const service::ServiceBenchResult r = service::run_service_txn_mix(topts);
      if (!r.verified) {
        std::fprintf(stderr, "kv txn mix bench failed verification: %s\n",
                     r.failure.c_str());
        return 1;
      }
      doc.metrics.push_back(
          {"throughput/kv_txn_mix", r.ops_per_sec, "txns/s"});
      doc.metrics.push_back(
          {"service/txn_multi_shard_share",
           r.stats.txns != 0
               ? static_cast<double>(r.stats.multi_shard_txns) /
                     static_cast<double>(r.stats.txns)
               : 0.0,
           "x"});
    }

    // Store load rate: direct SecureKvStore::puts into one in-memory
    // cc-NVM engine of kvbench kv-b-large's geometry (a store sized for
    // 65 536 ycsb-b records; one engine's half loaded). Every put is a
    // value write-back, its metadata walk and the bucket header flip, so
    // this prices the line path of the media (nvm::MapBackend and the
    // wear counters) as much as the crypto.
    {
      constexpr std::uint64_t kRecords = 65536;
      const std::uint32_t value_bytes =
          trace::ycsb_by_name("ycsb-b").value_bytes;
      const store::StoreConfig scfg = kv_b_large_store();
      auto design = core::make_design(core::DesignKind::kCcNvm,
                                      kv_b_large_design(scfg));
      store::SecureKvStore kv(dynamic_cast<core::SecureNvmBase&>(*design),
                              scfg);
      std::string value(value_bytes, 'v');
      const auto l0 = std::chrono::steady_clock::now();
      for (std::uint64_t k = 0; k < kRecords / 2; ++k) {
        value[k % value_bytes] = static_cast<char>('a' + k % 26);
        if (!kv.put(trace::YcsbGenerator::key_name(k), value)) {
          std::fprintf(stderr, "store load bench: put %llu failed\n",
                       static_cast<unsigned long long>(k));
          return 1;
        }
      }
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - l0)
                              .count();
      doc.metrics.push_back({"throughput/kv_store_load",
                             static_cast<double>(kRecords / 2) / secs,
                             "puts/s"});
    }

    // One full DAQ drain at the same geometry, the case a per-line WPQ
    // scan makes quadratic: write-backs to pages 0, 1, 2, ... fill the
    // 1 024-entry DAQ to within one write-back's metadata path (untimed),
    // then force_drain() recomputes the tracked tree nodes and streams
    // every tracked line through the WPQ in one atomic batch. Every rep
    // dirties the same lines, which after the first stay in the Meta
    // Cache (a few per set), so no eviction drains early and every drain
    // does the same work. The median of 15 drains, in drains/s.
    {
      auto design = core::make_design(core::DesignKind::kCcNvm,
                                      kv_b_large_design(kv_b_large_store()));
      auto& cc = dynamic_cast<core::CcNvmDesign&>(*design);
      const std::uint64_t pages = cc.layout().num_pages();
      const std::size_t path_lines = cc.layout().root_level();
      Line wline{};
      std::vector<double> drain_secs;
      for (int rep = 0; rep < 15; ++rep) {
        const std::uint64_t drains = cc.stats().drains;
        wline[0] = static_cast<std::uint8_t>(rep);
        for (std::uint64_t page = 0;
             cc.daq().free_entries() >= path_lines && page < pages; ++page) {
          cc.write_back(page * kPageSize, wline);
        }
        if (cc.stats().drains != drains) {
          std::fprintf(stderr, "wpq drain bench: a drain fired while "
                               "filling the DAQ\n");
          return 1;
        }
        const auto d0 = std::chrono::steady_clock::now();
        (void)cc.force_drain();
        drain_secs.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - d0)
                                 .count());
      }
      std::sort(drain_secs.begin(), drain_secs.end());
      doc.metrics.push_back({"throughput/wpq_drain_1024",
                             1.0 / drain_secs[drain_secs.size() / 2],
                             "drains/s"});
    }

    // Recovery/open cost: populate a file-backed cc-NVM store once, then
    // time the full reopen path — restore_from_power_down + recover() +
    // SecureKvStore::open()'s scan-rebuild, whose bucket-header sweep
    // runs through read_blocks and verifies data HMACs in SIMD lanes.
    // Best-of-3 wall milliseconds; lower is better (tools/bench_gate
    // scores the recovery/ prefix inverted).
    {
      const std::string img = json_path + ".scan.img";
      constexpr std::uint64_t kScanKeys = 1024;
      core::DesignConfig dcfg;
      dcfg.data_capacity = 1ull << 20;
      store::StoreConfig scfg;
      scfg.shards = 2;
      scfg.buckets_per_shard = 1024;
      scfg.heap_lines_per_shard = 4096;
      {
        core::DesignConfig build_cfg = dcfg;
        build_cfg.backend_factory = [&](std::uint64_t bytes) {
          return nvm::FileBackend::create(img, bytes);
        };
        auto design = core::make_design(core::DesignKind::kCcNvm, build_cfg);
        auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
        store::SecureKvStore kv(*base, scfg);
        std::string value(96, 'v');
        for (std::uint64_t k = 0; k < kScanKeys; ++k) {
          value[0] = static_cast<char>('a' + k % 26);
          if (!kv.put("scan-" + std::to_string(k), value)) {
            std::fprintf(stderr, "recovery bench: put %llu failed\n",
                         static_cast<unsigned long long>(k));
            return 1;
          }
        }
        base->quiesce();
      }  // design torn down; the image file survives
      double best_ms = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        const auto r0 = std::chrono::steady_clock::now();
        std::optional<core::PoweredDown> dimm = core::open_dimm(img);
        if (!dimm) {
          std::fprintf(stderr, "recovery bench: image reopen failed\n");
          return 1;
        }
        auto design = core::make_design(core::DesignKind::kCcNvm, dcfg);
        auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
        base->restore_from_power_down(std::move(dimm->image), dimm->tcb);
        const core::RecoveryReport report = design->recover();
        store::SecureKvStore kv = store::SecureKvStore::open(*base, scfg);
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - r0)
                .count();
        if (!report.clean || !report.metadata_recovered ||
            kv.size() != kScanKeys) {
          std::fprintf(stderr, "recovery bench: reopen verification failed\n");
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      std::remove(img.c_str());
      doc.metrics.push_back(
          {"recovery/open_scan_rebuild_ms", best_ms, "ms"});
    }

    // Barrier-baseline probes (the tradeoff_curve designs' two hot
    // paths), gated like the rest so a regression in the shared
    // propagate/persist machinery shows up even if the cc drain path
    // dodges it:
    //   - phoenix_writeback prices the persist-everything write-back
    //     (full-branch HMAC walk + atomic batch per op);
    //   - triad_n2_ms prices the rebuild-above-the-frontier recovery
    //     (levels 3..root recomputed from the persisted level 2).
    {
      core::DesignConfig pcfg;
      pcfg.data_capacity = 64 * kPageSize;
      auto phoenix = core::make_design(core::DesignKind::kPhoenix, pcfg);
      Line wline{};
      std::uint64_t at = 0;
      doc.metrics.push_back(
          {"throughput/phoenix_writeback", measure_ops_per_sec([&] {
             wline[0] = static_cast<std::uint8_t>(at);
             phoenix->write_back((at % (64 * kPageSize / kLineSize)) *
                                     kLineSize,
                                 wline);
             ++at;
           }),
           "ops/s"});
    }
    {
      core::DesignConfig tcfg;
      tcfg.data_capacity = 1024 * kPageSize;
      tcfg.persist_level = 2;
      auto triad = core::make_design(core::DesignKind::kTriadNvm, tcfg);
      Line wline{};
      for (std::uint64_t i = 0; i < 2000; ++i) {
        wline[0] = static_cast<std::uint8_t>(i);
        triad->write_back((i * 37 % (1024 * kPageSize / kLineSize)) *
                              kLineSize,
                          wline);
      }
      double best_ms = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        triad->crash_power_loss();
        const auto r0 = std::chrono::steady_clock::now();
        const core::RecoveryReport report = triad->recover();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - r0)
                              .count();
        if (!report.clean) {
          std::fprintf(stderr, "triad recovery bench: not clean\n");
          return 1;
        }
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      doc.metrics.push_back({"recovery/triad_n2_ms", best_ms, "ms"});
    }
    // cc-NVM's own crash recovery (§4.4) on a 16 MiB image with 16 K
    // written blocks: the two-root tree check, the counter search over
    // every written block's data HMAC, and the full-tree rebuild — all of
    // it batched through tag_many. Best-of-3 wall milliseconds. Each rep
    // restores the same crashed image and TCB into a fresh design: a
    // re-crashed live design would hand reps 2-3 an image rep 1 already
    // repaired, with nothing left to search.
    {
      core::DesignConfig ccfg;
      ccfg.data_capacity = 4096 * kPageSize;
      auto cc = core::make_design(core::DesignKind::kCcNvm, ccfg);
      Line wline{};
      const std::uint64_t lines = ccfg.data_capacity / kLineSize;
      for (std::uint64_t i = 0; i < 16384; ++i) {
        wline[0] = static_cast<std::uint8_t>(i);
        cc->write_back((i * 1021 % lines) * kLineSize, wline);
      }
      cc->crash_power_loss();
      const nvm::NvmImage crashed = cc->image().snapshot();
      const core::TcbRegisters crashed_tcb = cc->tcb();
      cc.reset();
      double best_ms = 0.0;
      std::uint64_t retries = 0;
      for (int rep = 0; rep < 3; ++rep) {
        auto fresh = core::make_design(core::DesignKind::kCcNvm, ccfg);
        dynamic_cast<core::SecureNvmBase&>(*fresh).restore_from_power_down(
            crashed.snapshot(), crashed_tcb);
        const auto r0 = std::chrono::steady_clock::now();
        const core::RecoveryReport report = fresh->recover();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - r0)
                              .count();
        if (!report.clean || (rep > 0 && report.total_retries != retries)) {
          std::fprintf(stderr, "cc-NVM recovery bench: not clean, or a "
                               "rep searched a different image\n");
          return 1;
        }
        retries = report.total_retries;
        if (rep == 0 || ms < best_ms) best_ms = ms;
      }
      doc.metrics.push_back({"recovery/ccnvm_crash_recover_ms", best_ms, "ms"});
    }

    if (!sim::write_bench_json(json_path, doc)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\n(json written to %s; wall %.3fs; crypto aes=%s sha1=%s)\n",
                json_path.c_str(), wall, doc.crypto_aes.c_str(),
                doc.crypto_sha1.c_str());
  }
  return 0;
}
