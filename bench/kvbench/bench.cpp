#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "common/rng.h"
#include "common/types.h"
#include "crypto/aes128.h"
#include "crypto/hmac_sha1.h"

namespace kvbench {

const std::vector<Spec>& specs() {
  // Each workload stresses a different layer (README.md, "Workloads").
  static const std::vector<Spec> table = {
      {"kv-a-1c", Shape::kClosed, "ycsb-a", 0.99, 4096, 1, 1, false, 0.0, 2000},
      {"kv-b-large", Shape::kClosed, "ycsb-b", 0.5, 65536, 2, 2, false, 0.0,
       2000},
      {"kv-a-open", Shape::kOpen, "ycsb-a", 0.99, 16384, 1, 1, true, 2000.0,
       2000},
      {"txn-2pc", Shape::kTxn, "", 0.0, 8192, 2, 2, false, 0.0, 700},
      {"restart", Shape::kRestart, "ycsb-a", 0.99, 65536, 1, 1, true, 0.0, 0},
  };
  return table;
}

const Spec* find_spec(std::string_view name) {
  for (const Spec& s : specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},   {"ops_per_s", "1/s"},  {"latency_us", "us"},
      {"write_amp", "x"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"service.pre_apply_us_p50", "us"},
      {"service.ack_us_p50", "us"},
      {"service.batch_mean", "count"},
      {"service.barriers_per_mutation", "ratio"},
      {"service.queue_high_water", "count"},
      {"service.barrier_us_p50", "us"},
      {"service.barrier_us_p99", "us"},
      {"store.put_us_p50", "us"},
      {"store.get_us_p50", "us"},
      {"store.checkpoint_us_p50", "us"},
      {"store.probe_reads_per_op", "count/op"},
      {"store.value_line_writes_per_put", "count/op"},
      {"store.header_writes_per_put", "count/op"},
      {"store.txn_journal_writes_per_txn", "count/op"},
      {"store.open_ms", "ms"},
      {"core.write_backs_per_op", "count/op"},
      {"core.reads_per_op", "count/op"},
      {"core.drains_per_op", "count/op"},
      {"core.drains_explicit_frac", "ratio"},
      {"core.drain_lines_mean", "count"},
      {"core.drain_us_p50", "us"},
      {"core.meta_cache_hit_rate", "ratio"},
      {"core.write_back_us_p50", "us"},
      {"core.read_block_us_p50", "us"},
      {"core.restore_ms", "ms"},
      {"core.recover_ms", "ms"},
      {"nvm.line_reads_per_op", "count/op"},
      {"nvm.line_writes_per_op", "count/op"},
      {"nvm.barriers_per_op", "count/op"},
      {"nvm.persist_barrier_us_p50", "us"},
      {"nvm.persist_barrier_us_p99", "us"},
      {"nvm.read_line_ns_mean", "ns"},
      {"nvm.write_line_ns_mean", "ns"},
      {"nvm.traffic_data_writes_per_op", "count/op"},
      {"nvm.traffic_counter_writes_per_op", "count/op"},
      {"nvm.traffic_mt_writes_per_op", "count/op"},
      {"nvm.traffic_dh_writes_per_op", "count/op"},
      {"crypto.hmac_per_op", "count/op"},
      {"crypto.aes_per_op", "count/op"},
      {"crypto.hmac_tag_ns", "ns"},
      {"crypto.tag_many8_ns_per_tag", "ns"},
      {"crypto.aes_block_ns", "ns"},
      {"crypto.est_us_per_op", "us"},
      {"loadgen.late_p99_us", "us"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string value_for(std::uint64_t client, std::uint64_t key_id,
                      std::uint64_t version, std::size_t bytes) {
  std::string v(bytes, '\0');
  const std::uint64_t tag = ccnvm::derive_seed(client + 1, key_id, version);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(static_cast<std::uint8_t>(
        ccnvm::splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

void fold_fnv(std::uint64_t& h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= 0xff;
  h *= 1099511628211ull;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// Median over 5 rounds of the per-call nanoseconds of `fn` (`per_call`
/// items per invocation), each round ~10 ms.
template <typename Fn>
double ns_per_item(std::size_t per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t calls = 0;
    const auto t0 = clock::now();
    auto t = t0;
    do {
      for (int i = 0; i < 64; ++i) fn();
      calls += 64;
      t = clock::now();
    } while (t - t0 < std::chrono::milliseconds(10));
    rounds.push_back(std::chrono::duration<double, std::nano>(t - t0).count() /
                     static_cast<double>(calls * per_call));
  }
  return quantile(rounds, 0.5);
}

}  // namespace

void measure_crypto(std::uint64_t seed, Report& report) {
  using namespace ccnvm;
  const crypto::HmacEngine hmac(crypto::HmacKey::from_seed(seed));
  std::array<Line, 8> lines{};
  for (std::size_t b = 0; b < lines.size(); ++b) {
    for (std::size_t i = 0; i < kLineSize; ++i) {
      lines[b][i] = static_cast<std::uint8_t>(splitmix64(seed + b * 64 + i));
    }
  }
  report.layers["crypto.hmac_tag_ns"] = ns_per_item(1, [&] {
    const Tag128 t = hmac.tag({lines[0].data(), lines[0].size()});
    lines[0][0] = t.bytes[0];
  });
  std::array<crypto::LineRef, 8> refs;
  for (std::size_t b = 0; b < refs.size(); ++b) {
    refs[b] = {lines[b].data(), lines[b].size()};
  }
  std::array<Tag128, 8> tags;
  report.layers["crypto.tag_many8_ns_per_tag"] = ns_per_item(8, [&] {
    hmac.tag_many(refs, tags);
    lines[1][0] = tags[0].bytes[0];
  });
  const crypto::Aes128 aes(crypto::Aes128::key_from_seed(seed));
  crypto::Aes128::Block block{};
  block[0] = static_cast<std::uint8_t>(seed);
  report.layers["crypto.aes_block_ns"] =
      ns_per_item(1, [&] { block = aes.encrypt(block); });
}

}  // namespace kvbench
