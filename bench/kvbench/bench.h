// Shared types of the kvbench program: workload table, options, the
// per-run report, and small statistics / JSON helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace kvbench {

enum class Shape { kClosed, kOpen, kTxn, kRestart };

/// One workload (why each exists: README.md and BENCHMARK.json). Sizes
/// are the full-scale defaults; --smoke shrinks them.
struct Spec {
  const char* name;
  Shape shape;
  const char* ycsb;        // base YCSB mix (kv shapes and restart updates)
  double zipf_theta;
  std::uint64_t records;   // total across clients
  std::size_t clients;
  std::size_t shards;      // service shards (engines)
  bool durable;            // FileBackend kBarrier media under --work-dir
  double rate;             // open loop: offered ops/s
  std::uint64_t warmup;    // untimed requests after load (txns for txn-2pc)
};

const std::vector<Spec>& specs();
const Spec* find_spec(std::string_view name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string json_path;
  std::string trace_path;  // non-empty = the traced run
  std::string work_dir;
  /// Set-ups per run; setup_s is their median. The traced run sets up once.
  std::size_t setups = 3;
  /// Overrides for --smoke (0 = the spec's value).
  std::uint64_t records = 0;
  std::uint64_t warmup = 0;
  std::uint64_t restart_updates = 4096;
  /// --self-test: corrupt one model entry before verification.
  bool corrupt_model = false;
};

/// Everything one invocation measured.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string offered_load;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages
  std::uint64_t digest = 0;
  std::map<std::string, double> e2e;     // untraced run
  std::map<std::string, double> layers;  // traced run
  std::map<std::string, double> detail;  // context, not gated
  std::map<std::string, std::string> config;
  std::vector<std::pair<std::string, double>> ladder;  // traced run, µs/op

  void fail(const std::string& what, std::uint64_t n = 1) {
    failed += n;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Metric names with units, in output order. BENCHMARK.json lists the
/// same names; run.py refuses a result that lacks one.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& e2e_metrics();
const std::vector<MetricDef>& layer_metrics();

/// Runs one workload (untraced, or traced when options.trace_path is set).
Report run_service_workload(const Spec& spec, const Options& options);
Report run_restart_workload(const Spec& spec, const Options& options);

// --- helpers (bench.cpp) ----------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
double ratio(double num, double den);

/// Deterministic value payload for (client, key, version).
std::string value_for(std::uint64_t client, std::uint64_t key_id,
                      std::uint64_t version, std::size_t bytes);
/// FNV-1a fold with a separator, as the service bench digests content.
void fold_fnv(std::uint64_t& h, std::string_view bytes);
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

double peak_rss_mb();

/// Micro-timings used by every workload's traced run.
void measure_crypto(std::uint64_t seed, Report& report);

}  // namespace kvbench
