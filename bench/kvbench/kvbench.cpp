// kvbench — end-to-end and per-layer benchmark of the secure KV service.
//
//   kvbench --workload=<name> --seed=<n> [--seconds=<s>]
//           [--json=<out.json>] [--trace=<trace.json>] [--work-dir=<dir>]
//   kvbench --smoke [--work-dir=<dir>]      all workloads, tiny, both modes
//   kvbench --self-test [--work-dir=<dir>]  proves the checker catches a
//                                           corrupted model entry
//
// One invocation runs one workload in its own process. Without --trace it
// reports the end-to-end metrics; with --trace it is the traced run: it
// reports the per-layer metrics, prints the cost ladder, and writes the
// spans as Chrome trace-event JSON. Workloads, metrics and the layer map
// are described in README.md. Exit status: 0 correct, 1 a failed or
// mis-verified operation, 2 usage error.
#include <sys/vfs.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "bench.h"
#include "crypto/dispatch.h"
#include "probes.h"

namespace kvbench {
namespace {

std::string jstr(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", u);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string work_dir_fs(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

const std::vector<MetricDef>& metric_set(const Report& rep) {
  return rep.traced ? layer_metrics() : e2e_metrics();
}

const std::map<std::string, double>& metric_values(const Report& rep) {
  return rep.traced ? rep.layers : rep.e2e;
}

/// Every metric of the run's set is present and finite.
bool metrics_complete(const Report& rep, std::string* missing) {
  for (const MetricDef& m : metric_set(rep)) {
    const auto it = metric_values(rep).find(m.name);
    if (it == metric_values(rep).end() || !std::isfinite(it->second)) {
      *missing = m.name;
      return false;
    }
  }
  return true;
}

bool write_json(const std::string& path, const Report& rep,
                const Options& o) {
  std::string s = "{\n";
  const auto field = [&](const char* key, const std::string& raw) {
    s += "  " + jstr(key) + ": " + raw + ",\n";
  };
  field("bench", jstr("kvbench"));
  field("schema", "1");
  field("workload", jstr(rep.workload));
  field("seed", std::to_string(rep.seed));
  field("traced", rep.traced ? "true" : "false");
  field("offered_load", jstr(rep.offered_load));
  field("seconds", jnum(o.seconds));
  field("host",
        "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
            ", \"crypto\": {\"aes\": " +
            jstr(ccnvm::crypto::impl_name(ccnvm::crypto::active_aes_impl())) +
            ", \"sha1\": " +
            jstr(ccnvm::crypto::impl_name(ccnvm::crypto::active_sha1_impl())) +
            ", \"sha1_many\": " +
            jstr(ccnvm::crypto::impl_name(
                ccnvm::crypto::active_sha1_many_impl())) +
            "}, \"build_type\": " + jstr(KVBENCH_BUILD_TYPE) +
            ", \"work_dir_fs\": " + jstr(work_dir_fs(o.work_dir)) + "}");
  std::string cfg = "{";
  for (const auto& [k, v] : rep.config) {
    cfg += (cfg.size() > 1 ? ", " : "") + jstr(k) + ": " + jstr(v);
  }
  field("config", cfg + "}");
  field("attempted", std::to_string(rep.attempted));
  field("failed", std::to_string(rep.failed));
  field("failed_frac", jnum(ratio(static_cast<double>(rep.failed),
                                  static_cast<double>(rep.attempted))));
  field("correct", rep.failed == 0 ? "true" : "false");
  std::string failures = "[";
  for (const std::string& f : rep.failures) {
    failures += (failures.size() > 1 ? ", " : "") + jstr(f);
  }
  field("failures", failures + "]");
  char digest[24];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(rep.digest));
  field("digest", jstr(digest));
  field("metric_kind", jstr(rep.traced ? "per_layer" : "end_to_end"));
  std::string metrics = "{";
  for (const MetricDef& m : metric_set(rep)) {
    metrics += (metrics.size() > 1 ? ",\n    " : "\n    ") + jstr(m.name) +
               ": {\"value\": " + jnum(metric_values(rep).at(m.name)) +
               ", \"unit\": " + jstr(m.unit) + "}";
  }
  field("metrics", metrics + "\n  }");
  std::string detail = "{";
  for (const auto& [k, v] : rep.detail) {
    detail += (detail.size() > 1 ? ", " : "") + jstr(k) + ": " + jnum(v);
  }
  field("detail", detail + "}");
  std::string ladder = "[";
  for (const auto& [row, us] : rep.ladder) {
    ladder += (ladder.size() > 1 ? ", " : "") + std::string("{\"row\": ") +
              jstr(row) + ", \"us_per_op\": " + jnum(us) + "}";
  }
  s += "  \"ladder\": " + ladder + "]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(s.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

void print_summary(const Report& rep) {
  std::printf("kvbench %s seed=%llu %s: attempted=%llu failed=%llu "
              "digest=0x%016llx\n",
              rep.workload.c_str(), static_cast<unsigned long long>(rep.seed),
              rep.traced ? "traced" : "untraced",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.digest));
  for (const std::string& f : rep.failures) {
    std::printf("  FAILURE: %s\n", f.c_str());
  }
  for (const MetricDef& m : metric_set(rep)) {
    const auto it = metric_values(rep).find(m.name);
    std::printf("  %-36s %14.4f %s\n", m.name,
                it == metric_values(rep).end() ? NAN : it->second, m.unit);
  }
  if (!rep.ladder.empty()) {
    std::printf("  cost ladder (us per op):\n");
    for (const auto& [row, us] : rep.ladder) {
      std::printf("    %-52s %12.2f\n", row.c_str(), us);
    }
    std::printf("    %-52s %12.3f\n", "sum / e2e mean",
                rep.detail.at("ladder.sum_over_e2e"));
  }
}

Report run(const Spec& spec, const Options& o) {
  Report rep = spec.shape == Shape::kRestart ? run_restart_workload(spec, o)
                                             : run_service_workload(spec, o);
  rep.workload = spec.name;
  rep.seed = o.seed;
  if (rep.traced && !write_chrome_trace(o.trace_path)) {
    rep.fail("cannot write trace " + o.trace_path);
  }
  rep.detail["trace.spans"] = static_cast<double>(spans_recorded());
  rep.detail["trace.spans_dropped"] = static_cast<double>(spans_dropped());
  return rep;
}

/// Tiny sizes: every workload, untraced and traced, in a few seconds.
Options smoke_options(const Spec& spec, const Options& base) {
  Options o = base;
  o.workload = spec.name;
  o.seconds = 0.4;
  o.setups = 2;
  o.warmup = spec.shape == Shape::kTxn ? 20 : 50;
  o.records = spec.shape == Shape::kRestart ? 1024 : 256 * spec.clients;
  o.restart_updates = 128;
  return o;
}

int smoke(const Options& base) {
  int bad = 0;
  for (const Spec& spec : specs()) {
    for (const bool traced : {false, true}) {
      Options o = smoke_options(spec, base);
      if (traced) {
        o.trace_path = o.work_dir + "/smoke-" + spec.name + ".trace.json";
      }
      const Report rep = run(spec, o);
      std::string missing;
      const bool complete = metrics_complete(rep, &missing);
      const bool ok = rep.failed == 0 && complete;
      std::printf("smoke %-10s %-8s %s attempted=%llu failed=%llu%s%s\n",
                  spec.name, traced ? "traced" : "untraced",
                  ok ? "ok  " : "FAIL",
                  static_cast<unsigned long long>(rep.attempted),
                  static_cast<unsigned long long>(rep.failed),
                  complete ? "" : " missing metric: ", missing.c_str());
      for (const std::string& f : rep.failures) {
        std::printf("  %s\n", f.c_str());
      }
      if (!ok) ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int self_test(const Options& base) {
  int missed = 0;
  for (const Spec& spec : specs()) {
    Options o = smoke_options(spec, base);
    o.setups = 1;
    o.corrupt_model = true;
    const Report rep = run(spec, o);
    const bool caught = rep.failed != 0;
    std::printf("self-test %-10s %s\n", spec.name,
                caught ? "corrupted model entry caught" : "MISSED");
    if (!caught) ++missed;
  }
  return missed == 0 ? 0 : 1;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && end == s.data() + s.size();
}

int usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload=<name> --seed=<n> [--seconds=<s>] "
               "[--json=<path>] [--trace=<path>] [--work-dir=<dir>]\n"
               "       kvbench --smoke | --self-test [--work-dir=<dir>]\n"
               "workloads:");
  for (const Spec& s : specs()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  using namespace kvbench;
  Options o;
  o.work_dir = KVBENCH_DEFAULT_WORK_DIR;
  bool smoke_mode = false, self_test_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string_view val =
        eq == std::string_view::npos ? std::string_view{} : arg.substr(eq + 1);
    std::uint64_t n = 0;
    if (key == "--smoke" && eq == std::string_view::npos) {
      smoke_mode = true;
    } else if (key == "--self-test" && eq == std::string_view::npos) {
      self_test_mode = true;
    } else if (key == "--workload" && !val.empty()) {
      o.workload = val;
    } else if (key == "--seed" && parse_u64(val, n)) {
      o.seed = n;
    } else if (key == "--seconds" && parse_u64(val, n) && n >= 1 && n <= 3600) {
      o.seconds = static_cast<double>(n);
    } else if (key == "--json" && !val.empty()) {
      o.json_path = val;
    } else if (key == "--trace" && !val.empty()) {
      o.trace_path = val;
    } else if (key == "--work-dir" && !val.empty()) {
      o.work_dir = val;
    } else {
      std::fprintf(stderr, "kvbench: bad argument '%s'\n", argv[i]);
      return usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "kvbench: cannot create work dir %s: %s\n",
                 o.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  if (smoke_mode) return smoke(o);
  if (self_test_mode) return self_test(o);

  const Spec* spec = find_spec(o.workload);
  if (spec == nullptr) return usage();
  const Report rep = run(*spec, o);
  print_summary(rep);
  std::string missing;
  if (!metrics_complete(rep, &missing)) {
    std::fprintf(stderr, "kvbench: metric %s was not measured\n",
                 missing.c_str());
    return 1;
  }
  if (!o.json_path.empty() && !write_json(o.json_path, rep, o)) {
    std::fprintf(stderr, "kvbench: cannot write %s\n", o.json_path.c_str());
    return 1;
  }
  return rep.failed == 0 ? 0 : 1;
}
