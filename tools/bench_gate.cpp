// bench_gate — the CI perf-regression gate.
//
//   bench_gate <baseline.json> <candidate.json> [--threshold=0.85]
//              [--floor=0.70]
//   bench_gate --self-test <baseline.json>
//
// Both inputs are BENCH_headline.json files (sim/report.h schema). The
// gate compares the `throughput/*` metrics — absolute ops/s of the
// crypto primitives every simulated access goes through — and the
// `recovery/*` metrics — wall-clock costs of the reopen/scan paths,
// scored inverted because lower is better. The claim/geomean metrics
// are skipped: they are normalized ratios that divide out a uniformly
// slower build.
//
// Host-speed calibration: each file also carries `calibration/spin`, a
// crypto-free ALU spin measured by the same binary in the same run. Per
// metric the gate scores
//
//     throughput/*:  (candidate / candidate_spin) / (baseline / baseline_spin)
//     recovery/*:    (baseline / candidate) / (cand_spin / base_spin)
//
// so a throttled or slower CI machine cancels out and only *relative*
// slowdowns of the measured code remain. Two verdicts must both hold:
//
//   * the geometric mean of the scores is at least --threshold (default
//     0.85, i.e. a >15% geomean regression fails), and
//   * every individual score is at least --floor (default 0.70) — so a
//     single metric cratering 2x cannot hide behind an unrelated speedup
//     elsewhere in the geomean.
//
// Crypto tiers: each file records the dispatch tiers it ran under (its
// `crypto` object). A ratio across tiers measures the dispatch cap, not
// the code — a table-tier candidate against an avx2-tier baseline scores
// the batch kernel at ~0.2x — so the gate refuses (exit 2) when the two
// objects differ. Run the candidate under the baseline's CCNVM_CRYPTO cap.
//
// Spin window: a candidate/baseline spin ratio outside [1/8, 8] is not a
// host-speed difference but a broken probe — a compiler that folds the
// spin loop reads ~1000x fast, which would score every metric at
// ~1/1000 or ~1000x and leave the gate unable to fail. The gate refuses
// (exit 2) such a pair, as it refuses a tier mismatch.
//
// --self-test proves the gate can actually trip: the baseline replayed
// against itself must pass, a synthetic candidate with all gated values
// regressed 2x must fail on the geomean, a candidate with one metric
// regressed 4x masked by an equal speedup elsewhere — geomean-neutral —
// must still fail on the per-metric floor, a candidate from another
// crypto tier must be refused, and so must a candidate whose spin was
// folded.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace {

constexpr double kDefaultThreshold = 0.85;
constexpr double kDefaultFloor = 0.70;
constexpr char kSpinMetric[] = "calibration/spin";
constexpr double kMaxSpinRatio = 8.0;  // window [1/8, 8] on cand/base spin
constexpr char kThroughputPrefix[] = "throughput/";
constexpr char kRecoveryPrefix[] = "recovery/";

struct BenchFile {
  std::map<std::string, double> metrics;
  /// The `crypto` tier object with whitespace removed; empty when absent.
  std::string crypto;
};

std::string crypto_tiers(const std::string& text) {
  const std::string key = "\"crypto\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return "";
  const std::size_t open = text.find('{', at + key.size());
  const std::size_t close = text.find('}', open);  // npos if no '{'
  if (close == std::string::npos) return "";
  std::string tiers;
  for (std::size_t i = open; i <= close; ++i) {
    if (std::isspace(static_cast<unsigned char>(text[i])) == 0) {
      tiers += text[i];
    }
  }
  return tiers;
}

/// Scanning parser for the fixed write_bench_json schema: every metric is
/// a `{"name": "...", "value": N, ...}` object with `name` preceding
/// `value`. Not a general JSON parser — it doesn't need to be, both
/// inputs are produced by this repo's own bench binaries.
std::optional<BenchFile> parse_bench(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_gate: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  BenchFile file;
  file.crypto = crypto_tiers(text);
  std::map<std::string, double>& metrics = file.metrics;
  const std::string name_key = "\"name\":";
  const std::string value_key = "\"value\":";
  std::size_t pos = 0;
  while ((pos = text.find(name_key, pos)) != std::string::npos) {
    pos += name_key.size();
    const std::size_t open = text.find('"', pos);
    if (open == std::string::npos) break;
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) break;
    const std::string name = text.substr(open + 1, close - open - 1);
    std::size_t vpos = text.find(value_key, close);
    if (vpos == std::string::npos) break;
    vpos += value_key.size();
    while (vpos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[vpos])) != 0) {
      ++vpos;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + vpos, &end);
    if (end == text.c_str() + vpos) break;  // malformed number
    metrics[name] = value;
    pos = static_cast<std::size_t>(end - text.c_str());
  }
  if (metrics.empty()) {
    std::fprintf(stderr, "bench_gate: no metrics found in %s\n", path.c_str());
    return std::nullopt;
  }
  return file;
}

/// False (with a message) when the two files ran under different crypto
/// tiers, which makes every throughput ratio meaningless.
bool same_tiers(const BenchFile& baseline, const BenchFile& candidate) {
  if (baseline.crypto == candidate.crypto) return true;
  std::fprintf(stderr,
               "bench_gate: crypto tiers differ: baseline %s, candidate %s; "
               "rerun the candidate under the baseline's CCNVM_CRYPTO cap\n",
               baseline.crypto.empty() ? "(none)" : baseline.crypto.c_str(),
               candidate.crypto.empty() ? "(none)" : candidate.crypto.c_str());
  return false;
}

/// False (with a message) when the candidate/baseline spin ratio leaves
/// the [1/kMaxSpinRatio, kMaxSpinRatio] window: one side's probe is
/// broken, so calibrating by it would make every score meaningless.
bool spin_in_window(const BenchFile& baseline, const BenchFile& candidate) {
  const auto base = baseline.metrics.find(kSpinMetric);
  const auto cand = candidate.metrics.find(kSpinMetric);
  if (base == baseline.metrics.end() || cand == candidate.metrics.end() ||
      base->second <= 0 || cand->second <= 0) {
    return true;  // no calibration: run_gate compares raw ratios
  }
  const double ratio = cand->second / base->second;
  if (ratio >= 1.0 / kMaxSpinRatio && ratio <= kMaxSpinRatio) return true;
  std::fprintf(stderr,
               "bench_gate: spin ratio %.4gx (baseline %.4g, candidate %.4g) "
               "is outside [1/%g, %g]: a spin loop was folded by the "
               "compiler or the hosts are not comparable\n",
               ratio, base->second, cand->second, kMaxSpinRatio,
               kMaxSpinRatio);
  return false;
}

struct GateResult {
  bool pass = false;
  double geomean = 0.0;
  std::size_t compared = 0;
  double min_score = 0.0;
  std::string min_name;
};

bool is_gated(const std::string& name, bool& lower_is_better) {
  if (name.rfind(kThroughputPrefix, 0) == 0) {
    lower_is_better = false;
    return true;
  }
  if (name.rfind(kRecoveryPrefix, 0) == 0) {
    lower_is_better = true;
    return true;
  }
  return false;
}

/// Scores candidate vs baseline and prints the per-metric table.
GateResult run_gate(const std::map<std::string, double>& baseline,
                    const std::map<std::string, double>& candidate,
                    double threshold, double floor) {
  GateResult r;
  double calibration = 1.0;
  const auto base_spin = baseline.find(kSpinMetric);
  const auto cand_spin = candidate.find(kSpinMetric);
  if (base_spin != baseline.end() && cand_spin != candidate.end() &&
      base_spin->second > 0 && cand_spin->second > 0) {
    calibration = cand_spin->second / base_spin->second;
    std::printf("host calibration (%s): %.3fx\n", kSpinMetric, calibration);
  } else {
    std::printf("host calibration unavailable; comparing raw ratios\n");
  }

  std::printf("%-32s %14s %14s %8s\n", "metric", "baseline", "candidate",
              "score");
  double log_sum = 0.0;
  for (const auto& [name, base_value] : baseline) {
    bool lower_is_better = false;
    if (!is_gated(name, lower_is_better)) continue;
    const auto it = candidate.find(name);
    if (it == candidate.end() || base_value <= 0 || it->second <= 0) continue;
    // For time-like metrics the ratio inverts, and so does the spin
    // correction: a 2x slower host halves throughput but doubles wall
    // time, and both must normalize to a 1.0 score.
    const double score = lower_is_better
                             ? (base_value / it->second) / calibration
                             : (it->second / base_value) / calibration;
    const bool below_floor = score < floor;
    std::printf("%-32s %14.0f %14.0f %7.3fx%s\n", name.c_str(), base_value,
                it->second, score, below_floor ? "  << floor" : "");
    log_sum += std::log(score);
    if (r.compared == 0 || score < r.min_score) {
      r.min_score = score;
      r.min_name = name;
    }
    ++r.compared;
  }
  if (r.compared == 0) {
    std::fprintf(stderr,
                 "bench_gate: no common throughput/* or recovery/* metrics "
                 "to compare\n");
    return r;
  }
  r.geomean = std::exp(log_sum / static_cast<double>(r.compared));
  const bool geomean_ok = r.geomean >= threshold;
  const bool floor_ok = r.min_score >= floor;
  r.pass = geomean_ok && floor_ok;
  std::printf("geomean %.3fx over %zu metrics (threshold %.2fx): %s\n",
              r.geomean, r.compared, threshold, geomean_ok ? "ok" : "FAIL");
  std::printf("worst metric %s at %.3fx (floor %.2fx): %s\n",
              r.min_name.c_str(), r.min_score, floor, floor_ok ? "ok" : "FAIL");
  std::printf("verdict: %s\n", r.pass ? "PASS" : "FAIL");
  return r;
}

int self_test(const std::string& baseline_path) {
  const auto baseline_file = parse_bench(baseline_path);
  if (!baseline_file) return 2;
  const std::map<std::string, double>& baseline = baseline_file->metrics;

  std::printf("--- self-test 1/5: baseline vs itself must pass ---\n");
  const GateResult same =
      run_gate(baseline, baseline, kDefaultThreshold, kDefaultFloor);
  if (!same.pass || same.compared == 0) {
    std::fprintf(stderr, "bench_gate self-test: identity comparison FAILED\n");
    return 1;
  }

  std::printf("--- self-test 2/5: planted 2x slowdown must fail ---\n");
  std::map<std::string, double> slowed = baseline;
  for (auto& [name, value] : slowed) {
    bool lower_is_better = false;
    if (!is_gated(name, lower_is_better)) continue;
    // Regress every gated metric 2x in its own direction.
    value = lower_is_better ? value * 2.0 : value / 2.0;
  }
  const GateResult slow =
      run_gate(baseline, slowed, kDefaultThreshold, kDefaultFloor);
  if (slow.pass) {
    std::fprintf(stderr,
                 "bench_gate self-test: gate did NOT trip on a 2x slowdown\n");
    return 1;
  }

  std::printf(
      "--- self-test 3/5: masked 4x regression must fail on the floor ---\n");
  // One gated metric craters 4x while another speeds up 4x: the geomean
  // is unchanged, so only the per-metric floor can catch it. This is the
  // exact blind spot the floor exists for.
  std::vector<std::string> gated;
  for (const auto& [name, value] : baseline) {
    bool lower_is_better = false;
    if (is_gated(name, lower_is_better) && !lower_is_better && value > 0) {
      gated.push_back(name);
    }
  }
  if (gated.size() < 2) {
    std::fprintf(stderr,
                 "bench_gate self-test: needs >= 2 throughput metrics for "
                 "the masking case\n");
    return 1;
  }
  std::map<std::string, double> masked = baseline;
  masked[gated[0]] /= 4.0;
  masked[gated[1]] *= 4.0;
  const GateResult mask =
      run_gate(baseline, masked, kDefaultThreshold, kDefaultFloor);
  if (mask.pass) {
    std::fprintf(stderr,
                 "bench_gate self-test: floor did NOT trip on a masked 4x "
                 "regression\n");
    return 1;
  }
  if (mask.geomean < kDefaultThreshold) {
    std::fprintf(stderr,
                 "bench_gate self-test: masking case tripped the geomean, "
                 "not the floor — case is miscalibrated\n");
    return 1;
  }

  std::printf("--- self-test 4/5: a candidate from another crypto tier must "
              "be refused ---\n");
  BenchFile other_tier = *baseline_file;
  other_tier.crypto = "{\"aes\":\"another-tier\"}";
  if (same_tiers(*baseline_file, other_tier)) {
    std::fprintf(stderr,
                 "bench_gate self-test: a cross-tier comparison was NOT "
                 "refused\n");
    return 1;
  }
  std::printf("--- self-test 5/5: a candidate with a folded spin must be "
              "refused ---\n");
  BenchFile folded = *baseline_file;
  folded.metrics[kSpinMetric] *= 1000.0;
  if (!spin_in_window(*baseline_file, *baseline_file) ||
      spin_in_window(*baseline_file, folded)) {
    std::fprintf(stderr,
                 "bench_gate self-test: a folded spin was NOT refused, or "
                 "the baseline's own spin was\n");
    return 1;
  }
  std::printf(
      "self-test ok: identity passes, 2x trips geomean, masked 4x trips "
      "floor, cross-tier and folded-spin candidates refused\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_gate <baseline.json> <candidate.json> "
               "[--threshold=0.85] [--floor=0.70]\n"
               "       bench_gate --self-test <baseline.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--self-test") == 0) {
    return self_test(argv[2]);
  }
  if (argc < 3) return usage();

  double threshold = kDefaultThreshold;
  double floor = kDefaultFloor;
  for (int i = 3; i < argc; ++i) {
    const char* tprefix = "--threshold=";
    const char* fprefix = "--floor=";
    if (std::strncmp(argv[i], tprefix, std::strlen(tprefix)) == 0) {
      char* end = nullptr;
      threshold = std::strtod(argv[i] + std::strlen(tprefix), &end);
      if (end == argv[i] + std::strlen(tprefix) || threshold <= 0 ||
          threshold > 1.0) {
        return usage();
      }
    } else if (std::strncmp(argv[i], fprefix, std::strlen(fprefix)) == 0) {
      char* end = nullptr;
      floor = std::strtod(argv[i] + std::strlen(fprefix), &end);
      if (end == argv[i] + std::strlen(fprefix) || floor <= 0 || floor > 1.0) {
        return usage();
      }
    } else {
      return usage();
    }
  }

  const auto baseline = parse_bench(argv[1]);
  const auto candidate = parse_bench(argv[2]);
  if (!baseline || !candidate) return 2;
  if (!same_tiers(*baseline, *candidate) ||
      !spin_in_window(*baseline, *candidate)) {
    return 2;
  }
  const GateResult r =
      run_gate(baseline->metrics, candidate->metrics, threshold, floor);
  if (r.compared == 0) return 2;
  return r.pass ? 0 : 1;
}
