// In-process crash scenarios: one body for the audit sweep (`ccnvm
// audit`), the KV sweep (`ccnvm kv sweep`) and the crash fuzzer.
//
// A scenario builds a design from a caller-built DesignConfig, attaches an
// InvariantAuditor (every protocol event is checked *while* it runs, not
// just the recovery outcome), arms a crash at a DrainCrashPoint, runs its
// workload until the InjectedPowerLoss or the op budget, loses power,
// recovers, and verifies what survived: raw pattern lines read back, or a
// reopened SecureKvStore meets the KV crash oracle (kv_oracle.h) and a
// full scan agrees with it.
//
// run_crash_sweep enumerates the canonical matrix (sweep_shape.h) for
// either workload: each cc design under each drain trigger, shaped so the
// trigger fires, with a crash armed at each §4.2 window; the non-draining
// designs get crash-after-K-operations passes (w/o CC as the foil whose
// recovery must fail).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "audit/kv_oracle.h"
#include "common/rng.h"
#include "core/cc_nvm.h"
#include "core/design.h"

namespace ccnvm::audit {

/// What one scenario, or a whole sweep, observed.
struct CrashSweepResult {
  std::uint64_t scenarios = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t ops_applied = 0;        // acknowledged ops
  std::uint64_t in_flight_ops = 0;      // ops killed mid-flight
  std::uint64_t verified = 0;           // lines / keys read back after recovery
  std::uint64_t survivors_scanned = 0;  // KV: entries seen by the full scan
  std::uint64_t events_observed = 0;
  std::uint64_t checks_performed = 0;
  std::uint64_t image_verifications = 0;

  CrashSweepResult& operator+=(const CrashSweepResult& other);
};

/// One scenario, as data: nothing in run_crash_scenario depends on which
/// harness built it.
struct CrashScenario {
  core::DesignKind kind = core::DesignKind::kCcNvm;
  core::DesignConfig config;
  /// Shaped-for trigger; on a cc design kExplicit ends the ops in a
  /// forced drain.
  core::DrainTrigger trigger = core::DrainTrigger::kExplicit;
  /// Where the power dies inside the first drain of `trigger`; kNone cuts
  /// it after the ops.
  core::DrainCrashPoint point = core::DrainCrashPoint::kNone;
  /// Op budget.
  std::size_t ops = 0;
  /// Require the run to have fired `trigger` (the sweeps pin their
  /// shaping; the fuzzer's shrunk budgets need not reach it).
  bool require_trigger = false;
  /// Self-test hook: break the cc drain protocol for the whole run.
  core::CcNvmDesign::ProtocolMutation planted_bug =
      core::CcNvmDesign::ProtocolMutation::kNone;
};

/// What a scenario runs and, after recovery, verifies.
class CrashWorkload {
 public:
  /// Applies op `i`. An InjectedPowerLoss propagates with the op in flight.
  virtual void apply(core::SecureNvmBase& design, std::size_t i, Rng& rng) = 0;
  /// Holds the recovered design to what was acknowledged.
  virtual void verify(core::SecureNvmBase& design,
                      CrashSweepResult& result) = 0;

 protected:
  ~CrashWorkload() = default;  // never owned through this interface
};

/// Write-backs of sweep_pattern_line data to picked line addresses; every
/// acknowledged line must read back after recovery.
class RawLines final : public CrashWorkload {
 public:
  using Picker = std::function<Addr(std::size_t i, Rng& rng)>;
  explicit RawLines(Picker pick) : pick_(std::move(pick)) {}

  void apply(core::SecureNvmBase& design, std::size_t i, Rng& rng) override;
  void verify(core::SecureNvmBase& design, CrashSweepResult& result) override;

  /// Address -> pattern tag of every acknowledged write.
  const std::unordered_map<Addr, std::uint64_t>& acked() const {
    return acked_;
  }

 private:
  Picker pick_;
  std::uint64_t tag_ = 0;
  std::unordered_map<Addr, std::uint64_t> acked_;
};

/// Mixed put/get/erase (draw_op) on a sweep_store_config() store over
/// `keys`; after recovery the reopened store meets check_reopened and a
/// full scan agrees with its point lookups.
class KvOps final : public CrashWorkload {
 public:
  using Picker = std::function<std::size_t(std::size_t i, Rng& rng)>;
  KvOps(std::vector<std::string> keys, Picker pick)
      : keys_(std::move(keys)), pick_(std::move(pick)) {}

  void apply(core::SecureNvmBase& design, std::size_t i, Rng& rng) override;
  void verify(core::SecureNvmBase& design, CrashSweepResult& result) override;

  /// check_reopened's reads of `keys`, in order (nullopt = absent).
  const std::vector<std::optional<std::string>>& reads() const {
    return reads_;
  }

 private:
  std::vector<std::string> keys_;
  Picker pick_;
  std::uint64_t tag_ = 0;
  std::optional<store::SecureKvStore> kv_;
  KvModel model_;
  std::vector<std::optional<std::string>> reads_;
};

/// Runs `scenario` with `workload` drawing from `rng`; the first broken
/// invariant, lost write or unclean recovery trips a CCNVM_CHECK (which
/// throws in CheckThrowScope, aborts otherwise). Recovery must be clean
/// on every design but w/o CC, whose recovery must fail.
CrashSweepResult run_crash_scenario(const CrashScenario& scenario,
                                    CrashWorkload& workload, Rng& rng);

/// What the sweep's scenarios run: RawLines (`ccnvm audit`) or KvOps
/// (`ccnvm kv sweep`).
enum class SweepWorkload { kRawLines, kKv };

struct CrashSweepConfig {
  std::uint64_t seed = 1;
  /// Ops per cc scenario; the armed trigger must fire within it. 0 picks
  /// the workload's default: 96 write-backs or 48 KV ops.
  std::size_t ops_per_scenario = 0;
  /// Worker threads for the scenario matrix (0 = hardware concurrency).
  /// Results are bit-identical for every value: each scenario derives its
  /// RNG stream from (seed, scenario index) and totals fold in index order.
  std::size_t jobs = 1;
};

/// Runs the full matrix on `workload`. Returns totals so callers can
/// assert the matrix was actually covered.
CrashSweepResult run_crash_sweep(SweepWorkload workload,
                                 const CrashSweepConfig& config = {});

}  // namespace ccnvm::audit
