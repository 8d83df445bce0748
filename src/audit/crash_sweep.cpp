#include "audit/crash_sweep.h"

#include <algorithm>
#include <vector>

#include "audit/invariant_auditor.h"
#include "audit/sweep_shape.h"
#include "common/thread_pool.h"

namespace ccnvm::audit {

CrashSweepResult& CrashSweepResult::operator+=(const CrashSweepResult& o) {
  scenarios += o.scenarios;
  crashes += o.crashes;
  recoveries += o.recoveries;
  ops_applied += o.ops_applied;
  in_flight_ops += o.in_flight_ops;
  verified += o.verified;
  survivors_scanned += o.survivors_scanned;
  events_observed += o.events_observed;
  checks_performed += o.checks_performed;
  image_verifications += o.image_verifications;
  return *this;
}

void RawLines::apply(core::SecureNvmBase& design, std::size_t i, Rng& rng) {
  const Addr a = pick_(i, rng);
  try {
    design.write_back(a, sweep_pattern_line(++tag_));
  } catch (const core::InjectedPowerLoss&) {
    // Never acknowledged: old-or-new is allowed, so it need not survive.
    acked_.erase(a);
    throw;
  }
  acked_[a] = tag_;
}

void RawLines::verify(core::SecureNvmBase& design, CrashSweepResult& result) {
  for (const auto& [addr, tag] : acked_) {
    const core::ReadResult r = design.read_block(addr);
    CCNVM_CHECK_MSG(r.integrity_ok && r.plaintext == sweep_pattern_line(tag),
                    "crash scenario: acknowledged write lost after recovery");
    ++result.verified;
  }
}

void KvOps::apply(core::SecureNvmBase& design, std::size_t i, Rng& rng) {
  if (!kv_) kv_.emplace(design, sweep_store_config());
  const std::size_t k = pick_(i, rng);
  const KvOp op = draw_op(rng, keys_[k], 140, 0, tag_);
  model_.submit({op});
  run_op(*kv_, op);  // a kill leaves `op` in flight: all-or-nothing
  model_.ack();
}

void KvOps::verify(core::SecureNvmBase& design, CrashSweepResult& result) {
  store::SecureKvStore kv =
      store::SecureKvStore::open(design, sweep_store_config());
  reads_ = check_reopened(model_, {{&kv, keys_}});
  result.verified += reads_.size();
  std::uint64_t scanned = 0;
  kv.for_each([&](std::string_view key, std::string_view value) {
    const auto it = std::find(keys_.begin(), keys_.end(), key);
    CCNVM_CHECK_MSG(it != keys_.end() && reads_[it - keys_.begin()] == value,
                    "crash scenario: scan disagrees with the point lookups");
    ++scanned;
  });
  CCNVM_CHECK_MSG(scanned == kv.size(),
                  "crash scenario: scan and live count disagree");
  result.survivors_scanned += scanned;
}

CrashSweepResult run_crash_scenario(const CrashScenario& sc,
                                    CrashWorkload& workload, Rng& rng) {
  CrashSweepResult result;
  result.scenarios = 1;
  auto design = core::make_design(sc.kind, sc.config);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  auto* cc = dynamic_cast<core::CcNvmDesign*>(design.get());
  CCNVM_CHECK_MSG(base != nullptr, "crash scenario needs a SecureNvmBase");
  InvariantAuditor auditor;
  auditor.attach(*base);
  // The crash lands in the first drain of the shaped-for trigger: armed
  // now for a natural trigger, at the forced drain for kExplicit.
  const bool forced_drain =
      cc != nullptr && sc.trigger == core::DrainTrigger::kExplicit;
  if (cc != nullptr) cc->inject_protocol_mutation(sc.planted_bug);
  if (cc != nullptr && !forced_drain) cc->arm_drain_crash(sc.point);

  bool crashed = false;
  for (std::size_t i = 0; i < sc.ops && !crashed; ++i) {
    try {
      workload.apply(*base, i, rng);
      ++result.ops_applied;
    } catch (const core::InjectedPowerLoss&) {
      ++result.in_flight_ops;
      crashed = true;
    }
  }
  if (forced_drain && !crashed) {
    cc->arm_drain_crash(sc.point);
    try {
      cc->force_drain();
    } catch (const core::InjectedPowerLoss&) {
      crashed = true;
    }
  }
  if (sc.point != core::DrainCrashPoint::kNone) {
    CCNVM_CHECK_MSG(crashed, "crash scenario: the armed drain never fired");
  }
  if (sc.require_trigger) {
    CCNVM_CHECK_MSG(
        design->stats()
                .drains_by_trigger[static_cast<std::size_t>(sc.trigger)] >= 1,
        "crash scenario never fired its target drain trigger");
  }

  design->crash_power_loss();  // auditor: image vs ROOT_old/ROOT_new
  ++result.crashes;
  const core::RecoveryReport report = design->recover();
  if (sc.kind == core::DesignKind::kWoCc) {
    // w/o CC is the paper's foil: its recovery is *supposed* to fail.
    CCNVM_CHECK_MSG(report.unrecoverable,
                    "w/o CC unexpectedly recovered after a crash");
  } else {
    CCNVM_CHECK_MSG(report.clean, "crash scenario: recovery not clean");
    ++result.recoveries;
    workload.verify(*base, result);
  }
  result.events_observed = auditor.events_observed();
  result.checks_performed = auditor.checks_performed();
  result.image_verifications = auditor.image_verifications();
  return result;
}

namespace {

/// The raw sweep's address picker: distinct pages for DAQ pressure and
/// evictions (each write-back reserves a fresh counter + path), one
/// hammered line plus verification fodder for the update limit, anywhere
/// for explicit drains.
Addr sweep_addr(core::DrainTrigger trigger, std::size_t i, Rng& rng) {
  switch (trigger) {
    case core::DrainTrigger::kDaqPressure:
    case core::DrainTrigger::kDirtyEviction:
      return (i % kSweepPages) * kPageSize +
             (rng.below(kPageSize / kLineSize)) * kLineSize;
    case core::DrainTrigger::kUpdateLimit:
      return (i % 5 == 4) ? kPageSize + kLineSize : 0;
    case core::DrainTrigger::kExplicit:
      return rng.below(kSweepPages * kPageSize / kLineSize) * kLineSize;
  }
  return 0;
}

constexpr std::size_t kSweepKeys = 20;

/// Runs sweep cell `sc` on a fresh `workload` instance.
CrashSweepResult run_sweep_cell(SweepWorkload workload,
                                const CrashScenario& sc, Rng& rng) {
  const core::DrainTrigger trigger = sc.trigger;
  if (workload == SweepWorkload::kRawLines) {
    RawLines raw([trigger](std::size_t i, Rng& draw) {
      return sweep_addr(trigger, i, draw);
    });
    return run_crash_scenario(sc, raw, rng);
  }
  // Update-limit shaping hammers one key so its header line's counter
  // blows past N; the other triggers want spread-out traffic.
  KvOps kv(numbered_keys("key-", kSweepKeys),
           [trigger](std::size_t i, Rng& draw) {
             return (trigger == core::DrainTrigger::kUpdateLimit && i % 4 != 3)
                        ? 0
                        : static_cast<std::size_t>(draw.below(kSweepKeys));
           });
  return run_crash_scenario(sc, kv, rng);
}

/// The sweep matrix for `workload`, enumerable up front so the scenarios
/// can run as independent jobs. Non-cc cells draw their ops like the
/// explicit trigger and run on one geometry with eviction traffic for the
/// audit.
std::vector<CrashScenario> enumerate_scenarios(SweepWorkload workload,
                                               std::size_t ops) {
  const bool kv = workload == SweepWorkload::kKv;
  std::vector<CrashScenario> scenarios;
  for (core::DesignKind kind : kCcSweepKinds) {
    for (core::DrainTrigger trigger : kSweepTriggers) {
      for (core::DrainCrashPoint point : kSweepCrashPoints) {
        scenarios.push_back(CrashScenario{
            .kind = kind,
            .config = shaped_design_config(trigger, kv ? kKvDaqEntries : 12),
            .trigger = trigger,
            .point = point,
            .ops = ops != 0 ? ops : (kv ? 48 : 96),
            .require_trigger = true});
      }
    }
  }
  core::DesignConfig non_cc;
  non_cc.data_capacity = kSweepPages * kPageSize;
  non_cc.meta_cache_bytes = 16 * kLineSize;
  non_cc.meta_cache_ways = 4;
  for (core::DesignKind kind : kNonCcSweepKinds) {
    for (std::size_t crash_after = 0; crash_after <= (kv ? 18 : 24);
         crash_after += (kv ? 6 : 4)) {
      scenarios.push_back(
          CrashScenario{.kind = kind, .config = non_cc, .ops = crash_after});
    }
  }
  return scenarios;
}

}  // namespace

CrashSweepResult run_crash_sweep(SweepWorkload workload,
                                 const CrashSweepConfig& config) {
  const std::vector<CrashScenario> scenarios =
      enumerate_scenarios(workload, config.ops_per_scenario);
  // Each scenario derives its RNG stream from (seed, scenario index), so
  // the totals below are bit-identical for every jobs value.
  const std::vector<CrashSweepResult> partials =
      parallel_map<CrashSweepResult>(
          scenarios.size(), config.jobs, [&](std::size_t i) {
            Rng rng(derive_seed(config.seed, i));
            return run_sweep_cell(workload, scenarios[i], rng);
          });
  CrashSweepResult result;
  for (const CrashSweepResult& p : partials) result += p;
  return result;
}

}  // namespace ccnvm::audit
