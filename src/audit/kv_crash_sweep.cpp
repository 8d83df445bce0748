#include "audit/kv_crash_sweep.h"

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "audit/invariant_auditor.h"
#include "audit/kv_oracle.h"
#include "audit/sweep_shape.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cc_nvm.h"
#include "core/design.h"
#include "store/kv_store.h"

namespace ccnvm::audit {
namespace {

constexpr std::size_t kKeys = 20;

struct SweepTotals {
  KvCrashSweepResult result;
  void absorb(const InvariantAuditor& auditor) {
    result.events_observed += auditor.events_observed();
    result.checks_performed += auditor.checks_performed();
    result.image_verifications += auditor.image_verifications();
  }
};

/// Applies `ops` mixed operations into `model`; returns true if an armed
/// crash unwound one of them (left in flight in `model`).
bool run_ops(store::SecureKvStore& kv, Rng& rng, std::size_t ops,
             core::DrainTrigger trigger, KvModel& model,
             SweepTotals& totals) {
  const std::vector<std::string> keys = numbered_keys("key-", kKeys);
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    // Update-limit shaping hammers one key so its header line's counter
    // blows past N; the other triggers want spread-out traffic.
    const std::size_t key_index =
        (trigger == core::DrainTrigger::kUpdateLimit && i % 4 != 3)
            ? 0
            : static_cast<std::size_t>(rng.below(kKeys));
    const KvOp op = draw_op(rng, keys[key_index], 140, 0, tag);
    model.submit({op});
    try {
      run_op(kv, op);
    } catch (const core::InjectedPowerLoss&) {
      ++totals.result.in_flight_ops;
      return true;
    }
    model.ack();
    ++totals.result.ops_applied;
  }
  return false;
}

/// The oracle's contract on the reopened store, plus a full scan that
/// must agree with the point lookups the oracle judged.
void verify_reopened(store::SecureKvStore& kv, const KvModel& model,
                     SweepTotals& totals) {
  const std::vector<std::string> keys = numbered_keys("key-", kKeys);
  const auto reads = check_reopened(model, {{&kv, keys}});
  totals.result.keys_verified += reads.size();
  std::uint64_t scanned = 0;
  kv.for_each([&](std::string_view key, std::string_view value) {
    const auto it = std::find(keys.begin(), keys.end(), key);
    CCNVM_CHECK_MSG(it != keys.end() && reads[it - keys.begin()] == value,
                    "kv sweep: scan disagrees with the point lookups");
    ++scanned;
  });
  CCNVM_CHECK_MSG(scanned == kv.size(),
                  "kv sweep: scan and live count disagree");
  totals.result.survivors_scanned += scanned;
}

void run_cc_scenario(const KvCrashSweepConfig& config, std::uint64_t case_seed,
                     core::DesignKind kind, core::DrainTrigger trigger,
                     core::DrainCrashPoint point, SweepTotals& totals) {
  ++totals.result.scenarios;
  auto design = core::make_design(
      kind, shaped_design_config(trigger, kKvDaqEntries));
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  auto* cc = dynamic_cast<core::CcNvmDesign*>(design.get());
  CCNVM_CHECK_MSG(base != nullptr && cc != nullptr,
                  "kv cc sweep needs a CcNvmDesign");
  InvariantAuditor auditor(
      InvariantAuditor::Options{.verify_image = config.verify_image});
  auditor.attach(*base);

  Rng rng(case_seed);
  store::SecureKvStore kv(*base, sweep_store_config());
  KvModel model;

  const bool armed = point != core::DrainCrashPoint::kNone &&
                     trigger != core::DrainTrigger::kExplicit;
  if (armed) cc->arm_drain_crash(point);

  bool crashed =
      run_ops(kv, rng, config.ops_per_scenario, trigger, model, totals);
  if (trigger == core::DrainTrigger::kExplicit && !crashed) {
    if (point == core::DrainCrashPoint::kNone) {
      kv.checkpoint();
    } else {
      cc->arm_drain_crash(point);
      try {
        kv.checkpoint();
      } catch (const core::InjectedPowerLoss&) {
        crashed = true;
      }
    }
  }
  if (point != core::DrainCrashPoint::kNone) {
    CCNVM_CHECK_MSG(crashed, "kv sweep never reached the armed drain");
  }
  CCNVM_CHECK_MSG(
      design->stats()
              .drains_by_trigger[static_cast<std::size_t>(trigger)] >= 1,
      "kv sweep workload never fired its target drain trigger");

  design->crash_power_loss();
  ++totals.result.crashes;
  const core::RecoveryReport report = design->recover();
  CCNVM_CHECK_MSG(report.clean, "kv sweep: cc recovery not clean");
  ++totals.result.recoveries;

  store::SecureKvStore reopened =
      store::SecureKvStore::open(*base, sweep_store_config());
  verify_reopened(reopened, model, totals);
  totals.absorb(auditor);
}

void run_non_cc_scenario(const KvCrashSweepConfig& config,
                         std::uint64_t case_seed, core::DesignKind kind,
                         std::size_t crash_after, SweepTotals& totals) {
  ++totals.result.scenarios;
  core::DesignConfig cfg;
  cfg.data_capacity = kSweepPages * kPageSize;
  cfg.meta_cache_bytes = 16 * kLineSize;  // eviction traffic for the audit
  cfg.meta_cache_ways = 4;
  auto design = core::make_design(kind, cfg);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  CCNVM_CHECK_MSG(base != nullptr, "kv non-cc sweep needs a SecureNvmBase");
  InvariantAuditor auditor(
      InvariantAuditor::Options{.verify_image = config.verify_image});
  auditor.attach(*base);

  Rng rng(case_seed);
  store::SecureKvStore kv(*base, sweep_store_config());
  KvModel model;
  CCNVM_CHECK_MSG(!run_ops(kv, rng, crash_after,
                           core::DrainTrigger::kExplicit, model, totals),
                  "unarmed non-cc scenario crashed mid-operation");

  design->crash_power_loss();
  ++totals.result.crashes;
  const core::RecoveryReport report = design->recover();
  if (kind == core::DesignKind::kWoCc) {
    // The paper's foil: nothing authenticates after power loss, so the
    // store cannot even be re-opened.
    CCNVM_CHECK_MSG(report.unrecoverable,
                    "w/o CC unexpectedly recovered the store");
  } else {
    CCNVM_CHECK_MSG(report.clean, "kv sweep: non-cc recovery not clean");
    ++totals.result.recoveries;
    store::SecureKvStore reopened =
        store::SecureKvStore::open(*base, sweep_store_config());
    verify_reopened(reopened, model, totals);
  }
  totals.absorb(auditor);
}

/// One cell of the sweep matrix, enumerable up front so the scenarios can
/// run as independent jobs.
struct CcScenario {
  core::DesignKind kind;
  core::DrainTrigger trigger;
  core::DrainCrashPoint point;
};
struct NonCcScenario {
  core::DesignKind kind;
  std::size_t crash_after;
};
using Scenario = std::variant<CcScenario, NonCcScenario>;

std::vector<Scenario> enumerate_scenarios() {
  std::vector<Scenario> scenarios;
  for (core::DesignKind kind : kCcSweepKinds) {
    for (core::DrainTrigger trigger : kSweepTriggers) {
      for (core::DrainCrashPoint point : kSweepCrashPoints) {
        scenarios.push_back(CcScenario{kind, trigger, point});
      }
    }
  }
  for (core::DesignKind kind : kNonCcSweepKinds) {
    for (std::size_t crash_after = 0; crash_after <= 18; crash_after += 6) {
      scenarios.push_back(NonCcScenario{kind, crash_after});
    }
  }
  return scenarios;
}

}  // namespace

KvCrashSweepResult run_kv_crash_sweep(const KvCrashSweepConfig& config) {
  const std::vector<Scenario> scenarios = enumerate_scenarios();

  // Each scenario derives its RNG stream from (seed, scenario index), so
  // the totals below are bit-identical for every jobs value.
  const std::vector<KvCrashSweepResult> partials =
      parallel_map<KvCrashSweepResult>(
          scenarios.size(), config.jobs, [&](std::size_t i) {
            SweepTotals totals;
            const std::uint64_t case_seed = derive_seed(config.seed, i);
            if (const auto* cc = std::get_if<CcScenario>(&scenarios[i])) {
              run_cc_scenario(config, case_seed, cc->kind, cc->trigger,
                              cc->point, totals);
            } else {
              const auto& other = std::get<NonCcScenario>(scenarios[i]);
              run_non_cc_scenario(config, case_seed, other.kind,
                                  other.crash_after, totals);
            }
            return totals.result;
          });

  KvCrashSweepResult result;
  for (const KvCrashSweepResult& p : partials) {
    result.scenarios += p.scenarios;
    result.crashes += p.crashes;
    result.recoveries += p.recoveries;
    result.ops_applied += p.ops_applied;
    result.in_flight_ops += p.in_flight_ops;
    result.keys_verified += p.keys_verified;
    result.survivors_scanned += p.survivors_scanned;
    result.events_observed += p.events_observed;
    result.checks_performed += p.checks_performed;
    result.image_verifications += p.image_verifications;
  }
  return result;
}

}  // namespace ccnvm::audit
