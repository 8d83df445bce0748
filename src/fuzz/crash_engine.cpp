// Crash engine: randomized versions of the sweeps' scenarios.
//
// Where the sweeps enumerate the (design x trigger x crash point) matrix
// with fixed workload shapes, each fuzz case *samples* one cell and then
// randomizes everything the matrix holds constant: the operation mix and
// order, the address/key distribution, where in the trace the armed drain
// fires, and whether the workload is raw write-backs or KV operations.
// The InvariantAuditor rides along, so a broken drain-protocol invariant
// fails the case even when end-to-end recovery happens to look fine.

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/invariant_auditor.h"
#include "audit/kv_oracle.h"
#include "audit/sweep_shape.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/cc_nvm.h"
#include "core/design.h"
#include "fuzz/fuzz.h"
#include "nvm/file_backend.h"
#include "store/kv_store.h"

namespace ccnvm::fuzz::detail {
namespace {

using audit::kCcSweepKinds;
using audit::kSweepCrashPoints;
using audit::kSweepPages;
using audit::kSweepTriggers;
using audit::shaped_design_config;
using audit::sweep_pattern_line;

/// Backs a case's NvmImage with a real mmap'ed file. The file is
/// mkstemp'ed and immediately unlinked (FileBackend keeps the mapping
/// alive through the fd), so even an aborted campaign leaves nothing
/// behind; SyncMode::kNone because these cases simulate power loss
/// in-process — durability across a host kill is crashd's job.
std::unique_ptr<nvm::Backend> make_file_backend(std::uint64_t capacity_bytes) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): getenv only reads, and the
  // fuzz workers never call setenv; a stale read would only move TMPDIR
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/ccnvm-fuzz-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const int fd = ::mkstemp(buf.data());
  CCNVM_CHECK_MSG(fd >= 0, "crash fuzz: mkstemp failed");
  ::close(fd);  // FileBackend::create reopens and truncates the path
  return nvm::FileBackend::create(buf.data(), capacity_bytes,
                                  nvm::FileBackend::SyncMode::kNone,
                                  /*unlink_after_create=*/true);
}

/// Random address whose distribution still fires `trigger`: spread-out
/// pages for DAQ pressure / evictions, one hammered line (plus fodder)
/// for the update limit.
Addr crash_addr(core::DrainTrigger trigger, Rng& rng) {
  if (trigger == core::DrainTrigger::kUpdateLimit && !rng.chance(0.2)) {
    return 0;
  }
  return rng.below(kSweepPages * kPageSize / kLineSize) * kLineSize;
}

void run_raw_case(core::SecureNvmDesign& design, core::CcNvmDesign* cc,
                  core::DrainTrigger trigger, core::DrainCrashPoint point,
                  std::size_t max_ops, Rng& rng, CaseOutcome& out) {
  std::unordered_map<Addr, std::uint64_t> latest;
  bool crashed = false;
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < max_ops && !crashed; ++i) {
    ++out.ops;
    const Addr a = crash_addr(trigger, rng);
    try {
      design.write_back(a, sweep_pattern_line(++tag));
      latest[a] = tag;
    } catch (const core::InjectedPowerLoss&) {
      latest.erase(a);  // never acknowledged: old-or-new is allowed
      crashed = true;
    }
  }
  if (trigger == core::DrainTrigger::kExplicit && !crashed && cc != nullptr) {
    try {
      cc->force_drain();
    } catch (const core::InjectedPowerLoss&) {
      crashed = true;
    }
  }
  if (point != core::DrainCrashPoint::kNone) {
    CCNVM_CHECK_MSG(crashed, "crash fuzz: armed drain never fired");
    ++out.checks;
  }

  design.crash_power_loss();
  ++out.crashes;
  const core::RecoveryReport report = design.recover();
  CCNVM_CHECK_MSG(report.clean, "crash fuzz: recovery not clean");
  ++out.recoveries;
  std::uint64_t acc = 0;  // order-insensitive: latest is an unordered_map
  for (const auto& [addr, expect_tag] : latest) {
    const core::ReadResult r = design.read_block(addr);
    CCNVM_CHECK_MSG(r.integrity_ok && r.plaintext == sweep_pattern_line(expect_tag),
                    "crash fuzz: acknowledged write lost after recovery");
    ++out.checks;
    acc ^= splitmix64(addr * 1000003 + expect_tag);
  }
  fold_digest(out.digest, acc);
  fold_digest(out.digest, latest.size());
}

void run_kv_case(core::SecureNvmBase& base, core::DrainTrigger trigger,
                 core::DrainCrashPoint point, std::size_t max_ops, Rng& rng,
                 CaseOutcome& out) {
  constexpr std::size_t kKeys = 16;
  const std::vector<std::string> keys = audit::numbered_keys("fz-", kKeys);
  store::SecureKvStore kv(base, audit::sweep_store_config());
  audit::KvModel model;

  bool crashed = false;
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < max_ops && !crashed; ++i) {
    ++out.ops;
    const std::size_t key_index =
        (trigger == core::DrainTrigger::kUpdateLimit && !rng.chance(0.25))
            ? 0
            : static_cast<std::size_t>(rng.below(kKeys));
    const audit::KvOp op = audit::draw_op(rng, keys[key_index], 140, 0, tag);
    model.submit({op});
    try {
      audit::run_op(kv, op);
      model.ack();
    } catch (const core::InjectedPowerLoss&) {
      crashed = true;  // the op stays in flight: all-or-nothing on reopen
    }
  }
  if (trigger == core::DrainTrigger::kExplicit && !crashed) {
    try {
      kv.checkpoint();
    } catch (const core::InjectedPowerLoss&) {
      crashed = true;
    }
  }
  if (point != core::DrainCrashPoint::kNone) {
    CCNVM_CHECK_MSG(crashed, "crash fuzz: armed drain never fired");
    ++out.checks;
  }

  base.crash_power_loss();
  ++out.crashes;
  const core::RecoveryReport report = base.recover();
  CCNVM_CHECK_MSG(report.clean, "crash fuzz: KV recovery not clean");
  ++out.recoveries;

  store::SecureKvStore reopened =
      store::SecureKvStore::open(base, audit::sweep_store_config());
  for (const auto& got : audit::check_reopened(model, {{&reopened, keys}})) {
    ++out.checks;
    fold_digest(out.digest, got ? got->size() + 1 : 0);
  }
  fold_digest(out.digest, reopened.size());
}

}  // namespace

CaseOutcome run_crash_case(std::uint64_t case_seed, std::size_t max_ops,
                           core::CcNvmDesign::ProtocolMutation planted_bug,
                           bool file_backend) {
  CaseOutcome out;
  Rng rng(case_seed);
  // A quarter of the cases sample the persist-barrier designs (Triad-NVM /
  // Phoenix): no drain machinery, so the crash lands after the sampled op
  // count instead of inside an armed drain window. Planted-bug self-tests
  // stay on the cc designs — the mutations live in their drain protocol.
  const bool barrier_design =
      planted_bug == core::CcNvmDesign::ProtocolMutation::kNone &&
      rng.chance(0.25);
  const core::DesignKind kind =
      barrier_design ? (rng.chance(0.5) ? core::DesignKind::kTriadNvm
                                        : core::DesignKind::kPhoenix)
                     : kCcSweepKinds[rng.below(kCcSweepKinds.size())];
  const core::DrainTrigger trigger =
      kSweepTriggers[rng.below(kSweepTriggers.size())];
  core::DrainCrashPoint point =
      kSweepCrashPoints[rng.below(kSweepCrashPoints.size())];
  if (barrier_design) point = core::DrainCrashPoint::kNone;
  const bool kv_mode = rng.chance(0.5);

  core::DesignConfig config =
      shaped_design_config(trigger, kv_mode ? audit::kKvDaqEntries : 12);
  if (file_backend) config.backend_factory = make_file_backend;
  auto design = core::make_design(kind, config);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  auto* cc = dynamic_cast<core::CcNvmDesign*>(design.get());
  CCNVM_CHECK_MSG(base != nullptr, "crash fuzz: design is not a SecureNvmBase");
  CCNVM_CHECK_MSG(barrier_design || cc != nullptr,
                  "crash fuzz needs a CcNvmDesign");
  audit::InvariantAuditor auditor(
      audit::InvariantAuditor::Options{.verify_image = true});
  auditor.attach(*base);
  if (planted_bug != core::CcNvmDesign::ProtocolMutation::kNone) {
    cc->inject_protocol_mutation(planted_bug);
  }
  if (point != core::DrainCrashPoint::kNone) cc->arm_drain_crash(point);

  if (kv_mode) {
    run_kv_case(*base, trigger, point, max_ops, rng, out);
  } else {
    run_raw_case(*design, cc, trigger, point, max_ops, rng, out);
  }
  out.checks += auditor.checks_performed();
  fold_digest(out.digest, auditor.events_observed());
  fold_digest(out.digest, auditor.checks_performed());
  return out;
}

}  // namespace ccnvm::fuzz::detail
