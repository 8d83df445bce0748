// Crash engine: randomized versions of the sweeps' scenarios.
//
// Where the sweeps enumerate the (design x trigger x crash point) matrix
// with fixed workload shapes, each fuzz case *samples* one cell and then
// randomizes everything the matrix holds constant: the operation mix and
// order, the address/key distribution, where in the trace the armed drain
// fires, and whether the workload is raw write-backs or KV operations.
// The case runs through the sweeps' own scenario body
// (audit::run_crash_scenario), so the InvariantAuditor rides along and a
// broken drain-protocol invariant fails the case even when end-to-end
// recovery happens to look fine.

#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "audit/crash_sweep.h"
#include "audit/sweep_shape.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "fuzz/fuzz.h"
#include "nvm/file_backend.h"

namespace ccnvm::fuzz::detail {
namespace {

using audit::kCcSweepKinds;
using audit::kSweepCrashPoints;
using audit::kSweepPages;
using audit::kSweepTriggers;

/// Random address whose distribution still fires `trigger`: spread-out
/// pages for DAQ pressure / evictions, one hammered line (plus fodder)
/// for the update limit.
Addr crash_addr(core::DrainTrigger trigger, Rng& rng) {
  if (trigger == core::DrainTrigger::kUpdateLimit && !rng.chance(0.2)) {
    return 0;
  }
  return rng.below(kSweepPages * kPageSize / kLineSize) * kLineSize;
}

}  // namespace

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
  CCNVM_CHECK_MSG(fd >= 0, "fuzz: mkstemp failed");
  ::close(fd);  // FileBackend::create reopens and truncates the path
  return nvm::FileBackend::create(buf.data(), capacity_bytes,
                                  nvm::FileBackend::SyncMode::kNone,
                                  /*unlink_after_create=*/true);
}

CaseOutcome run_crash_case(std::uint64_t case_seed, std::size_t max_ops,
                           core::CcNvmDesign::ProtocolMutation planted_bug,
                           bool file_backend) {
  Rng rng(case_seed);
  // A quarter of the cases sample the persist-barrier designs (Triad-NVM /
  // Phoenix): no drain machinery, so the crash lands after the sampled op
  // count instead of inside an armed drain window. Planted-bug self-tests
  // stay on the cc designs — the mutations live in their drain protocol.
  const bool barrier_design =
      planted_bug == core::CcNvmDesign::ProtocolMutation::kNone &&
      rng.chance(0.25);
  audit::CrashScenario sc;
  sc.kind = barrier_design ? (rng.chance(0.5) ? core::DesignKind::kTriadNvm
                                              : core::DesignKind::kPhoenix)
                           : kCcSweepKinds[rng.below(kCcSweepKinds.size())];
  sc.trigger = kSweepTriggers[rng.below(kSweepTriggers.size())];
  sc.point = kSweepCrashPoints[rng.below(kSweepCrashPoints.size())];
  if (barrier_design) sc.point = core::DrainCrashPoint::kNone;
  sc.ops = max_ops;
  sc.planted_bug = planted_bug;
  const bool kv_mode = rng.chance(0.5);
  sc.config = audit::shaped_design_config(
      sc.trigger, kv_mode ? audit::kKvDaqEntries : 12);
  if (file_backend) sc.config.backend_factory = make_file_backend;

  CaseOutcome out;
  audit::CrashSweepResult r;
  if (kv_mode) {
    constexpr std::size_t kKeys = 16;
    audit::KvOps kv(audit::numbered_keys("fz-", kKeys),
                    [trigger = sc.trigger](std::size_t, Rng& draw) {
                      return audit::draw_key_index(draw, trigger, kKeys);
                    });
    r = audit::run_crash_scenario(sc, kv, rng);
    std::uint64_t live = 0;
    for (const auto& got : kv.reads()) {
      fold_digest(out.digest, got ? got->size() + 1 : 0);
      live += got ? 1 : 0;
    }
    fold_digest(out.digest, live);  // == the reopened store's size
  } else {
    audit::RawLines raw([trigger = sc.trigger](std::size_t, Rng& draw) {
      return crash_addr(trigger, draw);
    });
    r = audit::run_crash_scenario(sc, raw, rng);
    std::uint64_t acc = 0;  // order-insensitive: acked() is unordered
    for (const auto& [addr, tag] : raw.acked()) {
      acc ^= splitmix64(addr * 1000003 + tag);
    }
    fold_digest(out.digest, acc);
    fold_digest(out.digest, raw.acked().size());
  }
  out.ops = r.ops_applied + r.in_flight_ops;
  out.crashes = r.crashes;
  out.recoveries = r.recoveries;
  // The armed-crash assertion, each verified line/key, every auditor check.
  out.checks = (sc.point != core::DrainCrashPoint::kNone ? 1 : 0) +
               r.verified + r.checks_performed;
  fold_digest(out.digest, r.events_observed);
  fold_digest(out.digest, r.checks_performed);
  return out;
}

}  // namespace ccnvm::fuzz::detail
