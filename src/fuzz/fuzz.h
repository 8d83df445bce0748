// Deterministic, seed-replayable fuzzing for the secure-NVM designs.
//
// Four engines, all driven by one 64-bit case seed:
//   differential — one random trace through all six designs (and, in KV
//                  mode, a SecureKvStore on each), asserting every read
//                  returns the same plaintext everywhere and that the
//                  designs' traffic counters respect the cross-design
//                  orderings the paper's write-efficiency argument rests
//                  on (SC persists at least as much metadata as cc-NVM,
//                  Osiris Plus never writes tree nodes, ...).
//   crash        — a random cc design/trigger/crash-point scenario with
//                  the InvariantAuditor attached, recovery asserted clean
//                  and every acknowledged write (or KV operation) intact.
//   attack       — populate, crash, inject one random attacks::* mutation
//                  into the image, and assert §4.4 recovery detects it
//                  and locates it exactly where the contract in
//                  core/recovery.h says it must (the deferred-spreading
//                  replay window is detected-only on cc-NVM, located on
//                  cc-NVM+).
//   txn          — concurrent conflicting multi-key transactions over a
//                  2-shard service on the seeded driver (the shipped 2PC,
//                  abort wave included), checked for serializability
//                  (DSG cycle search + serial-oracle replay,
//                  txn_history.h) and —
//                  on the cases that cut power mid-protocol — for crash
//                  atomicity: acked txns fully present, in-flight txns
//                  all-or-nothing, zero torn transactions.
//
// Determinism contract: a campaign over a fixed (seed, iterations) is a
// pure function — case i runs on derive_seed(seed, i), outcomes land in
// per-index slots, and totals/digest fold in index order — so results are
// bit-identical for every --jobs value. Time-budget campaigns keep
// per-case determinism (any failure replays from its case seed) but the
// number of cases run naturally varies.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/cc_nvm.h"
#include "nvm/backend.h"

namespace ccnvm::fuzz {

enum class Engine { kDifferential, kCrash, kAttack, kTxn };

std::string_view engine_name(Engine engine);
std::optional<Engine> parse_engine(std::string_view name);

/// What one fuzz case observed. `digest` is an order-sensitive fold of
/// the case's observable values (read plaintexts, recovery flags, stat
/// counters) — the campaign folds these in iteration order, so equal
/// digests mean equal behavior, not just equal pass/fail.
struct CaseOutcome {
  bool ok = true;
  std::string message;  // failure description when !ok
  std::uint64_t ops = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t attacks = 0;
  std::uint64_t reads_compared = 0;
  std::uint64_t checks = 0;  // auditor checks + engine assertions
  std::uint64_t aborts = 0;      // txn engine: txns a no vote aborted
  std::uint64_t abort_cuts = 0;  // txn engine: power cuts inside an abort
  std::uint64_t digest = 0;
};

/// Order-sensitive digest fold (splitmix64 chaining: position matters).
inline void fold_digest(std::uint64_t& digest, std::uint64_t value) {
  digest = splitmix64(digest ^ splitmix64(value));
}

struct FuzzConfig {
  Engine engine = Engine::kDifferential;
  std::uint64_t seed = 1;
  /// Case budget (ignored when seconds > 0).
  std::uint64_t iterations = 256;
  /// Wall-clock budget; > 0 switches to timed mode (per-case determinism
  /// kept, campaign-total determinism necessarily not).
  double seconds = 0;
  /// Worker threads (0 = hardware concurrency).
  std::size_t jobs = 1;
  /// Operation budget per case.
  std::size_t max_ops = 48;
  /// Self-test hook: deliberately break the drain protocol (crash engine
  /// only) to prove the campaign catches it.
  core::CcNvmDesign::ProtocolMutation planted_bug =
      core::CcNvmDesign::ProtocolMutation::kNone;
  /// Self-test hook for the txn engine: record a committed transaction
  /// but apply only half of it, to prove the serial oracle reports the
  /// torn transaction.
  bool planted_torn_txn = false;
  /// Crash and txn engines: back each case's NvmImage with an (unlinked,
  /// mkstemp'ed) nvm::FileBackend instead of the in-memory map, so the
  /// campaign also exercises the durable media path.
  bool file_backend = false;
  /// Shrink each failure's op budget before reporting it.
  bool minimize = true;
};

struct FuzzFailure {
  std::uint64_t iteration = 0;
  std::uint64_t case_seed = 0;
  /// Smallest op budget still reproducing the failure (== the campaign
  /// max_ops when minimization is off).
  std::size_t ops = 0;
  std::string message;

  /// One-line reproduction command.
  std::string repro(Engine engine, bool file_backend = false) const;
};

struct FuzzCampaignResult {
  Engine engine = Engine::kDifferential;
  bool file_backend = false;
  std::uint64_t seed = 0;
  std::uint64_t iterations = 0;  // cases actually run
  std::uint64_t ops = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t attacks = 0;
  std::uint64_t reads_compared = 0;
  std::uint64_t checks = 0;
  std::uint64_t aborts = 0;
  std::uint64_t abort_cuts = 0;
  std::uint64_t digest = 0;  // fold of case digests in iteration order
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// Runs one case. Requires CCNVM_CHECK throw mode to be on (the campaign
/// driver and the CLI install a CheckThrowScope; nesting them would
/// disarm the mode early, so this function deliberately does not).
/// Never throws: check failures and engine assertion failures come back
/// as ok == false with the message filled in.
CaseOutcome run_fuzz_case(Engine engine, std::uint64_t case_seed,
                          std::size_t max_ops,
                          core::CcNvmDesign::ProtocolMutation planted_bug =
                              core::CcNvmDesign::ProtocolMutation::kNone,
                          bool file_backend = false,
                          bool planted_torn_txn = false);

/// Runs a campaign on the parallel job executor (see the determinism
/// contract above). Installs its own CheckThrowScope.
FuzzCampaignResult run_fuzz_campaign(const FuzzConfig& config);

/// Greedily shrinks a failing case's op budget (halving, then decrement)
/// and returns the smallest budget that still fails. Requires throw mode,
/// like run_fuzz_case.
std::size_t minimize_failure(Engine engine, std::uint64_t case_seed,
                             std::size_t ops,
                             core::CcNvmDesign::ProtocolMutation planted_bug =
                                 core::CcNvmDesign::ProtocolMutation::kNone,
                             bool file_backend = false,
                             bool planted_torn_txn = false);

namespace detail {
/// Backs a case's NvmImage with a real mmap'ed file (`--backend=file`).
/// The file is mkstemp'ed and immediately unlinked (FileBackend keeps the
/// mapping alive through the fd), so even an aborted campaign leaves
/// nothing behind; SyncMode::kNone because the cases simulate power loss
/// in-process — durability across a host kill is crashd's job.
std::unique_ptr<nvm::Backend> make_file_backend(std::uint64_t capacity_bytes);

// Per-engine case bodies (throw CheckFailure on violated expectations).
CaseOutcome run_differential_case(std::uint64_t case_seed,
                                  std::size_t max_ops);
CaseOutcome run_crash_case(std::uint64_t case_seed, std::size_t max_ops,
                           core::CcNvmDesign::ProtocolMutation planted_bug,
                           bool file_backend = false);
CaseOutcome run_attack_case(std::uint64_t case_seed, std::size_t max_ops);
CaseOutcome run_txn_case(std::uint64_t case_seed, std::size_t max_ops,
                         bool planted_torn_txn, bool file_backend = false);
}  // namespace detail

}  // namespace ccnvm::fuzz
