// Out-of-process kill-9 crash harness ("crashd").
//
// Everything the in-process sweeps test is simulated: DrainCrashPoint
// unwinds the stack, the NvmImage stays in the same heap, and nothing
// ever actually dies. crashd closes that gap. A *worker process* runs KV
// traffic on a design whose NvmImage lives in an mmap'ed file
// (nvm::FileBackend) and SIGKILLs itself at a scenario-chosen moment —
// at an operation boundary, after applying-but-before-acknowledging an
// operation, or inside a drain at one of the §4.2 crash windows (via
// CcNvmDesign's power-loss hook, which fires at the exact armed point).
// A *verifier* (fresh process or at least a fresh design) then reopens
// the image file, restores the mirrored TCB registers, runs recovery
// with the invariant auditor attached, and checks:
//
//   * recovery is clean, with zero auditor violations (I1-I8 on the
//     crash state and the recovered state, including full image-vs-roots
//     verification);
//   * the KV crash oracle (audit/kv_oracle.h) holds: every *acknowledged*
//     unit (one byte in an unbuffered side-channel ack log, written only
//     after the unit returned) reads back exactly, each client thread's
//     at most one unacknowledged unit is all-or-nothing, and no store
//     holds spurious entries;
//   * on attack scenarios, a deliberately corrupted data line in the
//     image is detected AND located per §4.4.
//
// Three scenario families share that machinery and differ only in their
// Scenario, its derivation and the client body: single-threaded (one
// SecureKvStore), service (KvService client threads) and txn (multi-key
// transactions over a two-shard KvService).
//
// Why SIGKILL is honest here: stores into a MAP_SHARED mapping live in
// the kernel page cache the moment they retire; SIGKILL cannot undo
// them, and nothing after the kill runs. The reopened file therefore
// holds exactly the prefix of NVM line writes (in program order) that
// the victim completed — the paper's power-cut ordering model, §4.2's
// "ADR drains the WPQ" included, because the model performs those
// writes before the kill point fires.
//
// Determinism: a scenario is fully derived from (sweep_seed, index), so
// worker and verifier — different processes — reconstruct the identical
// operation stream, and any failure replays standalone via
// `ccnvm crashd worker/verify --seed=S --index=I`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/design.h"
#include "core/protocol_observer.h"

namespace ccnvm::crashd {

enum class Family { kSingle, kService, kTxn };

// ---- Single-threaded family --------------------------------------------

/// When (if at all) the worker raises SIGKILL on itself.
enum class KillMode {
  kNone,        // run to a clean quiesced shutdown
  kOpBoundary,  // after acknowledging operation `kill_op`
  kBeforeAck,   // after *applying* operation `kill_op`, before its ack
  kDrainPhase,  // inside drain #target_drain at `phase` (§4.2 window)
  kAttack,      // clean run; the verifier then corrupts the image
};

struct Scenario {
  core::DesignKind kind = core::DesignKind::kCcNvm;
  core::DrainTrigger trigger = core::DrainTrigger::kExplicit;
  KillMode kill = KillMode::kNone;
  core::DrainCrashPoint phase = core::DrainCrashPoint::kNone;
  /// kDrainPhase: arm once `target_drain` drains have already committed,
  /// so the kill lands in the (target_drain+1)-th drain of the run.
  std::uint64_t target_drain = 0;
  std::size_t kill_op = 0;  // kOpBoundary / kBeforeAck
  std::size_t ops = 0;
  std::uint64_t workload_seed = 0;
  std::uint32_t persist_level = 1;  // Triad-NVM frontier (pin only)
};

/// Pins every scenario of the single-threaded family to one design —
/// how the baselines CI lane runs its per-design kill-9 sweeps.
struct DesignPin {
  core::DesignKind kind = core::DesignKind::kCcNvm;
  std::uint32_t persist_level = 1;  // Triad-NVM frontier
};

/// Parses a design name (core::parse_design: "triad-n<K>" takes K in
/// 1..64) into a pin. Rejects (returns false) unknown names and the
/// designs crashd cannot honestly verify out-of-process: wocc (recovery
/// is supposed to fail), ccnvm-plus (its per-block update registers are
/// process state, not mirrored into the backend), sc/osiris (no pinned
/// sweep demand — the in-process matrix covers them).
bool parse_design_pin(const std::string& name, DesignPin& pin);

/// The deterministic scenario for (sweep_seed, index) — the single
/// source both processes derive from. A pin overrides only the design
/// (and remaps drain-window kills, which need a draining design, to a
/// deterministic op-boundary kill); the op stream, kill density and
/// workload seeds stay identical across pins so sweeps are comparable.
Scenario derive_scenario(std::uint64_t sweep_seed, std::uint64_t index,
                         const DesignPin* pin = nullptr);

std::string describe(const Scenario& scenario);

// ---- Service family ----------------------------------------------------
//
// The multithreaded sibling of the family above: the worker process runs
// a service::KvService (per-shard MPSC queues, group-commit drain
// workers) with several blocking client threads, and SIGKILL lands while
// requests are in flight across all of them — queued, mid-batch, or
// applied-and-barriered but not yet acknowledged. Kills fire from the
// drain worker's safe-point hooks (between complete store operations),
// preserving the line-write-boundary kill discipline the file comment
// above argues for. The oracle then holds the union of the reopened
// shards to the service's ack-after-barrier contract.

/// When (if at all) the service worker dies. All kills fire at drain-
/// worker safe points, with the client threads at arbitrary progress.
enum class ServiceKill {
  kNone,          // clean quiesced shutdown (may use multiple shards)
  kMidBatch,      // after the kill_target-th applied request, pre-barrier
  kAfterBarrier,  // after the kill_target-th barrier, before its acks
};

struct ServiceScenario {
  core::DesignKind kind = core::DesignKind::kCcNvm;
  core::DrainTrigger trigger = core::DrainTrigger::kExplicit;
  std::size_t shards = 1;  // kill scenarios always 1 (see run_service_worker)
  std::size_t threads = 2;
  std::size_t ops_per_thread = 16;
  std::size_t max_batch = 8;
  std::uint32_t max_delay_us = 0;  // group-commit straggler gap
  ServiceKill kill = ServiceKill::kNone;
  /// kMidBatch: global applied-request count; kAfterBarrier: global
  /// barrier count. A target past the run's end degrades to a clean run.
  std::uint64_t kill_target = 0;
  std::uint64_t workload_seed = 0;
};

/// The deterministic service scenario for (sweep_seed, index).
ServiceScenario derive_service_scenario(std::uint64_t sweep_seed,
                                        std::uint64_t index);

std::string describe(const ServiceScenario& scenario);

// ---- Txn family --------------------------------------------------------
//
// Kill-9 sweeps for the multi-key transaction protocol (see
// KvService::submit_txn): client threads issue a mix of single ops and
// 2-4-op transactions against a TWO-shard service, and SIGKILL lands at a
// 2PC wave boundary of a commit that spans both shards — after the
// prepare barriers, after the coordinator's decision barrier, or after
// the finalize barriers. These are exactly the windows where a
// distributed commit can tear, and they are also legitimate kill points:
// the committing txn holds BOTH shards' admission locks across its waves,
// so when its wave hook fires on the client thread every drain worker is
// parked on an empty queue — no line write can be caught halfway. (So the
// hook fires on both-shard commits only: a single-shard txn's waves leave
// the other shard's worker live.)
//
// The verifier reopens shard 0 first — the coordinator of every
// cross-shard txn (lowest participant) — then shard 1 with a TxnResolver
// over shard 0's decision line. The oracle's unit is here a whole txn:
// acknowledged txns read back in full, an unacknowledged one is never
// partially applied.

/// When (if at all) the txn worker dies. Always fires on the client
/// thread driving a both-shard commit, at a wave boundary.
enum class TxnKill {
  kNone,    // clean quiesced shutdown
  kAtWave,  // at wave `kill_wave` of the kill_target-th both-shard commit
};

/// Shard count is fixed at 2 for the whole family (the smallest count
/// with a distributed commit; also the only one where a both-shard txn's
/// locks silence EVERY drain worker, making wave kills safe).
struct TxnScenario {
  core::DesignKind kind = core::DesignKind::kCcNvm;
  core::DrainTrigger trigger = core::DrainTrigger::kExplicit;
  std::size_t threads = 2;             // 2..4 client threads
  std::size_t actions_per_thread = 8;  // each = one single op or one txn
  std::size_t max_batch = 8;
  std::uint32_t max_delay_us = 0;
  TxnKill kill = TxnKill::kNone;
  /// kAtWave: 0 = prepares acked (before the decision), 1 = decision
  /// acked (before the finalizes), 2 = finalizes acked (before the
  /// client's ack byte).
  int kill_wave = 0;
  /// kAtWave: ordinal of the both-shard wave event that dies. A target
  /// past the run's end degrades to a clean run.
  std::uint64_t kill_target = 0;
  std::uint64_t workload_seed = 0;
};

/// The deterministic txn scenario for (sweep_seed, index).
TxnScenario derive_txn_scenario(std::uint64_t sweep_seed,
                                std::uint64_t index);

std::string describe(const TxnScenario& scenario);

// ---- Shared worker, verifier and sweep ---------------------------------

/// One-line description of scenario (sweep_seed, index) of `family`.
/// `pin` (single family only, see parse_design_pin) overrides the design.
std::string describe(Family family, std::uint64_t sweep_seed,
                     std::uint64_t index, const DesignPin* pin = nullptr);

/// Runs the worker side against `image_path`: the single family's image
/// is `image_path` and its ack log `image_path + ".ack"`; the service
/// families use `image_path + ".s<s>"` per shard and
/// `image_path + ".ack.t<t>"` per client thread. Kill scenarios do not
/// return — the process dies by SIGKILL at the scenario's point. Clean
/// scenarios return 0.
int run_worker(Family family, const std::string& image_path,
               std::uint64_t sweep_seed, std::uint64_t index,
               const DesignPin* pin = nullptr);

struct VerifyResult {
  bool ok = false;
  std::string message;       // on failure
  bool worker_was_killed = false;
  std::uint64_t acked_ops = 0;  // acknowledged units (ops or txns)
  std::uint64_t keys_checked = 0;
  std::uint64_t auditor_checks = 0;
  bool attack_checked = false;
};

/// Verifies the images a (possibly killed) worker left behind. Requires a
/// common::CheckThrowScope in the caller (auditor violations and lost
/// ops surface as CheckFailure and are converted into a failed result).
VerifyResult verify(Family family, const std::string& image_path,
                    std::uint64_t sweep_seed, std::uint64_t index,
                    const DesignPin* pin = nullptr);

struct SweepConfig {
  std::uint64_t seed = 1;
  std::uint64_t scenarios = 200;
  Family family = Family::kSingle;
  /// Pin every scenario to one design (see parse_design_pin). Empty =
  /// the default cc mix. Single-threaded family only — combining a pin
  /// with another family fails the sweep up front.
  std::string design;
  std::size_t jobs = 1;  // deterministic executor width (0 = hw)
  /// Directory for image/ack files; empty = a fresh mkdtemp under
  /// $TMPDIR. Files are deleted per scenario unless keep_files.
  std::string work_dir;
  bool keep_files = false;
};

/// Parses `config.design` into `pin` (untouched when no design is set).
/// Returns why it cannot pin `config.family`, or "" when it can.
std::string parse_sweep_pin(const SweepConfig& config, DesignPin& pin);

struct SweepResult {
  std::uint64_t scenarios = 0;
  std::uint64_t killed = 0;       // workers that died by SIGKILL
  std::uint64_t clean_exits = 0;  // workers that exited 0
  std::uint64_t attack_scenarios = 0;
  std::uint64_t acked_ops = 0;
  std::uint64_t auditor_checks = 0;
  std::vector<std::string> failures;  // index order, deterministic

  bool ok() const { return failures.empty(); }
};

/// Fork+exec one worker per scenario (`/proc/self/exe crashd worker ...`,
/// in parallel over the deterministic executor), reap it, and verify
/// every image in-process. Installs its
/// own CheckThrowScope — must not run inside another one.
SweepResult run_sweep(const SweepConfig& config);

}  // namespace ccnvm::crashd
