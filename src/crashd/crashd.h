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
// One Scenario describes every run. Its family picks the client body:
// single-threaded (one SecureKvStore), service (KvService client threads)
// or txn (multi-key transactions over a two-shard KvService). Its kill is
// one pair, an event kind and a target: the worker counts the events of
// that kind and dies at the target-th one. The verifier opens a
// multi-shard run's stores in shard order, resolving prepared txns
// against the coordinator's decision line (audit::open_shard_stores), so
// the oracle's unit there is a whole txn: acknowledged txns read back in
// full, an unacknowledged one is never partially applied.
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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/kv_oracle.h"
#include "common/rng.h"
#include "core/design.h"
#include "core/protocol_observer.h"
#include "service/kv_service.h"

namespace ccnvm::crashd {

enum class Family { kSingle, kService, kTxn };

/// The events a worker can die at. Every kill fires between complete
/// line writes, so the image holds a prefix of the program's writes:
///   * single family: on its one client thread, or inside a drain at one
///     of the §4.2 crash windows (CcNvmDesign's power-loss hook fires at
///     the exact armed point);
///   * service family: at the drain worker's safe points, with the client
///     threads at arbitrary progress — queued, mid-batch, or applied and
///     barriered but not yet acknowledged. Only one drain worker may
///     touch NVM, so these scenarios run one shard;
///   * txn family: on the client thread driving a commit that spans both
///     shards, at a 2PC wave boundary. The committing txn holds BOTH
///     shards' admission locks across its waves, so every drain worker is
///     parked on an empty queue (a single-shard txn's waves would leave
///     the other worker live, so they are not counted). Wave 2 fires
///     before the finalize is posted: after the post, the other shard's
///     worker may be mid-line-write.
enum class KillEvent {
  kNone,       // no kill: run to a clean quiesced shutdown
  kOpApplied,  // single: an op was applied, before its ack
  kOpAcked,    // single: an op was acknowledged
  kDrainArm,   // single: the kill lands in drain #target, see Scenario::phase
  kApplied,    // service: the drain worker applied a request, pre-barrier
  kBarrier,    // service: a batch's barrier, before its acks
  kWave,       // txn: wave Scenario::wave of a both-shard commit is acked
};

/// Die at the target-th (1-based) event of `event`'s kind, counted over
/// every thread. A target past the run's end degrades to a clean run.
/// kDrainArm arms Scenario::phase at the first op boundary after
/// target-1 drains have committed.
struct Kill {
  KillEvent event = KillEvent::kNone;
  std::uint64_t target = 0;
};

/// One scenario of any family, fully derived from (sweep_seed, index):
/// worker and verifier — different processes — replay it identically.
struct Scenario {
  Family family = Family::kSingle;
  /// Design kind, shard count, per-shard design and store geometry and
  /// the group-commit policy. The single family runs its one engine
  /// without a KvService; KvService::engine_design_config over this is
  /// the per-shard design of the service families.
  service::ServiceConfig engines;
  core::DrainTrigger trigger = core::DrainTrigger::kExplicit;
  std::size_t threads = 1;  // one client thread and ack log each
  std::size_t units = 0;    // per thread; a unit is one op or one txn
  Kill kill;
  core::DrainCrashPoint phase = core::DrainCrashPoint::kNone;  // kDrainArm
  /// kWave: 0 = prepares acked (before the decision), 1 = decision acked
  /// (before the finalizes), 2 = finalizes acked (before the client's ack
  /// byte).
  int wave = 0;
  bool attack = false;  // clean run; the verifier then corrupts the image
  std::vector<std::string> keyspace;
  std::vector<std::uint64_t> thread_seeds;
  /// Draws thread t's next unit; worker and verifier both replay it.
  std::function<audit::KvUnit(Rng&, std::size_t t, std::uint64_t& put_tag)>
      draw;
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

/// The deterministic scenario (sweep_seed, index) of `family`. Each
/// family draws from its own seed salt in its own order. A pin (single
/// family only) overrides only the design, and remaps drain-window kills,
/// which need a draining design, to a deterministic op-boundary kill; the
/// op stream, kill density and workload seeds stay identical across pins
/// so sweeps are comparable.
Scenario derive_scenario(Family family, std::uint64_t sweep_seed,
                         std::uint64_t index, const DesignPin* pin = nullptr);

/// One-line description: the design, workload shape and kill point.
std::string describe(const Scenario& scenario);
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
