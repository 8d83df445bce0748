#include "crashd/crashd.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "audit/invariant_auditor.h"
#include "audit/kv_oracle.h"
#include "audit/sweep_shape.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cc_nvm.h"
#include "core/persistence.h"
#include "nvm/file_backend.h"
#include "service/kv_service.h"
#include "service/service_bench.h"

namespace ccnvm::crashd {
namespace {

using audit::KvOp;
using audit::KvOpKind;
using audit::KvUnit;

constexpr std::size_t kKeys = 16;
constexpr std::size_t kCheckpointEvery = 8;

// Service and txn family bounds (derive_scenario stays inside these).
// Txn shards are pinned at 2 (see KillEvent: a both-shard commit's locks
// are what make wave kills safe).
constexpr std::size_t kKeysPerThread = 8;
constexpr std::size_t kServiceMaxShards = 2;
constexpr std::size_t kServiceMaxThreads = 4;
constexpr std::size_t kTxnShards = 2;

/// The paper's crash model has no notion of a process observing its own
/// death; raise(SIGKILL) matches that — no handlers, no unwinding, no
/// atexit, nothing after this line runs.
[[noreturn]] void die_now() {
  std::raise(SIGKILL);
  std::abort();  // unreachable: SIGKILL cannot be blocked
}

const char* trigger_name(core::DrainTrigger t) {
  switch (t) {
    case core::DrainTrigger::kDaqPressure: return "daq-pressure";
    case core::DrainTrigger::kDirtyEviction: return "dirty-eviction";
    case core::DrainTrigger::kUpdateLimit: return "update-limit";
    case core::DrainTrigger::kExplicit: return "explicit";
  }
  return "?";
}

const char* phase_name(core::DrainCrashPoint p) {
  switch (p) {
    case core::DrainCrashPoint::kNone: return "none";
    case core::DrainCrashPoint::kMidBatch: return "mid-batch";
    case core::DrainCrashPoint::kAfterBatchBeforeEnd: return "after-batch";
    case core::DrainCrashPoint::kAfterEndBeforeCommit: return "before-commit";
  }
  return "?";
}

/// Fills in the engines, keyspace, thread seeds and unit draw of `sc`
/// from what derive_scenario drew.
void shape_engines(Scenario& sc, std::uint64_t workload_seed) {
  service::ServiceConfig& cfg = sc.engines;
  cfg.design = audit::shaped_design_config(sc.trigger, audit::kKvDaqEntries);
  const bool txn = sc.family == Family::kTxn;
  if (sc.family == Family::kSingle) {
    cfg.store = audit::sweep_store_config();
    sc.keyspace = audit::numbered_keys("cd-", kKeys);
    sc.thread_seeds = {workload_seed};
  } else {
    // One store shard per engine (the service supplies the sharding),
    // sized for the worst case — every thread's keys (4 * 8 of <= 140
    // bytes) on one engine, plus, with a txn journal, one prepared txn's
    // staged copies — with churn slack.
    cfg.queue_capacity = 64;
    cfg.store.shards = 1;
    cfg.store.buckets_per_shard = 64;
    cfg.store.heap_lines_per_shard = 192;
    cfg.store.txn_ops_capacity = txn ? 8 : 0;
    for (std::size_t t = 0; t < sc.threads; ++t) {
      sc.thread_seeds.push_back(derive_seed(workload_seed, t));
      for (std::size_t k = 0; k < kKeysPerThread; ++k) {
        sc.keyspace.push_back((txn ? "tx" : "sv") + std::to_string(t) + "-" +
                              std::to_string(k));
      }
    }
  }
  // Thread t owns the t-th slice of the keyspace: disjoint namespaces, so
  // each thread's model replays independently of scheduling. Value bytes
  // are salted by thread (t * 29) so a cross-thread mixup cannot
  // masquerade as a correct read-back.
  const std::size_t per_thread = sc.keyspace.size() / sc.threads;
  sc.draw = [txn, trigger = sc.trigger, keys = sc.keyspace, per_thread](
                Rng& rng, std::size_t t, std::uint64_t& put_tag) {
    const std::string* own = &keys[t * per_thread];
    if (!txn) {
      const std::size_t k = audit::draw_key_index(rng, trigger, per_thread);
      return KvUnit{audit::draw_op(rng, own[k], 140, t * 29, put_tag)};
    }
    // One unit is a single op or a whole 2-4-op transaction, biased toward
    // txns — they are what this family exists to kill. Values stay under
    // 100 bytes so a prepared txn's staged copies fit the engine's heap
    // beside the live worst case.
    const std::uint64_t n = rng.below(100) < 60 ? 2 + rng.below(3) : 1;
    KvUnit unit;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(rng.below(per_thread));
      unit.push_back(audit::draw_op(rng, own[k], 100, t * 29, put_tag));
    }
    return unit;
  };
}

std::string shard_path(const Scenario& sc, const std::string& image,
                       std::size_t shard) {
  return sc.family == Family::kSingle
             ? image
             : image + ".s" + std::to_string(shard);
}

std::string ack_path(const Scenario& sc, const std::string& image,
                     std::size_t thread) {
  return sc.family == Family::kSingle
             ? image + ".ack"
             : image + ".ack.t" + std::to_string(thread);
}

/// 'A' promises a single op, 'T' a whole transaction.
char ack_byte(const KvUnit& unit) { return unit.size() > 1 ? 'T' : 'A'; }

std::unique_ptr<nvm::Backend> create_image(const std::string& path,
                                           std::uint64_t capacity_bytes) {
  // kNone: SIGKILL keeps the page cache, which is all this harness needs
  // (see file comment in nvm/file_backend.h); no barrier pays an msync.
  return nvm::FileBackend::create(path, capacity_bytes,
                                  nvm::FileBackend::SyncMode::kNone);
}

// ---- Worker side ---------------------------------------------------------

/// One unbuffered ack log per client thread, all created before any
/// traffic so the verifier finds every log even after an instant kill.
/// One write(2) per ack: a buffered stream would lose acks sitting in
/// user-space buffers at the kill and make the verifier under-count what
/// the worker promised.
class AckLogs {
 public:
  AckLogs(const Scenario& sc, const std::string& image) {
    for (std::size_t t = 0; t < sc.threads; ++t) {
      fds_.push_back(::open(ack_path(sc, image, t).c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644));
      CCNVM_CHECK_MSG(fds_.back() >= 0, "crashd worker: cannot create ack log");
    }
  }
  ~AckLogs() {
    for (const int fd : fds_) ::close(fd);
  }
  AckLogs(const AckLogs&) = delete;
  AckLogs& operator=(const AckLogs&) = delete;

  /// The ack IS the durability promise the verifier holds the image to:
  /// anything acknowledged must survive the kill. CCNVM_ACK lets nvlint
  /// prove no unbarriered persistent write can precede an ack (check N1).
  CCNVM_ACK void ack(std::size_t thread, char c) const {
    CCNVM_CHECK(::write(fds_[thread], &c, 1) == 1);
  }

 private:
  std::vector<int> fds_;
};

/// The one die-at-target counter: counts the scenario's kill events, from
/// any thread, and dies at the target-th.
class KillSwitch {
 public:
  explicit KillSwitch(Kill kill) : kill_(kill) {}

  void on(KillEvent event) {
    if (event == kill_.event && count_.fetch_add(1) + 1 == kill_.target) {
      die_now();
    }
  }

 private:
  const Kill kill_;
  std::atomic<std::uint64_t> count_{0};
};

void run_unit(service::KvService& service, const KvUnit& unit) {
  std::vector<service::TxnOp> ops;
  for (const KvOp& op : unit) {
    ops.push_back({op.kind == KvOpKind::kPut     ? service::OpType::kPut
                   : op.kind == KvOpKind::kErase ? service::OpType::kErase
                                                 : service::OpType::kGet,
                   op.key, op.value});
  }
  if (ops.size() > 1) {
    CCNVM_CHECK_MSG(service.submit_txn(ops).committed,
                    "crashd worker: txn aborted");
    return;
  }
  const service::TxnOp& op = ops.front();
  service::Request r;
  r.op = op.op;
  r.key = op.key;
  r.value = op.value;
  CCNVM_CHECK_MSG(service.submit(std::move(r)).get().ok ||
                      op.op != service::OpType::kPut,
                  "crashd worker: store full");
}

// ---- Verifier side -------------------------------------------------------

/// A shard engine rebuilt from the image file a dead worker left behind,
/// with the invariant auditor attached and recovery run.
struct Reopened {
  std::unique_ptr<core::SecureNvmDesign> design;
  core::SecureNvmBase* base = nullptr;
  std::unique_ptr<audit::InvariantAuditor> auditor;
  core::RecoveryReport report;
};

/// `tamper` (attack scenarios) corrupts the image before recovery runs.
Reopened reopen(const std::string& path, core::DesignKind kind,
                const core::DesignConfig& cfg,
                const std::function<void(nvm::NvmImage&,
                                         const core::SecureNvmBase&)>&
                    tamper = nullptr) {
  std::optional<core::PoweredDown> dimm = core::open_dimm(path);
  CCNVM_CHECK_MSG(dimm.has_value(),
                  "crashd verify: image file missing, unreadable or without "
                  "a valid TCB register blob");

  Reopened r;
  r.design = core::make_design(kind, cfg);
  r.base = dynamic_cast<core::SecureNvmBase*>(r.design.get());
  CCNVM_CHECK(r.base != nullptr);
  r.auditor = std::make_unique<audit::InvariantAuditor>(
      audit::InvariantAuditor::Options{.verify_image = true});
  r.auditor->attach(*r.base);
  if (tamper) tamper(dimm->image, *r.base);
  r.base->restore_from_power_down(std::move(dimm->image), dimm->tcb);
  r.report = r.design->recover();
  return r;
}

void verify_scenario(const Scenario& sc, const std::string& image,
                  std::uint64_t sweep_seed, std::uint64_t index,
                  VerifyResult& res) {
  // --- The ack logs: what each client was promised before the kill. ---
  audit::KvModel model;
  bool all_clean = true;
  for (std::size_t t = 0; t < sc.threads; ++t) {
    std::ifstream in(ack_path(sc, image, t), std::ios::binary);
    CCNVM_CHECK_MSG(in.is_open(), "crashd verify: missing ack log");
    const std::string log{std::istreambuf_iterator<char>(in), {}};
    const bool clean = !log.empty() && log.back() == 'C';
    const std::size_t acked = log.size() - (clean ? 1 : 0);
    CCNVM_CHECK_MSG(acked <= sc.units,
                    "crashd verify: more acks than units");
    CCNVM_CHECK_MSG(!clean || acked == sc.units,
                    "crashd verify: clean exit with missing acks");
    // Replay the acked prefix. A client submits unit i+1 only after unit
    // i's ack, so at most one unit per thread is in flight at the kill.
    Rng rng(sc.thread_seeds[t]);
    std::uint64_t put_tag = 0;
    for (std::size_t i = 0; i < sc.units && i <= acked; ++i) {
      KvUnit unit = sc.draw(rng, t, put_tag);
      if (i == acked) {
        model.submit(std::move(unit), t);
        break;
      }
      CCNVM_CHECK_MSG(log[i] == ack_byte(unit),
                      "crashd verify: ack log disagrees with the op stream");
      model.submit(std::move(unit), t);
      model.ack(t);
    }
    all_clean = all_clean && clean;
    res.acked_ops += acked;
  }
  CCNVM_CHECK_MSG(all_clean || sc.kill.event != KillEvent::kNone,
                  "crashd verify: worker died in a no-kill run");
  res.worker_was_killed = !all_clean;

  if (sc.attack) {
    // §4.4 attack location: flip one bit in a populated data line of the
    // (cleanly quiesced) image; recovery must both detect and pinpoint it.
    Addr victim = 0;
    const Reopened r = reopen(
        image, sc.engines.kind, sc.engines.design,
        [&](nvm::NvmImage& img, const core::SecureNvmBase& base) {
          const Addr data_end = base.layout().data_capacity();
          std::vector<Addr> candidates;
          img.for_each_line([&](Addr addr, const Line&) {
            if (addr < data_end) candidates.push_back(addr);
          });
          std::sort(candidates.begin(), candidates.end());
          CCNVM_CHECK_MSG(!candidates.empty(),
                          "crashd verify: attack found no data lines");
          Rng attack_rng(derive_seed(sweep_seed, index, 0xa77acc));
          victim = candidates[attack_rng.below(candidates.size())];
          Line line = img.read_line(victim);
          line[attack_rng.below(kLineSize)] ^=
              static_cast<std::uint8_t>(1u << attack_rng.below(8));
          img.restore_line(victim, line);
        });
    CCNVM_CHECK_MSG(r.report.attack_detected,
                    "crashd verify: corrupted data line not detected");
    CCNVM_CHECK_MSG(r.report.attack_located,
                    "crashd verify: corrupted data line not located");
    CCNVM_CHECK_MSG(std::find(r.report.tampered_blocks.begin(),
                              r.report.tampered_blocks.end(),
                              victim) != r.report.tampered_blocks.end(),
                    "crashd verify: located the wrong line");
    res.attack_checked = true;
    res.auditor_checks = r.auditor->checks_performed();
    return;
  }

  // --- Reopen and recover every shard, then open their stores. ---
  const std::size_t shards = sc.engines.shards;
  std::vector<Reopened> engines;
  for (std::size_t s = 0; s < shards; ++s) {
    engines.push_back(
        reopen(shard_path(sc, image, s), sc.engines.kind,
               service::KvService::engine_design_config(sc.engines, s)));
    CCNVM_CHECK_MSG(
        engines.back().report.clean && engines.back().report.metadata_recovered,
        "crashd verify: recovery of the killed image not clean");
  }
  std::vector<core::SecureNvmBase*> bases;
  for (const Reopened& e : engines) bases.push_back(e.base);
  std::vector<store::SecureKvStore> stores =
      audit::open_shard_stores(bases, sc.engines.store);

  // --- The oracle's contract on the union of the shards. ---
  std::vector<audit::ReopenedStore> keyed(shards);
  for (std::size_t s = 0; s < shards; ++s) keyed[s].kv = &stores[s];
  for (const std::string& key : sc.keyspace) {
    keyed[service::KvService::shard_of(key, shards)].keys.push_back(key);
  }
  res.keys_checked = audit::check_reopened(model, keyed).size();
  for (const Reopened& e : engines) {
    res.auditor_checks += e.auditor->checks_performed();
  }
}

struct PerScenario {
  bool killed = false;
  bool clean = false;
  bool attack = false;
  std::string description;
  VerifyResult verify;
  std::string spawn_error;
};

/// Fork+exec the worker of scenario `index`, reap it and verify its files.
PerScenario run_scenario(const SweepConfig& config, const DesignPin* pin,
                         const Scenario& sc, const std::string& image,
                         std::uint64_t index) {
  PerScenario out;
  out.attack = sc.attack;
  out.description = describe(sc);
  const std::string worker_exe = "/proc/self/exe";
  std::vector<std::string> args = {
      worker_exe, "crashd", "worker", "--image=" + image,
      "--seed=" + std::to_string(config.seed),
      "--index=" + std::to_string(index)};
  if (config.family == Family::kService) args.emplace_back("--service");
  if (config.family == Family::kTxn) args.emplace_back("--txn");
  if (pin != nullptr) args.push_back("--design=" + config.design);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec (the parent runs a
    // thread pool).
    ::execv(worker_exe.c_str(), argv.data());
    ::_exit(127);
  }
  if (pid < 0) {
    out.spawn_error = "fork failed";
    return out;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    out.spawn_error = "waitpid failed";
    return out;
  }
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    out.killed = true;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    out.clean = true;
  } else {
    out.spawn_error = "worker died unexpectedly (wait status " +
                      std::to_string(status) + ")";
    return out;
  }
  out.verify = verify(config.family, image, config.seed, index, pin);
  if (out.verify.ok && out.verify.worker_was_killed != out.killed) {
    out.verify.ok = false;
    out.verify.message = "ack log disagrees with the wait status";
  }
  return out;
}

}  // namespace

bool parse_design_pin(const std::string& name, DesignPin& pin) {
  const std::optional<core::DesignKind> kind =
      core::parse_design(name, &pin.persist_level);
  if (!kind || (*kind != core::DesignKind::kCcNvm &&
                *kind != core::DesignKind::kCcNvmNoDs &&
                *kind != core::DesignKind::kTriadNvm &&
                *kind != core::DesignKind::kPhoenix)) {
    return false;
  }
  pin.kind = *kind;
  return true;
}

Scenario derive_scenario(Family family, std::uint64_t sweep_seed,
                         std::uint64_t index, const DesignPin* pin) {
  CCNVM_CHECK_MSG(pin == nullptr || family == Family::kSingle,
                  "crashd: design pins are single-threaded-family only");
  // Per-family seed salts (rng, workload), indexed by Family.
  constexpr std::uint64_t kSalts[3][2] = {
      {0xc4a5d, 0x30b5}, {0x5e41ce, 0x5eed5}, {0x7a135, 0x7a5eed}};
  const auto& salts = kSalts[static_cast<std::size_t>(family)];
  Scenario sc;
  sc.family = family;
  sc.engines.shards = 1;
  Rng rng(derive_seed(sweep_seed, index, salts[0]));
  // Only the designs whose full crash state is mirrored into the backend
  // (TCB registers); cc-NVM+'s per-block update registers are in-process
  // sweep territory.
  sc.engines.kind = rng.chance(0.5) ? core::DesignKind::kCcNvm
                                    : core::DesignKind::kCcNvmNoDs;
  sc.trigger = audit::kSweepTriggers[rng.below(audit::kSweepTriggers.size())];
  if (family == Family::kSingle) {
    sc.units = 24 + static_cast<std::size_t>(rng.below(33));
    const std::uint64_t roll = rng.below(100);  // < 10: no kill
    if (roll >= 90) {
      sc.attack = true;
    } else if (roll >= 45) {
      constexpr core::DrainCrashPoint kPhases[3] = {
          core::DrainCrashPoint::kMidBatch,
          core::DrainCrashPoint::kAfterBatchBeforeEnd,
          core::DrainCrashPoint::kAfterEndBeforeCommit};
      sc.phase = kPhases[rng.below(3)];
      sc.kill = {KillEvent::kDrainArm, 1 + rng.below(6)};
    } else if (roll >= 10) {
      sc.kill = {roll < 30 ? KillEvent::kOpAcked : KillEvent::kOpApplied,
                 1 + rng.below(sc.units)};
    }
  } else {
    sc.threads = 2 + static_cast<std::size_t>(
                         rng.below(kServiceMaxThreads - 1));  // 2..4
    sc.units = family == Family::kService
                   ? 12 + static_cast<std::size_t>(rng.below(21))  // 12..32
                   : 8 + static_cast<std::size_t>(rng.below(9));   // 8..16
    constexpr std::size_t kBatchSizes[5] = {1, 2, 4, 8, 16};
    sc.engines.commit.max_batch = kBatchSizes[rng.below(5)];
    constexpr std::uint32_t kGaps[4] = {0, 0, 100, 500};
    sc.engines.commit.max_delay_us = kGaps[rng.below(4)];
    const std::uint64_t units = sc.threads * sc.units;
    const std::uint64_t roll = rng.below(100);
    if (family == Family::kTxn) {
      sc.engines.shards = kTxnShards;
      if (roll >= 20) {
        sc.wave = static_cast<int>(rng.below(3));
        // ~60% of units are txns and most 2-4-op draws over 8 keys span
        // both shards; aim low so most targets fire before the run drains.
        sc.kill = {KillEvent::kWave, 1 + rng.below(units / 4 + 1)};
      }
    } else if (roll < 20) {
      // Only clean runs fan out across shards (see KillEvent).
      sc.engines.shards =
          1 + static_cast<std::size_t>(rng.below(kServiceMaxShards));
    } else if (roll < 60) {
      sc.kill = {KillEvent::kApplied, 1 + rng.below(units)};
    } else {
      // Barrier counts depend on batching; aim low so most targets fire.
      sc.kill = {KillEvent::kBarrier, 1 + rng.below(units / 2 + 1)};
    }
  }
  if (pin != nullptr) {
    // Applied after the full derivation: the rng stream is untouched, so
    // a pinned sweep runs the same op streams and kill points as the
    // default mix — only the design under test changes.
    sc.engines.kind = pin->kind;
    if (sc.kill.event == KillEvent::kDrainArm &&
        core::commits_every_write_back(sc.engines.kind)) {
      // No drain window to kill inside: remap to a deterministic op
      // boundary so the pinned sweep keeps the same kill density.
      sc.kill = {KillEvent::kOpAcked,
                 1 + ((sc.kill.target - 1) * 7 +
                      static_cast<std::uint64_t>(sc.phase)) %
                         sc.units};
      sc.phase = core::DrainCrashPoint::kNone;
    }
  }
  shape_engines(sc, derive_seed(sweep_seed, index, salts[1]));
  if (pin != nullptr) sc.engines.design.persist_level = pin->persist_level;
  return sc;
}

std::string describe(const Scenario& sc) {
  std::string s = sc.family == Family::kService ? "service "
                  : sc.family == Family::kTxn   ? "txn "
                                                : "";
  s += core::design_name(sc.engines.kind);
  if (sc.engines.kind == core::DesignKind::kTriadNvm) {
    s += "(n=" + std::to_string(sc.engines.design.persist_level) + ")";
  }
  s += " trigger=" + std::string(trigger_name(sc.trigger));
  if (sc.family == Family::kSingle) {
    s += " ops=" + std::to_string(sc.units);
  } else {
    if (sc.family == Family::kService) {
      s += " shards=" + std::to_string(sc.engines.shards);
    }
    s += " threads=" + std::to_string(sc.threads) +
         (sc.family == Family::kTxn ? " actions/thread=" : " ops/thread=") +
         std::to_string(sc.units) +
         " batch=" + std::to_string(sc.engines.commit.max_batch) +
         " gap=" + std::to_string(sc.engines.commit.max_delay_us) + "us";
  }
  const std::string target = std::to_string(sc.kill.target);
  // The single family names the op (and drains) before the kill, 0-based.
  const std::string before = std::to_string(sc.kill.target - 1);
  switch (sc.kill.event) {
    case KillEvent::kNone:
      return s + (sc.attack ? " kill=none+attack" : " kill=none");
    case KillEvent::kOpApplied:
      return s + " kill=before-ack@" + before;
    case KillEvent::kOpAcked:
      return s + " kill=op-boundary@" + before;
    case KillEvent::kDrainArm:
      return s + " kill=drain:" + phase_name(sc.phase) + "#" + before;
    case KillEvent::kApplied:
      return s + " kill=mid-batch@" + target;
    case KillEvent::kBarrier:
      return s + " kill=after-barrier@" + target;
    case KillEvent::kWave:
      return s + " kill=wave" + std::to_string(sc.wave) + "@" + target;
  }
  return s;
}

std::string describe(Family family, std::uint64_t sweep_seed,
                     std::uint64_t index, const DesignPin* pin) {
  return describe(derive_scenario(family, sweep_seed, index, pin));
}

int run_worker(Family family, const std::string& image_path,
               std::uint64_t sweep_seed, std::uint64_t index,
               const DesignPin* pin) {
  const Scenario sc = derive_scenario(family, sweep_seed, index, pin);
  CCNVM_CHECK_MSG((sc.kill.event != KillEvent::kApplied &&
                   sc.kill.event != KillEvent::kBarrier) ||
                      sc.engines.shards == 1,
                  "crashd: drain-worker kills must be single-shard");
  // Declared before the engines so the hooks capturing it outlive them.
  KillSwitch kills(sc.kill);
  const AckLogs acks(sc, image_path);

  // The single family: one design and store, driven on the client thread.
  std::unique_ptr<core::SecureNvmDesign> design;
  core::SecureNvmBase* base = nullptr;
  core::CcNvmDesign* cc = nullptr;
  std::optional<store::SecureKvStore> kv;
  // The service families: a KvService whose hooks count the kill events.
  std::optional<service::KvService> service;
  if (family == Family::kSingle) {
    core::DesignConfig cfg = sc.engines.design;
    cfg.backend_factory = [&image_path](std::uint64_t capacity_bytes) {
      return create_image(image_path, capacity_bytes);
    };
    design = core::make_design(sc.engines.kind, cfg);
    base = dynamic_cast<core::SecureNvmBase*>(design.get());
    cc = dynamic_cast<core::CcNvmDesign*>(design.get());
    CCNVM_CHECK_MSG(base != nullptr, "crashd worker needs a SecureNvmBase");
    if (sc.kill.event == KillEvent::kDrainArm) {
      CCNVM_CHECK_MSG(cc != nullptr,
                      "crashd drain-phase kill needs a CcNvmDesign");
      cc->set_power_loss_hook([] { die_now(); });
    }
    kv.emplace(*base, sc.engines.store);
  } else {
    service::ServiceConfig cfg = sc.engines;
    cfg.backend_factory = [&sc, &image_path](std::size_t shard,
                                             std::uint64_t capacity_bytes) {
      return create_image(shard_path(sc, image_path, shard), capacity_bytes);
    };
    cfg.after_apply_hook = [&kills] { kills.on(KillEvent::kApplied); };
    cfg.after_barrier_hook = [&kills] { kills.on(KillEvent::kBarrier); };
    cfg.txn_wave_hook = [&kills, wave = sc.wave](int w,
                                                 std::size_t participants) {
      if (w == wave && participants == kTxnShards) kills.on(KillEvent::kWave);
    };
    service.emplace(cfg);
  }

  service::run_clients(sc.threads, [&](std::size_t t) {
    // A unit returns once it is durable (the store's op, or KvService's
    // ack-after-barrier contract; submit_txn once its commit point's);
    // the ack byte re-promises it to the verifier.
    Rng rng(sc.thread_seeds[t]);
    std::uint64_t put_tag = 0;
    bool armed = false;
    for (std::size_t i = 0; i < sc.units; ++i) {
      const KvUnit unit = sc.draw(rng, t, put_tag);
      if (!kv) {
        run_unit(*service, unit);
      } else {
        if (sc.kill.event == KillEvent::kDrainArm && !armed &&
            base->stats().drains + 1 >= sc.kill.target) {
          cc->arm_drain_crash(sc.phase);
          armed = true;
        }
        audit::run_op(*kv, unit.front());
      }
      kills.on(KillEvent::kOpApplied);
      acks.ack(t, ack_byte(unit));
      kills.on(KillEvent::kOpAcked);
      if (kv && sc.trigger == core::DrainTrigger::kExplicit &&
          (i + 1) % kCheckpointEvery == 0) {
        kv->checkpoint();
      }
    }
    // Reached when no kill was drawn or the target never fired (an armed
    // drain crash may still fire here): quiesce, then promise the trace.
    if (kv) kv->checkpoint();
    acks.ack(t, 'C');
  });
  if (service) service->shutdown();
  return 0;
}

VerifyResult verify(Family family, const std::string& image_path,
                    std::uint64_t sweep_seed, std::uint64_t index,
                    const DesignPin* pin) {
  VerifyResult res;
  try {
    verify_scenario(derive_scenario(family, sweep_seed, index, pin),
                    image_path, sweep_seed, index, res);
    res.ok = true;
  } catch (const std::exception& e) {
    res.ok = false;
    res.message = e.what();
  }
  return res;
}

std::string parse_sweep_pin(const SweepConfig& config, DesignPin& pin) {
  if (config.design.empty()) return "";
  if (config.family != Family::kSingle) {
    return "--design pins are single-threaded-family only; drop "
           "--service/--txn";
  }
  if (!parse_design_pin(config.design, pin)) {
    return "unknown or unsupported design pin '" + config.design + "'";
  }
  return "";
}

SweepResult run_sweep(const SweepConfig& config) {
  DesignPin pin_storage;
  if (std::string why = parse_sweep_pin(config, pin_storage); !why.empty()) {
    SweepResult invalid;
    invalid.failures.push_back(std::move(why));
    return invalid;
  }
  const DesignPin* pin = config.design.empty() ? nullptr : &pin_storage;
  std::string dir = config.work_dir;
  bool made_dir = false;
  if (dir.empty()) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at sweep startup,
    // before any worker threads exist; nothing mutates the environment
    const char* tmp = std::getenv("TMPDIR");
    std::string tmpl = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                       "/ccnvm-crashd-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    CCNVM_CHECK_MSG(::mkdtemp(buf.data()) != nullptr,
                    "crashd sweep: mkdtemp failed");
    dir = buf.data();
    made_dir = true;
  }

  // One throw-scope for the whole sweep: auditor/contract violations in
  // verify surface as CheckFailure, are caught there, and fold into
  // per-index failure strings — deterministic for any job count.
  CheckThrowScope throw_scope;
  const std::vector<PerScenario> results = parallel_map<PerScenario>(
      static_cast<std::size_t>(config.scenarios), config.jobs,
      [&](std::size_t i) {
        const Scenario sc = derive_scenario(config.family, config.seed, i, pin);
        const std::string image = dir + "/img-" + std::to_string(i);
        PerScenario out = run_scenario(config, pin, sc, image, i);
        if (!config.keep_files) {
          for (std::size_t s = 0; s < sc.engines.shards; ++s) {
            std::remove(shard_path(sc, image, s).c_str());
          }
          for (std::size_t t = 0; t < sc.threads; ++t) {
            std::remove(ack_path(sc, image, t).c_str());
          }
        }
        return out;
      });

  SweepResult sweep;
  sweep.scenarios = config.scenarios;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PerScenario& r = results[i];
    if (r.attack) ++sweep.attack_scenarios;
    if (r.killed) ++sweep.killed;
    if (r.clean) ++sweep.clean_exits;
    sweep.acked_ops += r.verify.acked_ops;
    sweep.auditor_checks += r.verify.auditor_checks;
    if (!r.spawn_error.empty() || !r.verify.ok) {
      const std::string& why =
          !r.spawn_error.empty() ? r.spawn_error : r.verify.message;
      sweep.failures.push_back("scenario " + std::to_string(i) + " [" +
                               r.description + "]: " + why);
    }
  }
  if (made_dir && !config.keep_files) ::rmdir(dir.c_str());
  return sweep;
}

}  // namespace ccnvm::crashd
