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
#include <thread>
#include <utility>

#include "audit/invariant_auditor.h"
#include "audit/kv_oracle.h"
#include "audit/sweep_shape.h"
#include "common/annotations.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cc_nvm.h"
#include "core/tcb.h"
#include "nvm/file_backend.h"
#include "service/kv_service.h"

namespace ccnvm::crashd {
namespace {

using audit::KvOp;
using audit::KvOpKind;
using audit::KvUnit;

constexpr std::size_t kKeys = 16;
constexpr std::size_t kCheckpointEvery = 8;

// Service and txn family bounds (the derive_* functions stay inside
// these). Txn shards are pinned at 2 (see crashd.h: a both-shard
// commit's locks are what make wave kills safe).
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

/// What the shared worker, verifier and sweep code needs to know about
/// one scenario, whatever its family.
struct Shape {
  Family family = Family::kSingle;
  std::string description;
  /// Design kind, shard count, per-shard design and store geometry. The
  /// single family runs its one engine without a KvService.
  service::ServiceConfig engines;
  std::size_t threads = 1;  // one client thread and ack log each
  std::size_t units = 0;    // units per thread
  bool kill_drawn = false;  // false: every client must finish cleanly
  bool attack = false;      // single family: corrupt the image, then locate
  std::vector<std::string> keyspace;
  std::vector<std::uint64_t> thread_seeds;
  /// Draws thread t's next unit; worker and verifier both replay it.
  std::function<KvUnit(Rng&, std::size_t t, std::uint64_t& put_tag)> draw;
};

Shape shape_of(const Scenario& sc) {
  Shape shape;
  shape.description = describe(sc);
  shape.engines.shards = 1;
  shape.engines.kind = sc.kind;
  shape.engines.design =
      audit::shaped_design_config(sc.trigger, audit::kKvDaqEntries);
  shape.engines.design.persist_level = sc.persist_level;
  shape.engines.store = audit::sweep_store_config();
  shape.units = sc.ops;
  shape.kill_drawn = sc.kill != KillMode::kNone && sc.kill != KillMode::kAttack;
  shape.attack = sc.kill == KillMode::kAttack;
  shape.keyspace = audit::numbered_keys("cd-", kKeys);
  shape.thread_seeds = {sc.workload_seed};
  shape.draw = [trigger = sc.trigger, keys = shape.keyspace](
                   Rng& rng, std::size_t, std::uint64_t& put_tag) {
    const std::size_t k = audit::draw_key_index(rng, trigger, keys.size());
    return KvUnit{audit::draw_op(rng, keys[k], 140, 0, put_tag)};
  };
  return shape;
}

/// Thread t of a KvService family owns keys "<prefix><t>-<k>": disjoint
/// namespaces, so each thread's model replays independently of
/// scheduling. Value bytes are salted by thread (t * 29) so a
/// cross-thread mixup cannot masquerade as a correct read-back.
std::string thread_key(const char* prefix, std::size_t t, std::size_t k) {
  return prefix + std::to_string(t) + "-" + std::to_string(k);
}

/// The Shape parts the KvService families share. Engine geometry (the
/// worker adds the backend factory and kill hooks on top;
/// KvService::engine_design_config over it is the single source of
/// per-shard design geometry for reopening a dead service's images): one
/// store shard per engine (the service supplies the sharding), sized for
/// the worst case — every thread's keys (4 * 8 of <= 140 bytes) on one
/// engine, plus, with a `txn_ops`-op journal, one prepared txn's staged
/// copies — with churn slack.
template <class Sc>
Shape service_shape(Family family, const Sc& sc, std::size_t shards,
                    std::size_t txn_ops, const char* key_prefix) {
  Shape shape;
  shape.family = family;
  shape.description = describe(sc);
  service::ServiceConfig& cfg = shape.engines;
  cfg.shards = shards;
  cfg.queue_capacity = 64;
  cfg.commit.max_batch = sc.max_batch;
  cfg.commit.max_delay_us = sc.max_delay_us;
  cfg.kind = sc.kind;
  cfg.design = audit::shaped_design_config(sc.trigger, audit::kKvDaqEntries);
  cfg.store.shards = 1;
  cfg.store.buckets_per_shard = 64;
  cfg.store.heap_lines_per_shard = 192;
  cfg.store.txn_ops_capacity = txn_ops;
  shape.threads = sc.threads;
  shape.kill_drawn = sc.kill != decltype(sc.kill)::kNone;
  for (std::size_t t = 0; t < sc.threads; ++t) {
    shape.thread_seeds.push_back(derive_seed(sc.workload_seed, t));
    for (std::size_t k = 0; k < kKeysPerThread; ++k) {
      shape.keyspace.push_back(thread_key(key_prefix, t, k));
    }
  }
  return shape;
}

Shape shape_of(const ServiceScenario& sc) {
  Shape shape = service_shape(Family::kService, sc, sc.shards, 0, "sv");
  shape.units = sc.ops_per_thread;
  shape.draw = [trigger = sc.trigger](Rng& rng, std::size_t t,
                                      std::uint64_t& put_tag) {
    const std::size_t k = audit::draw_key_index(rng, trigger, kKeysPerThread);
    return KvUnit{
        audit::draw_op(rng, thread_key("sv", t, k), 140, t * 29, put_tag)};
  };
  return shape;
}

Shape shape_of(const TxnScenario& sc) {
  Shape shape = service_shape(Family::kTxn, sc, kTxnShards, 8, "tx");
  shape.units = sc.actions_per_thread;
  // One unit is a single op or a whole 2-4-op transaction, biased toward
  // txns — they are what this family exists to kill. Values stay under
  // 100 bytes so a prepared txn's staged copies fit the engine's heap
  // beside the live worst case.
  shape.draw = [](Rng& rng, std::size_t t, std::uint64_t& put_tag) {
    const bool is_txn = rng.below(100) < 60;
    const std::uint64_t n = is_txn ? 2 + rng.below(3) : 1;
    KvUnit unit;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(rng.below(kKeysPerThread));
      unit.push_back(
          audit::draw_op(rng, thread_key("tx", t, k), 100, t * 29, put_tag));
    }
    return unit;
  };
  return shape;
}

Shape shape_of(Family family, std::uint64_t sweep_seed, std::uint64_t index,
               const DesignPin* pin) {
  CCNVM_CHECK_MSG(pin == nullptr || family == Family::kSingle,
                  "crashd: design pins are single-threaded-family only");
  switch (family) {
    case Family::kService:
      return shape_of(derive_service_scenario(sweep_seed, index));
    case Family::kTxn:
      return shape_of(derive_txn_scenario(sweep_seed, index));
    case Family::kSingle:
      break;
  }
  return shape_of(derive_scenario(sweep_seed, index, pin));
}

std::string shard_path(const Shape& shape, const std::string& image,
                       std::size_t shard) {
  return shape.family == Family::kSingle
             ? image
             : image + ".s" + std::to_string(shard);
}

std::string ack_path(const Shape& shape, const std::string& image,
                     std::size_t thread) {
  return shape.family == Family::kSingle
             ? image + ".ack"
             : image + ".ack.t" + std::to_string(thread);
}

/// 'A' promises a single op, 'T' a whole transaction.
char ack_byte(const KvUnit& unit) { return unit.size() > 1 ? 'T' : 'A'; }

std::unique_ptr<nvm::Backend> create_image(const std::string& path,
                                           std::uint64_t capacity_bytes) {
  // kNone: SIGKILL keeps the page cache, which is all this harness needs
  // (see file comment in nvm/file_backend.h); kSync would model machine
  // power cuts and msync on every batch.
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
  AckLogs(const Shape& shape, const std::string& image) {
    for (std::size_t t = 0; t < shape.threads; ++t) {
      fds_.push_back(::open(ack_path(shape, image, t).c_str(),
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

int run_single_worker(const Scenario& sc, const Shape& shape,
                      const std::string& image) {
  core::DesignConfig cfg = shape.engines.design;
  cfg.backend_factory = [&image](std::uint64_t capacity_bytes) {
    return create_image(image, capacity_bytes);
  };
  auto design = core::make_design(sc.kind, cfg);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  auto* cc = dynamic_cast<core::CcNvmDesign*>(design.get());
  CCNVM_CHECK_MSG(base != nullptr, "crashd worker needs a SecureNvmBase");
  CCNVM_CHECK_MSG(cc != nullptr || sc.kill != KillMode::kDrainPhase,
                  "crashd drain-phase kill needs a CcNvmDesign");
  const AckLogs acks(shape, image);
  if (sc.kill == KillMode::kDrainPhase) {
    cc->set_power_loss_hook([] { die_now(); });
  }

  store::SecureKvStore kv(*base, shape.engines.store);
  Rng rng(shape.thread_seeds[0]);
  std::uint64_t put_tag = 0;
  bool armed = false;
  for (std::size_t i = 0; i < sc.ops; ++i) {
    if (sc.kill == KillMode::kDrainPhase && !armed &&
        base->stats().drains >= sc.target_drain) {
      cc->arm_drain_crash(sc.phase);
      armed = true;
    }
    audit::run_op(kv, shape.draw(rng, 0, put_tag).front());
    if (sc.kill == KillMode::kBeforeAck && i == sc.kill_op) die_now();
    acks.ack(0, 'A');
    if (sc.kill == KillMode::kOpBoundary && i == sc.kill_op) die_now();
    if (sc.trigger == core::DrainTrigger::kExplicit &&
        (i + 1) % kCheckpointEvery == 0) {
      kv.checkpoint();
    }
  }
  // Clean shutdown (reached when no kill was drawn or an armed drain
  // crash never fired): quiesce, then promise the full trace.
  kv.checkpoint();
  acks.ack(0, 'C');
  return 0;
}

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

/// The KvService families' worker: `cfg` is shape.engines plus the
/// family's kill hooks; each client thread runs its unit stream and acks
/// every unit.
int run_service_clients(service::ServiceConfig cfg, const Shape& shape,
                        const std::string& image) {
  cfg.backend_factory = [&shape, &image](std::size_t shard,
                                         std::uint64_t capacity_bytes) {
    return create_image(shard_path(shape, image, shard), capacity_bytes);
  };
  const AckLogs acks(shape, image);
  service::KvService service(cfg);
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < shape.threads; ++t) {
    clients.emplace_back([&service, &shape, &acks, t] {
      // The service completes a request only after its barrier
      // (KvService's ack-after-barrier contract; submit_txn after every
      // touched shard's); the ack byte re-promises it to the verifier.
      Rng rng(shape.thread_seeds[t]);
      std::uint64_t put_tag = 0;
      for (std::size_t i = 0; i < shape.units; ++i) {
        const KvUnit unit = shape.draw(rng, t, put_tag);
        run_unit(service, unit);
        acks.ack(t, ack_byte(unit));
      }
      acks.ack(t, 'C');
    });
  }
  for (std::thread& c : clients) c.join();
  // Reached when no kill was drawn or the target never fired: quiesce.
  service.shutdown();
  return 0;
}

int run_service_worker(const ServiceScenario& sc, const Shape& shape,
                       const std::string& image) {
  // One drain worker, so a kill from its safe point tears no line write.
  CCNVM_CHECK_MSG(sc.kill == ServiceKill::kNone || sc.shards == 1,
                  "crashd service: kill scenarios must be single-shard");
  // Declared before the service so the hooks capturing it outlive the
  // drain workers.
  std::atomic<std::uint64_t> events{0};
  service::ServiceConfig cfg = shape.engines;
  const auto kill_at_target = [&events, target = sc.kill_target] {
    if (events.fetch_add(1) + 1 == target) die_now();
  };
  if (sc.kill == ServiceKill::kMidBatch) {
    cfg.after_apply_hook = kill_at_target;
  } else if (sc.kill == ServiceKill::kAfterBarrier) {
    cfg.after_barrier_hook = kill_at_target;
  }
  return run_service_clients(std::move(cfg), shape, image);
}

int run_txn_worker(const TxnScenario& sc, const Shape& shape,
                   const std::string& image) {
  std::atomic<std::uint64_t> wave_events{0};
  service::ServiceConfig cfg = shape.engines;
  if (sc.kill == TxnKill::kAtWave) {
    cfg.txn_wave_hook = [&wave_events, wave = sc.kill_wave,
                         target = sc.kill_target](int w,
                                                  std::size_t participants) {
      // Both-shard commits only: their locks park every drain worker (see
      // crashd.h); a single-shard txn leaves the other worker live.
      if (w != wave || participants < kTxnShards) return;
      if (wave_events.fetch_add(1) + 1 == target) die_now();
    };
  }
  return run_service_clients(std::move(cfg), shape, image);
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
  auto backend = nvm::FileBackend::open(path);
  CCNVM_CHECK_MSG(backend != nullptr,
                  "crashd verify: image file missing or unreadable");
  std::uint8_t regs[nvm::Backend::kRegisterCapacity];
  const std::size_t reg_len = backend->load_registers(regs, sizeof(regs));
  core::TcbRegisters tcb;
  CCNVM_CHECK_MSG(core::decode_tcb(regs, reg_len, tcb),
                  "crashd verify: image carries no valid TCB register blob");
  nvm::NvmImage image(std::move(backend));

  Reopened r;
  r.design = core::make_design(kind, cfg);
  r.base = dynamic_cast<core::SecureNvmBase*>(r.design.get());
  CCNVM_CHECK(r.base != nullptr);
  r.auditor = std::make_unique<audit::InvariantAuditor>(
      audit::InvariantAuditor::Options{.verify_image = true});
  r.auditor->attach(*r.base);
  if (tamper) tamper(image, *r.base);
  r.base->restore_from_power_down(std::move(image), tcb);
  r.report = r.design->recover();
  return r;
}

void verify_shape(const Shape& shape, const std::string& image,
                  std::uint64_t sweep_seed, std::uint64_t index,
                  VerifyResult& res) {
  // --- The ack logs: what each client was promised before the kill. ---
  audit::KvModel model;
  bool all_clean = true;
  for (std::size_t t = 0; t < shape.threads; ++t) {
    std::ifstream in(ack_path(shape, image, t), std::ios::binary);
    CCNVM_CHECK_MSG(in.is_open(), "crashd verify: missing ack log");
    const std::string log{std::istreambuf_iterator<char>(in), {}};
    const bool clean = !log.empty() && log.back() == 'C';
    const std::size_t acked = log.size() - (clean ? 1 : 0);
    CCNVM_CHECK_MSG(acked <= shape.units,
                    "crashd verify: more acks than units");
    CCNVM_CHECK_MSG(!clean || acked == shape.units,
                    "crashd verify: clean exit with missing acks");
    // Replay the acked prefix. A client submits unit i+1 only after unit
    // i's ack, so at most one unit per thread is in flight at the kill.
    Rng rng(shape.thread_seeds[t]);
    std::uint64_t put_tag = 0;
    for (std::size_t i = 0; i < shape.units && i <= acked; ++i) {
      KvUnit unit = shape.draw(rng, t, put_tag);
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
  CCNVM_CHECK_MSG(all_clean || shape.kill_drawn,
                  "crashd verify: worker died in a no-kill run");
  res.worker_was_killed = !all_clean;

  if (shape.attack) {
    // §4.4 attack location: flip one bit in a populated data line of the
    // (cleanly quiesced) image; recovery must both detect and pinpoint it.
    Addr victim = 0;
    const Reopened r = reopen(
        image, shape.engines.kind, shape.engines.design,
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

  // --- Reopen every shard, then open the stores in shard order: a txn's
  // coordinator is its lowest participant, so its decision line is open
  // before any other participant's journal asks for it. ---
  const std::size_t shards = shape.engines.shards;
  std::vector<Reopened> engines;
  for (std::size_t s = 0; s < shards; ++s) {
    engines.push_back(
        reopen(shard_path(shape, image, s), shape.engines.kind,
               service::KvService::engine_design_config(shape.engines, s)));
    CCNVM_CHECK_MSG(
        engines.back().report.clean && engines.back().report.metadata_recovered,
        "crashd verify: recovery of the killed image not clean");
  }
  std::vector<store::SecureKvStore> stores;
  stores.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    stores.push_back(store::SecureKvStore::open(
        *engines[s].base, shape.engines.store,
        [&stores, s](std::uint64_t txn_id, std::uint32_t coordinator) {
          // A self-coordinated txn whose own decision line already failed
          // to answer is undecided: presumed abort.
          return coordinator < s &&
                 stores[coordinator].last_txn_decision() ==
                     std::optional<std::uint64_t>(txn_id);
        }));
  }

  // --- The oracle's contract on the union of the shards. ---
  std::vector<audit::ReopenedStore> keyed(shards);
  for (std::size_t s = 0; s < shards; ++s) keyed[s].kv = &stores[s];
  for (const std::string& key : shape.keyspace) {
    keyed[service::KvService::shard_of(key, shards)].keys.push_back(key);
  }
  res.keys_checked = audit::check_reopened(model, keyed).size();
  for (const Reopened& e : engines) {
    res.auditor_checks += e.auditor->checks_performed();
  }
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

Scenario derive_scenario(std::uint64_t sweep_seed, std::uint64_t index,
                         const DesignPin* pin) {
  Scenario sc;
  Rng rng(derive_seed(sweep_seed, index, 0xc4a5d));
  // Only the designs whose full crash state is mirrored into the backend
  // (TCB registers); cc-NVM+'s per-block update registers are in-process
  // sweep territory.
  sc.kind = rng.chance(0.5) ? core::DesignKind::kCcNvm
                            : core::DesignKind::kCcNvmNoDs;
  sc.trigger = audit::kSweepTriggers[rng.below(audit::kSweepTriggers.size())];
  sc.ops = 24 + static_cast<std::size_t>(rng.below(33));
  const std::uint64_t roll = rng.below(100);
  if (roll < 10) {
    sc.kill = KillMode::kNone;
  } else if (roll < 30) {
    sc.kill = KillMode::kOpBoundary;
    sc.kill_op = static_cast<std::size_t>(rng.below(sc.ops));
  } else if (roll < 45) {
    sc.kill = KillMode::kBeforeAck;
    sc.kill_op = static_cast<std::size_t>(rng.below(sc.ops));
  } else if (roll < 90) {
    sc.kill = KillMode::kDrainPhase;
    constexpr core::DrainCrashPoint kPhases[3] = {
        core::DrainCrashPoint::kMidBatch,
        core::DrainCrashPoint::kAfterBatchBeforeEnd,
        core::DrainCrashPoint::kAfterEndBeforeCommit};
    sc.phase = kPhases[rng.below(3)];
    sc.target_drain = rng.below(6);
  } else {
    sc.kill = KillMode::kAttack;
  }
  sc.workload_seed = derive_seed(sweep_seed, index, 0x30b5);
  if (pin != nullptr) {
    // Applied after the full derivation: the rng stream is untouched, so
    // a pinned sweep runs the same op streams and kill points as the
    // default mix — only the design under test changes.
    sc.kind = pin->kind;
    sc.persist_level = pin->persist_level;
    if (sc.kill == KillMode::kDrainPhase &&
        core::commits_every_write_back(sc.kind)) {
      // No drain window to kill inside: remap to a deterministic op
      // boundary so the pinned sweep keeps the same kill density.
      sc.kill = KillMode::kOpBoundary;
      sc.kill_op = static_cast<std::size_t>(
          (sc.target_drain * 7 + static_cast<std::uint64_t>(sc.phase)) %
          sc.ops);
      sc.phase = core::DrainCrashPoint::kNone;
      sc.target_drain = 0;
    }
  }
  return sc;
}

std::string describe(const Scenario& sc) {
  std::string s = std::string(core::design_name(sc.kind));
  if (sc.kind == core::DesignKind::kTriadNvm) {
    s += "(n=" + std::to_string(sc.persist_level) + ")";
  }
  s += " trigger=" + std::string(trigger_name(sc.trigger)) +
       " ops=" + std::to_string(sc.ops);
  switch (sc.kill) {
    case KillMode::kNone:
      return s + " kill=none";
    case KillMode::kOpBoundary:
      return s + " kill=op-boundary@" + std::to_string(sc.kill_op);
    case KillMode::kBeforeAck:
      return s + " kill=before-ack@" + std::to_string(sc.kill_op);
    case KillMode::kDrainPhase:
      return s + " kill=drain:" + phase_name(sc.phase) + "#" +
             std::to_string(sc.target_drain);
    case KillMode::kAttack:
      return s + " kill=none+attack";
  }
  return s;
}

ServiceScenario derive_service_scenario(std::uint64_t sweep_seed,
                                        std::uint64_t index) {
  ServiceScenario sc;
  Rng rng(derive_seed(sweep_seed, index, 0x5e41ce));
  sc.kind = rng.chance(0.5) ? core::DesignKind::kCcNvm
                            : core::DesignKind::kCcNvmNoDs;
  sc.trigger = audit::kSweepTriggers[rng.below(audit::kSweepTriggers.size())];
  sc.threads = 2 + static_cast<std::size_t>(
                       rng.below(kServiceMaxThreads - 1));  // 2..4
  sc.ops_per_thread = 12 + static_cast<std::size_t>(rng.below(21));  // 12..32
  constexpr std::size_t kBatchSizes[5] = {1, 2, 4, 8, 16};
  sc.max_batch = kBatchSizes[rng.below(5)];
  constexpr std::uint32_t kGaps[4] = {0, 0, 100, 500};
  sc.max_delay_us = kGaps[rng.below(4)];
  const std::uint64_t total_ops = sc.threads * sc.ops_per_thread;
  const std::uint64_t roll = rng.below(100);
  if (roll < 20) {
    sc.kill = ServiceKill::kNone;
    // Only clean runs fan out across shards: a kill fired from one drain
    // worker's safe point could catch a second worker mid-line-write,
    // which would break the kill discipline argued in the file comment.
    sc.shards = 1 + static_cast<std::size_t>(rng.below(kServiceMaxShards));
  } else if (roll < 60) {
    sc.kill = ServiceKill::kMidBatch;
    sc.kill_target = 1 + rng.below(total_ops);
  } else {
    sc.kill = ServiceKill::kAfterBarrier;
    // Barrier counts depend on batching; aim low so most targets fire.
    sc.kill_target = 1 + rng.below(total_ops / 2 + 1);
  }
  sc.workload_seed = derive_seed(sweep_seed, index, 0x5eed5);
  return sc;
}

std::string describe(const ServiceScenario& sc) {
  std::string s = "service " + std::string(core::design_name(sc.kind)) +
                  " trigger=" + trigger_name(sc.trigger) +
                  " shards=" + std::to_string(sc.shards) +
                  " threads=" + std::to_string(sc.threads) +
                  " ops/thread=" + std::to_string(sc.ops_per_thread) +
                  " batch=" + std::to_string(sc.max_batch) +
                  " gap=" + std::to_string(sc.max_delay_us) + "us";
  switch (sc.kill) {
    case ServiceKill::kNone:
      return s + " kill=none";
    case ServiceKill::kMidBatch:
      return s + " kill=mid-batch@" + std::to_string(sc.kill_target);
    case ServiceKill::kAfterBarrier:
      return s + " kill=after-barrier@" + std::to_string(sc.kill_target);
  }
  return s;
}

TxnScenario derive_txn_scenario(std::uint64_t sweep_seed,
                                std::uint64_t index) {
  TxnScenario sc;
  Rng rng(derive_seed(sweep_seed, index, 0x7a135));
  sc.kind = rng.chance(0.5) ? core::DesignKind::kCcNvm
                            : core::DesignKind::kCcNvmNoDs;
  sc.trigger = audit::kSweepTriggers[rng.below(audit::kSweepTriggers.size())];
  sc.threads = 2 + static_cast<std::size_t>(
                       rng.below(kServiceMaxThreads - 1));  // 2..4
  sc.actions_per_thread = 8 + static_cast<std::size_t>(rng.below(9));  // 8..16
  constexpr std::size_t kBatchSizes[5] = {1, 2, 4, 8, 16};
  sc.max_batch = kBatchSizes[rng.below(5)];
  constexpr std::uint32_t kGaps[4] = {0, 0, 100, 500};
  sc.max_delay_us = kGaps[rng.below(4)];
  const std::uint64_t roll = rng.below(100);
  if (roll < 20) {
    sc.kill = TxnKill::kNone;
  } else {
    sc.kill = TxnKill::kAtWave;
    sc.kill_wave = static_cast<int>(rng.below(3));
    // ~60% of actions are txns and most 2-4-op draws over 8 keys span
    // both shards; aim low so most targets fire before the run drains.
    sc.kill_target =
        1 + rng.below(sc.threads * sc.actions_per_thread / 4 + 1);
  }
  sc.workload_seed = derive_seed(sweep_seed, index, 0x7a5eed);
  return sc;
}

std::string describe(const TxnScenario& sc) {
  std::string s = "txn " + std::string(core::design_name(sc.kind)) +
                  " trigger=" + trigger_name(sc.trigger) +
                  " threads=" + std::to_string(sc.threads) +
                  " actions/thread=" + std::to_string(sc.actions_per_thread) +
                  " batch=" + std::to_string(sc.max_batch) +
                  " gap=" + std::to_string(sc.max_delay_us) + "us";
  if (sc.kill == TxnKill::kNone) return s + " kill=none";
  return s + " kill=wave" + std::to_string(sc.kill_wave) + "@" +
         std::to_string(sc.kill_target);
}

std::string describe(Family family, std::uint64_t sweep_seed,
                     std::uint64_t index, const DesignPin* pin) {
  return shape_of(family, sweep_seed, index, pin).description;
}

int run_worker(Family family, const std::string& image_path,
               std::uint64_t sweep_seed, std::uint64_t index,
               const DesignPin* pin) {
  switch (family) {
    case Family::kService: {
      const ServiceScenario sc = derive_service_scenario(sweep_seed, index);
      return run_service_worker(sc, shape_of(sc), image_path);
    }
    case Family::kTxn: {
      const TxnScenario sc = derive_txn_scenario(sweep_seed, index);
      return run_txn_worker(sc, shape_of(sc), image_path);
    }
    case Family::kSingle:
      break;
  }
  const Scenario sc = derive_scenario(sweep_seed, index, pin);
  return run_single_worker(sc, shape_of(sc), image_path);
}

VerifyResult verify(Family family, const std::string& image_path,
                    std::uint64_t sweep_seed, std::uint64_t index,
                    const DesignPin* pin) {
  VerifyResult res;
  try {
    verify_shape(shape_of(family, sweep_seed, index, pin), image_path,
                 sweep_seed, index, res);
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
  const std::string worker_exe = "/proc/self/exe";
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

  struct PerScenario {
    bool killed = false;
    bool clean = false;
    bool attack = false;
    std::string description;
    VerifyResult verify;
    std::string spawn_error;
  };

  // One throw-scope for the whole sweep: auditor/contract violations in
  // verify surface as CheckFailure, are caught there, and fold into
  // per-index failure strings — deterministic for any job count.
  CheckThrowScope throw_scope;
  const std::vector<PerScenario> results = parallel_map<PerScenario>(
      static_cast<std::size_t>(config.scenarios), config.jobs,
      [&](std::size_t i) {
        const Shape shape = shape_of(config.family, config.seed, i, pin);
        PerScenario out;
        out.attack = shape.attack;
        out.description = shape.description;
        const std::string image = dir + "/img-" + std::to_string(i);
        std::vector<std::string> args = {
            worker_exe, "crashd", "worker", "--image=" + image,
            "--seed=" + std::to_string(config.seed),
            "--index=" + std::to_string(i)};
        if (config.family == Family::kService) args.emplace_back("--service");
        if (config.family == Family::kTxn) args.emplace_back("--txn");
        if (pin != nullptr) args.push_back("--design=" + config.design);
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid == 0) {
          // Child: only async-signal-safe calls until exec (the parent
          // runs a thread pool).
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
          out.spawn_error =
              "worker died unexpectedly (wait status " +
              std::to_string(status) + ")";
          return out;
        }
        out.verify = verify(config.family, image, config.seed, i, pin);
        if (out.verify.ok && out.verify.worker_was_killed != out.killed) {
          out.verify.ok = false;
          out.verify.message = "ack log disagrees with the wait status";
        }
        if (!config.keep_files) {
          for (std::size_t s = 0; s < shape.engines.shards; ++s) {
            std::remove(shard_path(shape, image, s).c_str());
          }
          for (std::size_t t = 0; t < shape.threads; ++t) {
            std::remove(ack_path(shape, image, t).c_str());
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
