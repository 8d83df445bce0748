// §4.4 evaluation (no figure in the paper, claims in text): crash
// recovery cost and attack locating across designs.
//
// Part 1 — recovery effort vs update limit N: the brute-force retry total
// is bounded by N per block and equals N_wb in the clean case.
// Part 2 — attack campaign: random spoof / splice / replay attacks
// injected after a crash; per design, how many are detected, and how many
// are *located* (the paper's differentiator: cc-NVM locates, Osiris Plus
// must drop everything).
//
// --reopen-curve[=MAX_KEYS] prints only the reopen curve instead: a
// crashed file-backed cc-NVM store of 1 K, 4 K, 16 K and 64 K keys (up to
// MAX_KEYS) is reopened — restore, recover(), SecureKvStore::open — at one
// worker and at the default worker count, best of 3 per phase. It shows
// how each phase grows with the key count and what the worker pool buys.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "attacks/injector.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cc_nvm.h"
#include "core/cc_nvm_plus.h"
#include "core/design.h"
#include "core/tcb.h"
#include "nvm/file_backend.h"
#include "store/kv_store.h"
#include "store/ycsb_runner.h"

using namespace ccnvm;
using namespace ccnvm::core;

namespace {

Line pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 31 + i);
  }
  return l;
}

// Worker count for recovery's hashing (--jobs=N; 0 = auto). The report
// and the rebuilt metadata are bit-identical for any value, so this only
// moves wall-clock.
std::size_t g_jobs = 1;

DesignConfig base_config(std::uint32_t n = 16) {
  DesignConfig c;
  c.data_capacity = 256 * kPageSize;  // 1 MiB functional image
  c.update_limit = n;
  c.recovery_jobs = g_jobs;
  return c;
}

void recovery_effort_table() {
  std::printf("--- Recovery effort vs update limit N (cc-NVM) ---\n");
  std::printf("%6s %12s %12s %14s %12s\n", "N", "writebacks", "retries",
              "counters adv", "clean");
  for (std::uint32_t n : {4u, 8u, 16u, 32u, 64u}) {
    CcNvmDesign design(base_config(n), /*deferred_spreading=*/true);
    Rng rng(n);
    const std::uint64_t ops = 2000;
    for (std::uint64_t i = 0; i < ops; ++i) {
      design.write_back(rng.below(4096) * kLineSize, pattern_line(i));
    }
    design.crash_power_loss();
    const RecoveryReport report = design.recover();
    std::printf("%6u %12llu %12llu %14llu %12s\n", n,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(report.total_retries),
                static_cast<unsigned long long>(report.counters_recovered),
                report.clean ? "yes" : "NO");
  }
  std::printf("\n");
}

enum class AttackType { kSpoofData, kSpoofDh, kSplice, kReplayData,
                        kReplayCounter };

const char* attack_name(AttackType a) {
  switch (a) {
    case AttackType::kSpoofData: return "spoof data";
    case AttackType::kSpoofDh: return "spoof DH";
    case AttackType::kSplice: return "splice";
    case AttackType::kReplayData: return "replay data+DH";
    case AttackType::kReplayCounter: return "replay counter";
  }
  return "?";
}

struct CampaignResult {
  int detected = 0;
  int located = 0;
  int exact = 0;  // located and the victim pinpointed
  int clean = 0;  // recovery reported nothing wrong
};

CampaignResult run_campaign(DesignKind kind, AttackType attack, int trials) {
  CampaignResult result;
  for (int t = 0; t < trials; ++t) {
    auto design = make_design(kind, base_config());
    auto* base = dynamic_cast<SecureNvmBase*>(design.get());
    Rng rng(1000 + static_cast<std::uint64_t>(t));
    const int blocks = 64;
    for (int i = 0; i < blocks; ++i) {
      design->write_back(static_cast<Addr>(i) * kLineSize, pattern_line(i));
    }
    base->quiesce();
    const nvm::NvmImage snapshot = design->image().snapshot();
    // Advance one more epoch so replayed state is genuinely old.
    design->write_back(0, pattern_line(999));
    design->write_back(kLineSize, pattern_line(998));
    base->quiesce();
    design->crash_power_loss();

    const Addr victim = rng.below(blocks) * kLineSize;
    switch (attack) {
      case AttackType::kSpoofData:
        attacks::spoof_data(*design, victim, rng);
        break;
      case AttackType::kSpoofDh:
        attacks::spoof_dh(*design, victim, rng);
        break;
      case AttackType::kSplice:
        attacks::splice_data(*design, victim,
                             (victim + 8 * kLineSize) %
                                 (static_cast<Addr>(blocks) * kLineSize));
        break;
      case AttackType::kReplayData:
        attacks::replay_data(*design, snapshot, 0);
        break;
      case AttackType::kReplayCounter:
        attacks::replay_counter(*design, snapshot, 0);
        break;
    }
    const RecoveryReport report = design->recover();
    result.detected += report.attack_detected ? 1 : 0;
    result.located += report.attack_located ? 1 : 0;
    if (report.attack_located) {
      const Addr expect =
          (attack == AttackType::kReplayData ||
           attack == AttackType::kReplayCounter)
              ? 0
              : victim;
      const bool hit =
          std::find(report.tampered_blocks.begin(),
                    report.tampered_blocks.end(), expect) !=
              report.tampered_blocks.end() ||
          !report.replayed_nodes.empty();
      result.exact += hit ? 1 : 0;
    }
    result.clean += report.clean ? 1 : 0;
  }
  return result;
}

void attack_campaign_table() {
  const int trials = 16;
  std::printf("--- Post-crash attack campaign (%d trials per cell; "
              "detected/located) ---\n", trials);
  std::printf("%-16s", "attack \\ design");
  const DesignKind kinds[] = {DesignKind::kStrict, DesignKind::kOsirisPlus,
                              DesignKind::kCcNvmNoDs, DesignKind::kCcNvm};
  for (DesignKind kind : kinds) {
    std::printf(" %16s", std::string(design_name(kind)).c_str());
  }
  std::printf("\n");
  for (AttackType attack :
       {AttackType::kSpoofData, AttackType::kSpoofDh, AttackType::kSplice,
        AttackType::kReplayData, AttackType::kReplayCounter}) {
    std::printf("%-16s", attack_name(attack));
    for (DesignKind kind : kinds) {
      const CampaignResult r = run_campaign(kind, attack, trials);
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%d%%/%d%%", 100 * r.detected / trials,
                    100 * r.located / trials);
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(paper: cc-NVM detects AND locates; Osiris Plus detects via the\n"
      " rebuilt-root mismatch but cannot locate, so all data is dropped.\n"
      " Note: Osiris Plus *absorbs* a counter-only rollback silently — its\n"
      " recovery rolls the counter forward again, which is correct but\n"
      " indistinguishable from an ordinary crash; cc-NVM pinpoints it.)\n\n");
}

void replay_window_table() {
  // The deferred-spreading replay window (§4.3): replay an uncommitted
  // write-back after a crash; only N_wb/N_retry catches it — and only the
  // cc-NVM+ extension (per-block update registers, §4.4 closing remark)
  // can say *which* block.
  const int trials = 32;
  std::printf("--- Epoch-window data replay (detect-only for base cc-NVM, "
              "§4.3) ---\n");
  for (DesignKind kind : {DesignKind::kCcNvmNoDs, DesignKind::kCcNvm,
                          DesignKind::kCcNvmPlus}) {
    int detected = 0, located = 0, exact = 0;
    for (int t = 0; t < trials; ++t) {
      auto design = make_design(kind, base_config());
      auto* cc = dynamic_cast<CcNvmDesign*>(design.get());
      design->write_back(0x40, pattern_line(1));
      cc->force_drain();
      const nvm::NvmImage snapshot = design->image().snapshot();
      design->write_back(0x40, pattern_line(2));
      design->crash_power_loss();
      attacks::replay_data(*design, snapshot, 0x40);
      const RecoveryReport report = design->recover();
      detected += report.attack_detected ? 1 : 0;
      located += report.attack_located ? 1 : 0;
      exact += std::find(report.tampered_blocks.begin(),
                         report.tampered_blocks.end(),
                         Addr{0x40}) != report.tampered_blocks.end()
                   ? 1
                   : 0;
    }
    std::printf("%-14s: detected %3d%%, located %3d%%, exact block %3d%%\n",
                std::string(design_name(kind)).c_str(),
                100 * detected / trials, 100 * located / trials,
                100 * exact / trials);
  }
  std::printf("(expected: base designs 100/0/0; cc-NVM+ 100/100/100)\n\n");
}

// --- Reopen curve ---------------------------------------------------------

struct ReopenTimes {
  double restore_ms = 0.0, recover_ms = 0.0, open_ms = 0.0;
};

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A crashed image at `path`: `keys` puts, an explicit drain, then
/// keys/16 unquiesced overwrites (so recovery has counters to search
/// forward), then power loss.
bool build_crashed_store(const std::string& path, std::uint64_t keys,
                         const DesignConfig& dc,
                         const store::StoreConfig& sc) {
  DesignConfig build = dc;
  build.backend_factory = [&path](std::uint64_t bytes) {
    return nvm::FileBackend::create(path, bytes);
  };
  auto design = make_design(DesignKind::kCcNvm, build);
  auto* base = dynamic_cast<SecureNvmBase*>(design.get());
  store::SecureKvStore kv(*base, sc);
  std::string value(100, 'v');
  for (std::uint64_t k = 0; k < keys; ++k) {
    value[0] = static_cast<char>('a' + k % 26);
    if (!kv.put("key-" + std::to_string(k), value)) return false;
  }
  base->quiesce();
  Rng rng(keys);
  for (std::uint64_t u = 0; u < keys / 16; ++u) {
    value[1] = static_cast<char>('a' + u % 26);
    if (!kv.put("key-" + std::to_string(rng.below(keys)), value)) return false;
  }
  design->crash_power_loss();
  return true;
}

/// One reopen of a fresh copy of the crashed image; false unless the
/// recovery is clean and every key comes back.
bool reopen_once(const std::string& golden, const std::string& copy,
                 std::uint64_t keys, const DesignConfig& dc,
                 const store::StoreConfig& sc, ReopenTimes& t) {
  std::filesystem::copy_file(golden, copy,
                             std::filesystem::copy_options::overwrite_existing);
  const auto t0 = std::chrono::steady_clock::now();
  auto file = nvm::FileBackend::open(copy);
  if (file == nullptr) return false;
  std::uint8_t regs[nvm::Backend::kRegisterCapacity];
  const std::size_t reg_len = file->load_registers(regs, sizeof(regs));
  TcbRegisters tcb;
  if (!decode_tcb(regs, reg_len, tcb)) return false;
  auto design = make_design(DesignKind::kCcNvm, dc);
  auto* base = dynamic_cast<SecureNvmBase*>(design.get());
  base->restore_from_power_down(nvm::NvmImage(std::move(file)), tcb);
  const auto t1 = std::chrono::steady_clock::now();
  const RecoveryReport report = design->recover();
  const auto t2 = std::chrono::steady_clock::now();
  if (!report.clean || !report.metadata_recovered) return false;
  const store::SecureKvStore kv = store::SecureKvStore::open(*base, sc);
  const auto t3 = std::chrono::steady_clock::now();
  t.restore_ms = ms_between(t0, t1);
  t.recover_ms = ms_between(t1, t2);
  t.open_ms = ms_between(t2, t3);
  return kv.size() == keys;
}

int reopen_curve(std::uint64_t max_keys) {
  const std::string stem =
      (std::filesystem::temp_directory_path() /
       ("ccnvm-reopen-curve-" + std::to_string(::getpid())))
          .string();
  const std::string golden = stem + ".img";
  const std::string copy = stem + ".rep.img";
  const std::size_t auto_jobs = DesignConfig{}.recovery_jobs;
  std::printf("=== Reopen curve: crashed cc-NVM store (best of 3 per phase) "
              "===\n");
  std::printf("(restore = file open + TCB decode + restore_from_power_down;"
              " open = SecureKvStore::open;\n default jobs = %zu, %zu "
              "core(s))\n",
              auto_jobs, default_parallelism());
  std::printf("%8s %6s %11s %11s %9s %10s %11s\n", "keys", "jobs",
              "restore_ms", "recover_ms", "open_ms", "total_ms",
              "open_ns/key");
  int status = 0;
  for (const std::uint64_t keys : {1024u, 4096u, 16384u, 65536u}) {
    if (keys > max_keys) break;
    const store::StoreConfig sc =
        store::StoreConfig::sized_for(keys, 100, /*shards=*/1);
    DesignConfig dc;
    dc.data_capacity = store::capacity_for(sc);
    dc.update_limit = 1u << 20;
    dc.daq_entries = 1024;
    dc.wpq_entries = 1024;
    if (!build_crashed_store(golden, keys, dc, sc)) {
      std::fprintf(stderr, "reopen curve: populating %llu keys failed\n",
                   static_cast<unsigned long long>(keys));
      status = 1;
      break;
    }
    for (const std::size_t jobs : {std::size_t{1}, auto_jobs}) {
      dc.recovery_jobs = jobs;
      ReopenTimes best;
      for (int rep = 0; rep < 3; ++rep) {
        ReopenTimes t;
        if (!reopen_once(golden, copy, keys, dc, sc, t)) {
          std::fprintf(stderr, "reopen curve: %llu keys, jobs %zu: reopen "
                       "not clean\n",
                       static_cast<unsigned long long>(keys), jobs);
          status = 1;
          break;
        }
        if (rep == 0 || t.restore_ms < best.restore_ms) {
          best.restore_ms = t.restore_ms;
        }
        if (rep == 0 || t.recover_ms < best.recover_ms) {
          best.recover_ms = t.recover_ms;
        }
        if (rep == 0 || t.open_ms < best.open_ms) best.open_ms = t.open_ms;
      }
      const std::string label = jobs == 0 ? "auto" : std::to_string(jobs);
      std::printf("%8llu %6s %11.2f %11.2f %9.2f %10.2f %11.0f\n",
                  static_cast<unsigned long long>(keys), label.c_str(),
                  best.restore_ms, best.recover_ms, best.open_ms,
                  best.restore_ms + best.recover_ms + best.open_ms,
                  best.open_ms * 1e6 / static_cast<double>(keys));
    }
    if (status != 0) break;
  }
  std::filesystem::remove(golden);
  std::filesystem::remove(copy);
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      g_jobs = static_cast<std::size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else if (std::strcmp(argv[i], "--reopen-curve") == 0) {
      return reopen_curve(65536);
    } else if (std::strncmp(argv[i], "--reopen-curve=", 15) == 0) {
      return reopen_curve(std::strtoull(argv[i] + 15, nullptr, 10));
    }
  }
  std::printf("=== Recovery & attack-locating evaluation (§4.4) ===\n");
  std::printf("(tree-rebuild jobs: %zu%s)\n\n", g_jobs,
              g_jobs == 0 ? " [auto]" : "");
  recovery_effort_table();
  attack_campaign_table();
  replay_window_table();
  return 0;
}
