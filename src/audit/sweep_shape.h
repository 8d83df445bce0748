// Shared scenario shaping for the crash sweeps, the crash fuzzer and
// crashd's single-store family.
//
// They need the same ingredients: a design geometry under which ordinary
// traffic fires exactly one targeted drain trigger, deterministic
// pattern data, the key draw that hammers one key for the update limit,
// and the canonical scenario matrix (cc designs × triggers × crash
// points, plus the non-draining designs).
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "core/design.h"
#include "core/protocol_observer.h"
#include "store/kv_store.h"

namespace ccnvm::audit {

/// DIMM size every sweep scenario runs on (64 pages keeps the O(tree)
/// image verifications affordable at full-matrix scale).
inline constexpr std::uint64_t kSweepPages = 64;

/// Deterministic line contents for tag `tag` — self-consistent fill used
/// to verify acknowledged writes after recovery.
inline Line sweep_pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 131 + i);
  }
  return l;
}

/// Store geometry of the single-store KV crash harnesses (the KV sweep,
/// the crash fuzzer, crashd's single-threaded family): 8 pages in total,
/// inside the 64-page DIMM.
inline store::StoreConfig sweep_store_config() {
  store::StoreConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.heap_lines_per_shard = 192;
  return cfg;
}

/// Key choice of the crash fuzzer's KV cases and crashd's single and
/// service families: a hammered key when the update-limit trigger is
/// under test, a uniform one otherwise.
inline std::size_t draw_key_index(Rng& rng, core::DrainTrigger trigger,
                                  std::size_t keys) {
  return (trigger == core::DrainTrigger::kUpdateLimit && !rng.chance(0.25))
             ? 0
             : static_cast<std::size_t>(rng.below(keys));
}

/// DAQ size for the KV workloads: their 8-page footprint tracks ~11
/// distinct metadata lines, so 6 entries force pressure drains while
/// staying above the one-path minimum.
inline constexpr std::size_t kKvDaqEntries = 6;

/// Geometry shaped so `trigger` is the drain trigger the workload hits:
/// a DAQ too small for many distinct pages, a Meta Cache too small to
/// hold the working set, an update limit a hammered line exceeds fast, or
/// for kExplicit the defaults, where the forced drain is the one the
/// crash lands in. The defaults are not quiet: the raw sweep's 96
/// write-backs over 64 pages fill the 64-entry DAQ once, so one natural
/// pressure drain precedes the forced one in each raw explicit cell; the
/// KV sweep's 48 ops on its 8-page store drain only when forced
/// (tests/audit_sweep_test.cpp counts both). `daq_entries` lets the KV
/// sweep (smaller footprint) tighten the pressure trigger.
inline core::DesignConfig shaped_design_config(core::DrainTrigger trigger,
                                               std::size_t daq_entries = 12) {
  core::DesignConfig cfg;
  cfg.data_capacity = kSweepPages * kPageSize;
  cfg.update_limit = 1u << 20;  // keep trigger (3) quiet by default
  switch (trigger) {
    case core::DrainTrigger::kDaqPressure:
      cfg.daq_entries = daq_entries;
      break;
    case core::DrainTrigger::kDirtyEviction:
      cfg.meta_cache_bytes = 8 * kLineSize;
      cfg.meta_cache_ways = 2;
      break;
    case core::DrainTrigger::kUpdateLimit:
      cfg.update_limit = 4;
      break;
    case core::DrainTrigger::kExplicit:
      break;
  }
  return cfg;
}

/// The canonical sweep matrix: every design that drains, every §4.2
/// trigger, every §4.2 crash window.
inline constexpr std::array<core::DesignKind, 3> kCcSweepKinds = {
    core::DesignKind::kCcNvmNoDs, core::DesignKind::kCcNvm,
    core::DesignKind::kCcNvmPlus};

inline constexpr std::array<core::DrainTrigger, 4> kSweepTriggers = {
    core::DrainTrigger::kDaqPressure, core::DrainTrigger::kDirtyEviction,
    core::DrainTrigger::kUpdateLimit, core::DrainTrigger::kExplicit};

inline constexpr std::array<core::DrainCrashPoint, 4> kSweepCrashPoints = {
    core::DrainCrashPoint::kNone, core::DrainCrashPoint::kMidBatch,
    core::DrainCrashPoint::kAfterBatchBeforeEnd,
    core::DrainCrashPoint::kAfterEndBeforeCommit};

/// The non-draining designs (crash-after-K-operations passes). The
/// barrier baselines belong here: Triad-NVM and Phoenix persist on every
/// write-back, so the §4.2 trigger/crash-point matrix has nothing to
/// exercise and the crash-prefix passes cover them completely.
inline constexpr std::array<core::DesignKind, 5> kNonCcSweepKinds = {
    core::DesignKind::kWoCc, core::DesignKind::kStrict,
    core::DesignKind::kOsirisPlus, core::DesignKind::kTriadNvm,
    core::DesignKind::kPhoenix};

}  // namespace ccnvm::audit
