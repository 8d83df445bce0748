// Crash-kill sweep for the KV service layer (src/store), riding the same
// machinery as crash_sweep.h but driving *store operations* instead of raw
// write-backs — so what is verified after every kill is application-level.
//
// For each cc design and drain trigger, the workload's store geometry is
// shaped so that trigger fires naturally while mixed put/get/erase traffic
// (multi-line values included) runs with an InvariantAuditor attached; a
// crash is armed at each DrainCrashPoint, the InjectedPowerLoss is caught,
// the design recovers, and the store is re-opened with SecureKvStore::open
// and held to the KV crash oracle (kv_oracle.h): zero lost acknowledged
// operations, the one in-flight operation old-or-new, zero spurious
// survivors — plus a full scan that must agree with the point lookups.
// Non-cc designs get crash-after-K-operations passes (w/o CC as the foil
// whose recovery must fail).
#pragma once

#include <cstdint>

namespace ccnvm::audit {

struct KvCrashSweepConfig {
  std::uint64_t seed = 1;
  /// Store operations per scenario; the armed trigger must fire within it.
  std::size_t ops_per_scenario = 48;
  /// Forwarded to InvariantAuditor::Options::verify_image.
  bool verify_image = true;
  /// Worker threads for the scenario matrix (0 = hardware concurrency).
  /// Results are bit-identical for every value: each scenario derives its
  /// RNG stream from (seed, scenario index) and totals fold in index order.
  std::size_t jobs = 1;
};

struct KvCrashSweepResult {
  std::uint64_t scenarios = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t ops_applied = 0;      // acknowledged store operations
  std::uint64_t in_flight_ops = 0;    // operations killed mid-flight
  std::uint64_t keys_verified = 0;    // point lookups checked post-recovery
  std::uint64_t survivors_scanned = 0;  // entries seen by the full scans
  std::uint64_t events_observed = 0;
  std::uint64_t checks_performed = 0;
  std::uint64_t image_verifications = 0;
};

/// Runs the sweep; the first lost or spurious operation (or broken drain
/// invariant) trips a CCNVM_CHECK. Returns totals so callers can assert
/// the matrix was actually covered.
KvCrashSweepResult run_kv_crash_sweep(const KvCrashSweepConfig& config = {});

}  // namespace ccnvm::audit
