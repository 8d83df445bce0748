// Multithreaded YCSB harness over the KvService.
//
// Drives N blocking client threads (each with its own deterministic YCSB
// stream over a disjoint key range) against one KvService and measures
// run-phase throughput. Because the key ranges are disjoint and every
// client is synchronous, the final logical store content is a pure
// function of (workload, threads, seed) — independent of scheduling — so
// the harness verifies it exactly against a replayed model and reports a
// digest that must be bit-identical across repeated runs and any
// interleaving. Post-quiesce, every engine must also audit clean.
//
// Two media modes: in-memory (CPU-bound; what bench/headline gates) and
// durable (FileBackend::SyncMode::kBarrier over unlinked temp files —
// every group commit pays a real msync, which is what makes the
// throughput-vs-threads curve in `bench/ycsb --threads=N` interesting).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/design.h"
#include "service/kv_service.h"

namespace ccnvm::service {

/// Runs client(t) for t in [0, count), each on its own std::thread, and
/// joins them all; the lowest-index exception is rethrown. Clients block
/// on the service (and on each other through it), so every one must be
/// live at once — a core-capped compute pool would serialize them.
void run_clients(std::size_t count,
                 const std::function<void(std::size_t)>& client);

struct ServiceBenchOptions {
  std::string workload = "ycsb-a";
  std::size_t threads = 1;
  /// 0 = one queue/engine per hardware core (the ccNVMe shape); the
  /// throughput-vs-threads curve then varies only the client count.
  std::size_t service_shards = 0;
  /// Keyspace loaded per client thread before the timed phase.
  std::uint64_t records_per_thread = 256;
  /// Timed operations per client thread.
  std::uint64_t ops_per_thread = 512;
  /// The straggler gap defaults to roughly one barrier-time on this
  /// class of media (msync+fsync ~200us): holding a batch open costs at
  /// most ~1 barrier and can save up to max_batch-1 of them — the
  /// classic group-commit tuning rule.
  GroupCommitPolicy commit{.max_batch = 32, .max_delay_us = 200};
  core::DesignKind kind = core::DesignKind::kCcNvm;
  /// Durable media: kBarrier-mode FileBackend on unlinked temp files.
  /// False = volatile in-memory map (CPU-bound).
  bool durable = false;
  /// Durable mode: directory for the (immediately unlinked) image files;
  /// empty uses $TMPDIR (falling back to /tmp).
  std::string work_dir;
  std::uint64_t seed = 1;
};

struct ServiceBenchResult {
  std::uint64_t ops = 0;  // timed-phase operations (threads * ops_per_thread)
  double wall_seconds = 0.0;
  double ops_per_sec = 0.0;
  ServiceStats stats;  // whole run, load phase included
  /// FNV-1a over the sorted final key->value content (the model's and the
  /// store's agree whenever `verified`).
  std::uint64_t digest = 0;
  bool verified = false;
  std::string failure;  // first mismatch, when !verified
};

/// Runs load + timed phases and verifies the final state. CHECK-fails on
/// malformed options (unknown workload, zero threads).
ServiceBenchResult run_service_ycsb(const ServiceBenchOptions& options);

/// YCSB-T-like transactional mix over KvService::submit_txn.
struct TxnMixOptions {
  std::size_t threads = 4;
  /// 0 = one queue/engine per hardware core (matches ServiceBenchOptions).
  std::size_t service_shards = 0;
  /// Keyspace owned (and pre-loaded) per client thread.
  std::uint64_t records_per_thread = 128;
  /// Timed transactions per client thread.
  std::uint64_t txns_per_thread = 256;
  std::uint32_t value_bytes = 96;
  /// Fraction of read-only transactions; the rest atomically rewrite
  /// every key they touch (the YCSB-T "transactional update" shape).
  double read_prop = 0.2;
  GroupCommitPolicy commit{.max_batch = 32, .max_delay_us = 200};
  core::DesignKind kind = core::DesignKind::kCcNvm;
  bool durable = false;
  std::string work_dir;
  std::uint64_t seed = 1;
};

/// Drives `threads` blocking clients, each issuing multi-key transactions
/// (2-4 keys each, hashed routing, so most span several shards and pay
/// the full prepare/decide/finalize protocol). Reads inside committed
/// read-only txns are validated against the per-thread model as they
/// land; the final store content is verified exactly, every engine must
/// audit clean, and any abort fails verification (the store is sized so
/// nothing may vote no). `ops`/`ops_per_sec` count TRANSACTIONS, not
/// sub-ops.
ServiceBenchResult run_service_txn_mix(const TxnMixOptions& options);

}  // namespace ccnvm::service
