// Per-layer analysis shared by kvbench's workloads: counter tallies over
// the engines, the service request-timing decomposition, and the bare
// core / store legs of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/design.h"
#include "probes.h"
#include "service/kv_service.h"
#include "store/kv_store.h"

namespace kvbench {

/// Library counters summed over engines; subtract two snapshots for the
/// traced window's work.
struct Tally {
  std::uint64_t write_backs = 0, reads = 0, drains = 0, explicit_drains = 0;
  std::uint64_t hmac = 0, aes = 0;
  std::uint64_t data_w = 0, counter_w = 0, mt_w = 0, dh_w = 0;
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t probe_reads = 0, value_line_writes = 0, header_writes = 0,
                journal_writes = 0;
  // Service counters (zero outside a service).
  std::uint64_t batches = 0, batched_ops = 0, mutations = 0, barriers = 0,
                puts = 0, gets = 0, txns = 0;

  void add_engine(const ccnvm::core::SecureNvmBase& nvm,
                  const ccnvm::store::SecureKvStore* store);
  void add_service(const ccnvm::service::ServiceStats& s);
  Tally operator-(const Tally& o) const;

  std::uint64_t total_writes() const {
    return data_w + counter_w + mt_w + dh_w;
  }
};

/// Tally of every shard engine plus the service counters. Call only while
/// no request is in flight.
Tally tally(ccnvm::service::KvService& svc);

/// One request the bench pushed into a service shard queue: when it was
/// pushed (estimated from the client side), when its client woke, and the
/// store calls it carries. (order, seq) sorts a shard's requests into
/// queue order: the push time for single ops; for a transaction, a time
/// inside its admission-lock hold (its prepare wake) plus the wave index,
/// since a shard's transactions are serialized by that lock.
struct Push {
  std::size_t shard = 0;
  std::int64_t push = 0;
  std::int64_t wake = 0;
  std::uint32_t puts = 0;
  std::uint32_t gets = 0;
  std::int64_t order = 0;
  std::uint32_t seq = 0;
};

/// Per-request service timing, from the bench's push records matched in
/// FIFO order to each shard's drain-side apply stamps.
struct ServiceTiming {
  std::vector<double> pre_us;      // push -> apply start
  std::vector<double> apply_us;    // apply start -> after_apply
  std::vector<double> mates_us;    // after_apply -> last batch-mate applied
  std::vector<double> ack_us;      // release (barrier or apply) -> client wake
  std::vector<double> barrier_us;  // last apply -> after_barrier, per barrier
  std::uint64_t barrier_waits = 0;  // matched requests released by a barrier
  std::uint64_t matched = 0;
  std::uint64_t unmatched = 0;
};

/// `drain_logs[s]` is shard s's drain-thread log (null: it saw no traffic).
ServiceTiming analyze_service(std::vector<Push> pushes,
                              const std::vector<const ThreadLog*>& drain_logs);

/// Times write_back and read_block on a bare cc-NVM design of config `dc`
/// over the first `footprint` bytes (core.write_back_us_p50 /
/// core.read_block_us_p50).
void core_micro(const ccnvm::core::DesignConfig& dc, std::uint64_t footprint,
                std::uint64_t seed, Report& report);

/// One replayed store operation of the direct leg. A group is one client
/// request (a single op, or a transaction's sub-ops); groups with a put
/// end with one checkpoint, as the service's barrier would.
struct ReplayOp {
  bool put = false;
  bool group_end = true;
  std::string key;
  std::string value;
};

struct KeyValue {
  std::string key;
  std::string value;
};

/// The direct leg: loads `initial` into a bare store of the service's
/// engine geometry, then replays `ops` with a checkpoint per mutating
/// group, timing each store call (store.put/get/checkpoint_us_p50, and
/// the put/get means in `detail`). The replay stops after a fifth of the
/// run's length (at most 2 s).
void direct_leg(const ccnvm::core::DesignConfig& dc,
                const ccnvm::store::StoreConfig& sc,
                const std::vector<KeyValue>& initial,
                const std::vector<ReplayOp>& ops, double run_seconds,
                Report& report);

/// Fills the nvm.* / core.* / crypto.* per-op layer metrics from a tally
/// delta, the drain observers, and the timing backends, with `ops` client
/// operations as the denominator (and the drain and barrier means in
/// `detail`).
void fill_engine_layers(const Tally& d, double ops,
                        const std::vector<const DrainObserver*>& drains,
                        const std::vector<const NvmCounters*>& nvm,
                        Report& report);

/// The cost ladder: each row is one layer's per-call cost x calls per op,
/// in µs per op, each from its own probe. close_ladder adds the rows' sum
/// and the measured e2e mean, and records their ratio as
/// detail["ladder.sum_over_e2e"].
void add_ladder_row(Report& report, const std::string& row, double us_per_op);
void close_ladder(Report& report, double e2e_mean_us);

}  // namespace kvbench
