// The KV crash oracle: what a killed KV workload may leave behind.
//
// Every KV crash harness — crashd's kill-9 families, the in-process KV
// crash sweep, the crash fuzzer and the txn fuzzer's crash cases — holds
// a reopened store to the same contract (§4.2-§4.4 lifted to the
// application):
//   * every acknowledged unit reads back exactly;
//   * each client thread has at most one unacknowledged unit in flight at
//     the crash, and it surfaces all-or-nothing — a unit is one operation
//     or one whole transaction, so for a single op this is "old or new
//     state, never a third one";
//   * an erased or never-written key stays absent, and no store holds an
//     entry outside the keyspace (zero spurious survivors).
// The parts below are that contract, written once: the op draw the
// harnesses replay, the acked-state model, the shard-ordered store
// reopen, and the reopened-store check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/kv_store.h"

namespace ccnvm::audit {

enum class KvOpKind { kPut, kErase, kGet };

struct KvOp {
  KvOpKind kind = KvOpKind::kGet;
  std::string key;
  std::string value;  // kPut only
};

/// One op, or every op of one transaction: what a client submits and
/// then waits on before it submits the next.
using KvUnit = std::vector<KvOp>;

/// Draws one op body for the caller-chosen `key`, in a fixed order: roll
/// (55% put, 25% erase, 20% get) → kind → value length (below
/// `max_value_len`) → value bytes. Value bytes are tagged by `++put_tag`
/// and `salt` (a per-thread constant), so a put's value names the put and
/// a cross-thread mixup cannot pass for a correct read-back.
KvOp draw_op(Rng& rng, std::string key, std::size_t max_value_len,
             std::uint64_t salt, std::uint64_t& put_tag);

/// Runs `op` on `kv`; a put the store has no room for CHECK-fails (the
/// harnesses size their stores so that never happens).
void run_op(store::SecureKvStore& kv, const KvOp& op);

/// `prefix` + "0" .. `prefix` + (n-1): a harness's keyspace.
std::vector<std::string> numbered_keys(const std::string& prefix,
                                       std::size_t n);

/// The acked KV state plus the unacknowledged unit of each thread.
class KvModel {
 public:
  /// `thread` submits `unit`; it is in flight until ack(thread). A thread
  /// has at most one unit in flight.
  void submit(KvUnit unit, std::size_t thread = 0);
  /// `thread`'s in-flight unit was acknowledged: it joins the acked state.
  void ack(std::size_t thread = 0);

  const std::map<std::string, std::string>& acked() const { return acked_; }
  const std::map<std::size_t, KvUnit>& in_flight() const {
    return in_flight_;
  }

 private:
  std::map<std::string, std::string> acked_;
  std::map<std::size_t, KvUnit> in_flight_;
};

/// A reopened store and the keyspace keys that live on it.
struct ReopenedStore {
  store::SecureKvStore* kv = nullptr;
  std::vector<std::string> keys;
};

/// Opens the store of every recovered shard engine of a sharded KV
/// service, in shard order, resolving each prepared cross-shard txn
/// against its coordinator's decision line (SecureKvStore::
/// decided_commit). A txn's coordinator is its
/// lowest participant, so that line is open before any other
/// participant's journal asks for it; a self-coordinated txn whose own
/// decision line already failed to answer is undecided: presumed abort.
std::vector<store::SecureKvStore> open_shard_stores(
    const std::vector<core::SecureNvmBase*>& engines,
    const store::StoreConfig& config);

/// Holds reopened stores to `model` under the contract above: reads every
/// key once (store-major, in key order), resolves each in-flight unit
/// all-or-nothing against those reads, then checks every key against the
/// acked state and every store's live count against its keyspace reads.
/// CCNVM_CHECK-fails on the first breach. Returns the reads in the order
/// they were made (nullopt = absent).
std::vector<std::optional<std::string>> check_reopened(
    const KvModel& model, const std::vector<ReopenedStore>& stores);

}  // namespace ccnvm::audit
