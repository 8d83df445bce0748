#include "audit/kv_oracle.h"

#include <utility>

#include "common/check.h"

namespace ccnvm::audit {

KvOp draw_op(Rng& rng, std::string key, std::size_t max_value_len,
             std::uint64_t salt, std::uint64_t& put_tag) {
  KvOp op;
  op.key = std::move(key);
  const std::uint64_t roll = rng.below(100);
  if (roll < 55) {
    op.kind = KvOpKind::kPut;
    const std::uint64_t tag = ++put_tag;
    op.value.assign(rng.below(max_value_len), '\0');
    for (std::size_t j = 0; j < op.value.size(); ++j) {
      op.value[j] =
          static_cast<char>(static_cast<std::uint8_t>(tag * 167 + j + salt));
    }
  } else if (roll < 80) {
    op.kind = KvOpKind::kErase;
  }
  return op;
}

void run_op(store::SecureKvStore& kv, const KvOp& op) {
  switch (op.kind) {
    case KvOpKind::kPut:
      CCNVM_CHECK_MSG(kv.put(op.key, op.value), "kv oracle: store full");
      break;
    case KvOpKind::kErase:
      (void)kv.erase(op.key);
      break;
    case KvOpKind::kGet:
      (void)kv.get(op.key);
      break;
  }
}

std::vector<std::string> numbered_keys(const std::string& prefix,
                                       std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(prefix + std::to_string(i));
  }
  return keys;
}

void KvModel::submit(KvUnit unit, std::size_t thread) {
  CCNVM_CHECK_MSG(in_flight_.emplace(thread, std::move(unit)).second,
                  "kv oracle: a thread submitted a second unit before its ack");
}

void KvModel::ack(std::size_t thread) {
  const auto it = in_flight_.find(thread);
  CCNVM_CHECK_MSG(it != in_flight_.end(), "kv oracle: ack without a unit");
  for (const KvOp& op : it->second) {
    if (op.kind == KvOpKind::kPut) {
      acked_[op.key] = op.value;
    } else if (op.kind == KvOpKind::kErase) {
      acked_.erase(op.key);
    }
  }
  in_flight_.erase(it);
}

std::vector<store::SecureKvStore> open_shard_stores(
    const std::vector<core::SecureNvmBase*>& engines,
    const store::StoreConfig& config) {
  std::vector<store::SecureKvStore> stores;
  stores.reserve(engines.size());
  for (std::size_t s = 0; s < engines.size(); ++s) {
    stores.push_back(store::SecureKvStore::open(
        *engines[s], config,
        [&stores, s](std::uint64_t txn_id, std::uint32_t coordinator) {
          return coordinator < s &&
                 stores[coordinator].decided_commit(txn_id);
        }));
  }
  return stores;
}

std::vector<std::optional<std::string>> check_reopened(
    const KvModel& model, const std::vector<ReopenedStore>& stores) {
  // Read every key exactly once; the verdicts below judge these reads.
  std::vector<std::optional<std::string>> reads;
  std::map<std::string, std::size_t> read_of;
  for (const ReopenedStore& s : stores) {
    std::uint64_t live = 0;
    for (const std::string& key : s.keys) {
      read_of[key] = reads.size();
      reads.push_back(s.kv->get(key));
      if (reads.back().has_value()) ++live;
    }
    CCNVM_CHECK_MSG(s.kv->size() == live,
                    "kv oracle: store holds spurious entries");
  }

  // Resolve each in-flight unit all-or-nothing: applied units join the
  // expected state, rolled-back ones leave it untouched. Units of
  // different threads are key-disjoint, so the order is irrelevant.
  std::map<std::string, std::string> expected = model.acked();
  for (const auto& [thread, unit] : model.in_flight()) {
    std::map<std::string, std::optional<std::string>> effect;  // last wins
    for (const KvOp& op : unit) {
      if (op.kind == KvOpKind::kPut) {
        effect[op.key] = op.value;
      } else if (op.kind == KvOpKind::kErase) {
        effect[op.key] = std::nullopt;
      }
    }
    std::size_t applied = 0;
    std::size_t rolled_back = 0;
    for (const auto& [key, after] : effect) {
      const auto it = expected.find(key);
      const std::optional<std::string> before =
          it == expected.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
      if (after == before) continue;  // e.g. erase of an absent key
      const auto read = read_of.find(key);
      CCNVM_CHECK_MSG(read != read_of.end(),
                      "kv oracle: in-flight key outside the keyspace");
      const std::optional<std::string>& got = reads[read->second];
      if (got == after) {
        ++applied;
      } else {
        CCNVM_CHECK_MSG(got == before,
                        "kv oracle: in-flight unit left a third state");
        ++rolled_back;
      }
    }
    CCNVM_CHECK_MSG(applied == 0 || rolled_back == 0,
                    "kv oracle: in-flight unit torn by the crash");
    if (applied == 0) continue;
    for (const auto& [key, after] : effect) {
      if (after) {
        expected[key] = *after;
      } else {
        expected.erase(key);
      }
    }
  }

  std::size_t expected_seen = 0;
  for (const auto& [key, index] : read_of) {
    const std::optional<std::string>& got = reads[index];
    if (const auto it = expected.find(key); it != expected.end()) {
      CCNVM_CHECK_MSG(got == it->second,
                      "kv oracle: acknowledged write lost");
      ++expected_seen;
    } else {
      CCNVM_CHECK_MSG(!got.has_value(),
                      "kv oracle: erased or unwritten key reappeared");
    }
  }
  CCNVM_CHECK_MSG(expected_seen == expected.size(),
                  "kv oracle: acked key outside the keyspace");
  return reads;
}

}  // namespace ccnvm::audit
