// Differential engine: one random trace, eight designs, identical answers.
//
// All eight DesignKinds are functionally equivalent while power stays on —
// they differ only in *when* security metadata persists. So any trace
// driven through all of them must read back identical plaintext
// everywhere, and after a quiesce every image must audit clean. The
// paper's write-efficiency claim (§5.2) additionally fixes orderings
// between their NVM traffic counters, which this engine asserts on every
// case: SC persists metadata at least as often as the batching designs,
// and Osiris Plus never writes tree nodes at all.

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/design.h"
#include "fuzz/fuzz.h"
#include "service/seeded_service.h"
#include "store/kv_store.h"

namespace ccnvm::fuzz::detail {
namespace {

constexpr std::uint64_t kDiffPages = 16;  // 4^2 pages -> complete tree

constexpr core::DesignKind kAllKinds[] = {
    core::DesignKind::kWoCc,      core::DesignKind::kStrict,
    core::DesignKind::kOsirisPlus, core::DesignKind::kCcNvmNoDs,
    core::DesignKind::kCcNvm,     core::DesignKind::kCcNvmPlus,
    core::DesignKind::kTriadNvm,  core::DesignKind::kPhoenix};
constexpr std::size_t kNumKinds = std::size(kAllKinds);

/// Randomized geometry, shared by all eight designs so the trace exercises
/// varied drain behavior (tight DAQ, tight update limit, tiny cache)
/// without losing comparability.
core::DesignConfig diff_config(Rng& rng) {
  core::DesignConfig cfg;
  cfg.data_capacity = kDiffPages * kPageSize;
  constexpr std::uint32_t kLimits[] = {4, 16, 1u << 20};
  cfg.update_limit = kLimits[rng.below(3)];
  constexpr std::size_t kDaqs[] = {6, 12, 64};
  cfg.daq_entries = kDaqs[rng.below(3)];
  if (rng.chance(0.3)) {
    cfg.meta_cache_bytes = 8 * kLineSize;
    cfg.meta_cache_ways = 2;
  }
  return cfg;
}

Line diff_line(Rng& rng) {
  Line l{};
  const std::uint64_t tag = rng.next();
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(splitmix64(tag + i / 8) >> (8 * (i % 8)));
  }
  return l;
}

std::uint64_t line_prefix(const Line& l) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v |= std::uint64_t{l[i]} << (8 * i);
  return v;
}

struct Fleet {
  std::vector<std::unique_ptr<core::SecureNvmDesign>> designs;
  std::vector<core::SecureNvmBase*> bases;
};

Fleet make_fleet(const core::DesignConfig& cfg) {
  Fleet fleet;
  for (core::DesignKind kind : kAllKinds) {
    fleet.designs.push_back(core::make_design(kind, cfg));
    auto* base = dynamic_cast<core::SecureNvmBase*>(fleet.designs.back().get());
    CCNVM_CHECK_MSG(base != nullptr, "diff fuzz: design is not a SecureNvmBase");
    fleet.bases.push_back(base);
  }
  return fleet;
}

/// End-of-case invariants shared by both modes: quiesced images audit
/// clean everywhere, and the traffic counters respect the cross-design
/// orderings (SC >= each cc design on metadata writes; Osiris Plus never
/// persists tree nodes; everyone moved the same data and DH lines).
///
/// The SC ordering only holds when the meta cache cannot evict mid
/// write-back: an eviction-triggered drain persists DAQ entries that were
/// reserved but not yet updated (pre_write_back tracks the whole path up
/// front), so a thrashing cache legitimately re-persists a line SC writes
/// once — pass `cache_can_thrash` to skip just that check.
void check_fleet_invariants(Fleet& fleet, bool cache_can_thrash,
                            CaseOutcome& out) {
  for (core::SecureNvmBase* base : fleet.bases) {
    base->quiesce();
    CCNVM_CHECK_MSG(
        base->audit_image().empty(),
        ("diff fuzz: quiesced image does not audit clean: " +
         std::string(base->name()))
            .c_str());
    ++out.checks;
  }
  const auto& reference = fleet.bases[0]->traffic();
  const nvm::TrafficStats* strict_traffic = nullptr;
  const nvm::TrafficStats* osiris_traffic = nullptr;
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    const auto& t = fleet.bases[i]->traffic();
    CCNVM_CHECK_MSG(t.data_writes == reference.data_writes,
                    "diff fuzz: designs disagree on data writes");
    CCNVM_CHECK_MSG(t.dh_writes == reference.dh_writes,
                    "diff fuzz: designs disagree on DH writes");
    out.checks += 2;
    if (kAllKinds[i] == core::DesignKind::kStrict) strict_traffic = &t;
    if (kAllKinds[i] == core::DesignKind::kOsirisPlus) osiris_traffic = &t;
    fold_digest(out.digest, t.total_writes());
  }
  CCNVM_CHECK(strict_traffic != nullptr && osiris_traffic != nullptr);
  CCNVM_CHECK_MSG(osiris_traffic->mt_writes == 0,
                  "diff fuzz: Osiris Plus persisted a tree node");
  ++out.checks;
  // Phoenix persists exactly SC's branch set (same barrier, streamlined
  // timing only), and Triad-NVM's persists are a per-event subset of it.
  const nvm::TrafficStats* phoenix_traffic = nullptr;
  const nvm::TrafficStats* triad_traffic = nullptr;
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    if (kAllKinds[i] == core::DesignKind::kPhoenix)
      phoenix_traffic = &fleet.bases[i]->traffic();
    if (kAllKinds[i] == core::DesignKind::kTriadNvm)
      triad_traffic = &fleet.bases[i]->traffic();
  }
  CCNVM_CHECK(phoenix_traffic != nullptr && triad_traffic != nullptr);
  CCNVM_CHECK_MSG(
      phoenix_traffic->counter_writes + phoenix_traffic->mt_writes ==
          strict_traffic->counter_writes + strict_traffic->mt_writes,
      "diff fuzz: Phoenix metadata traffic diverged from SC");
  CCNVM_CHECK_MSG(
      triad_traffic->counter_writes + triad_traffic->mt_writes <=
          phoenix_traffic->counter_writes + phoenix_traffic->mt_writes,
      "diff fuzz: Triad-NVM wrote more metadata than Phoenix");
  out.checks += 2;
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    switch (kAllKinds[i]) {
      case core::DesignKind::kCcNvmNoDs:
      case core::DesignKind::kCcNvm:
      case core::DesignKind::kCcNvmPlus:
      case core::DesignKind::kTriadNvm:
      case core::DesignKind::kPhoenix: {
        const auto& t = fleet.bases[i]->traffic();
        if (!cache_can_thrash) {
          CCNVM_CHECK_MSG(
              strict_traffic->counter_writes + strict_traffic->mt_writes >=
                  t.counter_writes + t.mt_writes,
              ("diff fuzz: SC wrote less metadata than " +
               std::string(fleet.bases[i]->name()) + ": sc=" +
               std::to_string(strict_traffic->counter_writes) + "+" +
               std::to_string(strict_traffic->mt_writes) + " vs " +
               std::to_string(t.counter_writes) + "+" +
               std::to_string(t.mt_writes))
                  .c_str());
          ++out.checks;
        }
        CCNVM_CHECK_MSG(fleet.bases[i]->stats().write_backs ==
                            fleet.bases[0]->stats().write_backs,
                        "diff fuzz: designs disagree on write-back count");
        ++out.checks;
        break;
      }
      default:
        break;
    }
  }
}

void run_raw_mode(Rng& rng, std::size_t max_ops, Fleet& fleet,
                  CaseOutcome& out) {
  constexpr std::uint64_t kLines = kDiffPages * kPageSize / kLineSize;
  std::map<Addr, Line> shadow;
  std::vector<Addr> written;
  for (std::size_t i = 0; i < max_ops; ++i) {
    ++out.ops;
    const std::uint64_t roll = rng.below(100);
    if (roll < 60 || written.empty()) {
      const Addr a = rng.below(kLines) * kLineSize;
      const Line value = diff_line(rng);
      for (auto& d : fleet.designs) d->write_back(a, value);
      if (shadow.emplace(a, value).second) written.push_back(a);
      shadow[a] = value;
    } else if (roll < 90) {
      const Addr a = written[rng.below(written.size())];
      const Line& expected = shadow.at(a);
      for (auto& d : fleet.designs) {
        const core::ReadResult r = d->read_block(a);
        CCNVM_CHECK_MSG(r.integrity_ok,
                        "diff fuzz: read failed integrity with no attacker");
        CCNVM_CHECK_MSG(r.plaintext == expected,
                        "diff fuzz: designs disagree on read plaintext");
        ++out.reads_compared;
      }
      fold_digest(out.digest, line_prefix(expected));
    } else {
      for (core::SecureNvmBase* base : fleet.bases) base->quiesce();
    }
  }
}

store::StoreConfig diff_store_config() {
  store::StoreConfig cfg;
  cfg.shards = 2;
  cfg.buckets_per_shard = 64;
  cfg.heap_lines_per_shard = 192;  // 8 pages total, inside the 16-page DIMM
  return cfg;
}

std::string diff_value(Rng& rng) {
  std::string v(rng.below(120), '\0');
  const std::uint64_t tag = rng.next();
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(
        static_cast<std::uint8_t>(splitmix64(tag + i / 8) >> (8 * (i % 8))));
  }
  return v;
}

void run_kv_mode(std::uint64_t case_seed, Rng& rng, std::size_t max_ops,
                 Fleet& fleet, CaseOutcome& out) {
  constexpr std::size_t kKeys = 12;
  std::vector<store::SecureKvStore> stores;
  stores.reserve(kNumKinds);
  for (core::SecureNvmBase* base : fleet.bases) {
    stores.emplace_back(*base, diff_store_config());
  }
  // Ninth participant: the service core on the seeded driver. Its one
  // client submits each op without waiting, and the driver's own Rng
  // interleaves client steps with greedy batches, so batches hold several
  // requests and must stay answer-equivalent to the stores above.
  service::ServiceConfig scfg;
  scfg.shards = 1;
  scfg.commit.max_batch = 4;
  scfg.store = diff_store_config();
  scfg.design.data_capacity = kDiffPages * kPageSize;
  service::SeededService service(scfg, derive_seed(case_seed, 0xd1ff));
  // Each service answer must be the one the stores gave at submit time.
  const auto mirror = [&service](service::OpType op, const std::string& key,
                                 const std::string& value, bool ok,
                                 const std::optional<std::string>& expected) {
    service.submit({op, key, value}, [ok, expected](service::Result&& r) {
      CCNVM_CHECK_MSG(r.ok == ok && r.value == expected,
                      "diff fuzz: service disagrees with the stores");
    });
  };

  std::map<std::string, std::string> shadow;
  std::size_t i = 0;
  service.add_client([&] {
    if (i++ == max_ops) return false;
    ++out.ops;
    const std::string key = "fz-" + std::to_string(rng.below(kKeys));
    const std::uint64_t roll = rng.below(100);
    if (roll < 50) {
      const std::string value = diff_value(rng);
      for (auto& kv : stores) {
        CCNVM_CHECK_MSG(kv.put(key, value), "diff fuzz: store full");
      }
      mirror(service::OpType::kPut, key, value, true, std::nullopt);
      shadow[key] = value;
    } else if (roll < 75) {
      const std::optional<std::string> expected =
          shadow.count(key) ? std::optional<std::string>(shadow.at(key))
                            : std::nullopt;
      for (auto& kv : stores) {
        const std::optional<std::string> got = kv.get(key);
        CCNVM_CHECK_MSG(got == expected,
                        "diff fuzz: stores disagree on a lookup");
        ++out.reads_compared;
      }
      mirror(service::OpType::kGet, key, "", expected.has_value(), expected);
      ++out.reads_compared;
      fold_digest(out.digest, expected ? expected->size() + 1 : 0);
    } else if (roll < 90) {
      for (auto& kv : stores) kv.erase(key);
      mirror(service::OpType::kErase, key, "", shadow.count(key) > 0,
             std::nullopt);
      shadow.erase(key);
    } else {
      for (auto& kv : stores) kv.checkpoint();
    }
    return true;
  });
  service.shutdown();
  for (auto& kv : stores) {
    CCNVM_CHECK_MSG(kv.size() == shadow.size(),
                    "diff fuzz: stores disagree on live entry count");
    ++out.checks;
  }
  CCNVM_CHECK_MSG(service.engine_store(0).size() == shadow.size(),
                  "diff fuzz: service disagrees on live entry count");
  CCNVM_CHECK_MSG(service.engine_base(0).audit_image().empty(),
                  "diff fuzz: quiesced service engine does not audit clean");
  out.checks += 2;
  fold_digest(out.digest, shadow.size());
}

}  // namespace

CaseOutcome run_differential_case(std::uint64_t case_seed,
                                  std::size_t max_ops) {
  CaseOutcome out;
  Rng rng(case_seed);
  const core::DesignConfig cfg = diff_config(rng);
  const core::DesignConfig defaults;
  const bool cache_can_thrash = cfg.meta_cache_bytes < defaults.meta_cache_bytes;
  Fleet fleet = make_fleet(cfg);
  if (rng.chance(0.35)) {
    run_kv_mode(case_seed, rng, max_ops, fleet, out);
  } else {
    run_raw_mode(rng, max_ops, fleet, out);
  }
  check_fleet_invariants(fleet, cache_can_thrash, out);
  return out;
}

}  // namespace ccnvm::fuzz::detail
