#include "layers.h"

#include <algorithm>

#include "common/rng.h"
#include "common/types.h"

namespace kvbench {

using namespace ccnvm;

void Tally::add_engine(const core::SecureNvmBase& nvm,
                       const store::SecureKvStore* store) {
  const core::DesignStats& d = nvm.stats();
  write_backs += d.write_backs;
  reads += d.reads;
  drains += d.drains;
  explicit_drains += d.drains_by_trigger[static_cast<std::size_t>(
      core::DrainTrigger::kExplicit)];
  hmac += d.hmac_ops;
  aes += d.aes_ops;
  const nvm::TrafficStats& t = nvm.traffic();
  data_w += t.data_writes;
  counter_w += t.counter_writes;
  mt_w += t.mt_writes;
  dh_w += t.dh_writes;
  const cache::CacheStats c = nvm.meta_cache_stats();
  hits += c.hits;
  misses += c.misses;
  if (store != nullptr) {
    const store::StoreStats& s = store->stats();
    probe_reads += s.probe_reads;
    value_line_writes += s.value_line_writes;
    header_writes += s.header_writes;
    journal_writes += s.txn_journal_writes;
  }
}

void Tally::add_service(const service::ServiceStats& s) {
  batches += s.batches;
  batched_ops += s.batched_ops;
  mutations += s.mutations;
  barriers += s.barriers;
  puts += s.puts;
  gets += s.gets;
  txns += s.txns;
}

Tally Tally::operator-(const Tally& o) const {
  Tally r;
  r.write_backs = write_backs - o.write_backs;
  r.reads = reads - o.reads;
  r.drains = drains - o.drains;
  r.explicit_drains = explicit_drains - o.explicit_drains;
  r.hmac = hmac - o.hmac;
  r.aes = aes - o.aes;
  r.data_w = data_w - o.data_w;
  r.counter_w = counter_w - o.counter_w;
  r.mt_w = mt_w - o.mt_w;
  r.dh_w = dh_w - o.dh_w;
  r.hits = hits - o.hits;
  r.misses = misses - o.misses;
  r.probe_reads = probe_reads - o.probe_reads;
  r.value_line_writes = value_line_writes - o.value_line_writes;
  r.header_writes = header_writes - o.header_writes;
  r.journal_writes = journal_writes - o.journal_writes;
  r.batches = batches - o.batches;
  r.batched_ops = batched_ops - o.batched_ops;
  r.mutations = mutations - o.mutations;
  r.barriers = barriers - o.barriers;
  r.puts = puts - o.puts;
  r.gets = gets - o.gets;
  r.txns = txns - o.txns;
  return r;
}

Tally tally(service::KvService& svc) {
  Tally t;
  for (std::size_t s = 0; s < svc.shards(); ++s) {
    t.add_engine(svc.engine_base(s), &svc.engine_store(s));
  }
  t.add_service(svc.stats());
  return t;
}

ServiceTiming analyze_service(std::vector<Push> pushes,
                              const std::vector<const ThreadLog*>& drain_logs) {
  ServiceTiming out;
  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
  // A shard queue is FIFO, so the k-th request pushed to a shard is the
  // k-th one its drain worker applied.
  std::stable_sort(pushes.begin(), pushes.end(),
                   [](const Push& a, const Push& b) {
                     if (a.shard != b.shard) return a.shard < b.shard;
                     return a.order != b.order ? a.order < b.order
                                               : a.seq < b.seq;
                   });
  std::size_t i = 0;
  for (std::size_t s = 0; s < drain_logs.size(); ++s) {
    const std::size_t begin = i;
    while (i < pushes.size() && pushes[i].shard == s) ++i;
    const std::size_t n_push = i - begin;
    if (drain_logs[s] == nullptr) {
      out.unmatched += n_push;
      continue;
    }
    const auto& applies = drain_logs[s]->applies;
    const auto& barriers = drain_logs[s]->barriers;
    for (const auto& [start, end] : barriers) {
      out.barrier_us.push_back(us(end - start));
    }
    const std::size_t n = std::min(n_push, applies.size());
    out.unmatched += std::max(n_push, applies.size()) - n;
    out.matched += n;
    std::size_t bi = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Push& p = pushes[begin + k];
      const auto [started, applied] = applies[k];
      out.pre_us.push_back(us(started - p.push));
      out.apply_us.push_back(us(applied - started));
      while (bi < barriers.size() && barriers[bi].second < applied) ++bi;
      // A mutating batch releases its acks at the barrier; a read-only
      // batch acks straight after its applies.
      const bool barriered =
          bi < barriers.size() && barriers[bi].second <= p.wake;
      const std::int64_t release = barriered ? barriers[bi].second : applied;
      if (barriered) ++out.barrier_waits;
      out.mates_us.push_back(barriered ? us(barriers[bi].first - applied)
                                       : 0.0);
      out.ack_us.push_back(us(p.wake - release));
    }
  }
  return out;
}

void core_micro(const core::DesignConfig& dc, std::uint64_t footprint,
                std::uint64_t seed, Report& report) {
  auto design = core::make_design(core::DesignKind::kCcNvm, dc);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  Rng rng(derive_seed(seed, 0xc07e));
  const std::uint64_t lines = footprint / kLineSize;
  constexpr std::size_t kCalls = 3000;
  std::vector<Addr> addrs;
  std::vector<double> wb_us, rd_us;
  Line line{};
  for (std::size_t i = 0; i < kCalls; ++i) {
    const Addr addr = rng.below(lines) * kLineSize;
    for (std::size_t b = 0; b < 8; ++b) {
      line[b] = static_cast<std::uint8_t>(i >> (8 * b));
    }
    const std::int64_t t0 = now_ns();
    base->write_back(addr, line);
    wb_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    addrs.push_back(addr);
  }
  for (std::size_t i = addrs.size(); i > 1; --i) {
    std::swap(addrs[i - 1], addrs[rng.below(i)]);
  }
  for (const Addr addr : addrs) {
    const std::int64_t t0 = now_ns();
    const core::ReadResult r = base->read_block(addr);
    rd_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!r.integrity_ok) report.fail("core leg: read_block integrity failure");
  }
  report.layers["core.write_back_us_p50"] = quantile(wb_us, 0.5);
  report.layers["core.read_block_us_p50"] = quantile(rd_us, 0.5);
}

void direct_leg(const core::DesignConfig& dc, const store::StoreConfig& sc,
                const std::vector<KeyValue>& initial,
                const std::vector<ReplayOp>& ops, double run_seconds,
                Report& report) {
  const double budget_s = std::min(2.0, 0.1 + run_seconds / 5.0);
  auto design = core::make_design(core::DesignKind::kCcNvm, dc);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  store::SecureKvStore kv(*base, sc);
  for (const KeyValue& e : initial) {
    if (!kv.put(e.key, e.value)) report.fail("direct leg: load put rejected");
  }
  kv.checkpoint();
  std::vector<double> put_us, get_us, ckpt_us;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  bool dirty = false;
  for (const ReplayOp& op : ops) {
    if (now_ns() > deadline) break;
    const std::int64_t t0 = now_ns();
    if (op.put) {
      const bool ok = kv.put(op.key, op.value);
      put_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!ok) report.fail("direct leg: put rejected");
      dirty = true;
    } else {
      const bool hit = kv.get(op.key).has_value();
      get_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!hit) report.fail("direct leg: get missed a loaded key");
    }
    if (op.group_end && dirty) {
      const std::int64_t c0 = now_ns();
      kv.checkpoint();
      ckpt_us.push_back(static_cast<double>(now_ns() - c0) / 1e3);
      dirty = false;
    }
  }
  report.layers["store.put_us_p50"] = quantile(put_us, 0.5);
  report.layers["store.get_us_p50"] = quantile(get_us, 0.5);
  report.layers["store.checkpoint_us_p50"] = quantile(ckpt_us, 0.5);
  report.detail["store.put_us_mean"] = mean(put_us);
  report.detail["store.get_us_mean"] = mean(get_us);
  report.detail["store.direct_leg_ops"] =
      static_cast<double>(put_us.size() + get_us.size());
}

void fill_engine_layers(const Tally& d, double ops,
                        const std::vector<const DrainObserver*>& drains,
                        const std::vector<const NvmCounters*>& nvm,
                        Report& report) {
  auto& L = report.layers;
  const auto per_op = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), ops);
  };
  L["store.probe_reads_per_op"] = per_op(d.probe_reads);
  const auto per_put = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), static_cast<double>(d.puts));
  };
  L["store.value_line_writes_per_put"] = per_put(d.value_line_writes);
  L["store.header_writes_per_put"] = per_put(d.header_writes);
  L["store.txn_journal_writes_per_txn"] =
      ratio(static_cast<double>(d.journal_writes), static_cast<double>(d.txns));

  L["core.write_backs_per_op"] = per_op(d.write_backs);
  L["core.reads_per_op"] = per_op(d.reads);
  L["core.drains_per_op"] = per_op(d.drains);
  L["core.drains_explicit_frac"] = ratio(static_cast<double>(d.explicit_drains),
                                         static_cast<double>(d.drains));
  L["core.meta_cache_hit_rate"] = ratio(static_cast<double>(d.hits),
                                        static_cast<double>(d.hits + d.misses));
  std::vector<double> drain_us;
  std::uint64_t drain_lines = 0;
  for (const DrainObserver* o : drains) {
    for (const std::int64_t ns : o->drain_ns) {
      drain_us.push_back(static_cast<double>(ns) / 1e3);
    }
    drain_lines += o->drain_lines;
  }
  L["core.drain_us_p50"] = quantile(drain_us, 0.5);
  L["core.drain_lines_mean"] = ratio(static_cast<double>(drain_lines),
                                     static_cast<double>(drain_us.size()));

  std::uint64_t reads = 0, writes = 0;
  std::int64_t read_ns = 0, write_ns = 0;
  std::vector<double> barrier_us;
  for (const NvmCounters* c : nvm) {
    reads += c->line_reads;
    writes += c->line_writes;
    read_ns += c->read_ns;
    write_ns += c->write_ns;
    for (const std::int64_t ns : c->barrier_ns) {
      barrier_us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  L["nvm.line_reads_per_op"] = per_op(reads);
  L["nvm.line_writes_per_op"] = per_op(writes);
  L["nvm.barriers_per_op"] = ratio(static_cast<double>(barrier_us.size()), ops);
  L["nvm.persist_barrier_us_p50"] = quantile(barrier_us, 0.5);
  L["nvm.persist_barrier_us_p99"] = quantile(barrier_us, 0.99);
  L["nvm.read_line_ns_mean"] =
      ratio(static_cast<double>(read_ns), static_cast<double>(reads));
  L["nvm.write_line_ns_mean"] =
      ratio(static_cast<double>(write_ns), static_cast<double>(writes));
  L["nvm.traffic_data_writes_per_op"] = per_op(d.data_w);
  L["nvm.traffic_counter_writes_per_op"] = per_op(d.counter_w);
  L["nvm.traffic_mt_writes_per_op"] = per_op(d.mt_w);
  L["nvm.traffic_dh_writes_per_op"] = per_op(d.dh_w);

  L["crypto.hmac_per_op"] = per_op(d.hmac);
  L["crypto.aes_per_op"] = per_op(d.aes);
  // One aes_op is a 64-byte one-time pad: four AES blocks.
  L["crypto.est_us_per_op"] =
      (L["crypto.hmac_per_op"] * L["crypto.hmac_tag_ns"] +
       L["crypto.aes_per_op"] * 4.0 * L["crypto.aes_block_ns"]) /
      1e3;
  report.detail["nvm.persist_barrier_us_mean"] = mean(barrier_us);
  report.detail["core.drain_us_mean"] = mean(drain_us);
}

void add_ladder_row(Report& report, const std::string& row, double us_per_op) {
  report.ladder.emplace_back(row, us_per_op);
}

void close_ladder(Report& report, double e2e_mean_us) {
  double sum = 0.0;
  for (const auto& [row, us] : report.ladder) sum += us;
  report.ladder.emplace_back("= sum of rows", sum);
  report.ladder.emplace_back("e2e mean (traced)", e2e_mean_us);
  report.detail["ladder.sum_over_e2e"] = ratio(sum, e2e_mean_us);
}

}  // namespace kvbench
