#include "store/kv_store.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/check.h"

namespace ccnvm::store {
namespace {

// Bucket header layout (one 64 B line):
//   [0]      state: 0 empty, 1 occupied, 2 tombstone
//   [1]      key length (1..48)
//   [2..3]   value length, LE
//   [4..7]   value extent's first heap line (within the shard), LE
//   [8..15]  operation sequence number, LE (diagnostics / scan ordering)
//   [16..63] key bytes
constexpr std::uint8_t kEmpty = 0;
constexpr std::uint8_t kOccupied = 1;
constexpr std::uint8_t kTombstone = 2;
constexpr std::size_t kKeyOffset = 16;

}  // namespace

void StoreConfig::validate() const {
  CCNVM_CHECK_MSG(shards >= 1, "store needs at least one shard");
  CCNVM_CHECK_MSG(buckets_per_shard >= 4, "too few buckets per shard");
  CCNVM_CHECK_MSG(heap_lines_per_shard >= 1, "empty value heap");
  CCNVM_CHECK_MSG(heap_lines_per_shard <= 0xFFFFFFFFull,
                  "heap exceeds the 32-bit extent field");
  CCNVM_CHECK_MSG(txn_ops_capacity <= 64,
                  "txn journal capacity over the 64-op bound");
}

StoreConfig StoreConfig::sized_for(std::uint64_t keys,
                                   std::size_t max_value_bytes,
                                   std::size_t shards) {
  StoreConfig cfg;
  cfg.shards = shards;
  const std::uint64_t n = static_cast<std::uint64_t>(shards);
  // Open addressing wants headroom; 2x keys keeps probe chains short even
  // with an uneven shard split.
  cfg.buckets_per_shard = std::max<std::uint64_t>(8, (2 * keys + n - 1) / n);
  const std::uint64_t lines_per_value =
      (static_cast<std::uint64_t>(max_value_bytes) + kLineSize - 1) /
      kLineSize;
  // Out-of-place updates need one extra extent in flight; 3x is generous.
  cfg.heap_lines_per_shard = std::max<std::uint64_t>(
      8, (3 * keys * std::max<std::uint64_t>(1, lines_per_value) + n - 1) / n);
  return cfg;
}

SecureKvStore::SecureKvStore(core::SecureNvmBase& nvm,
                             const StoreConfig& config)
    : SecureKvStore(TagCtor{}, nvm, config) {}

SecureKvStore::SecureKvStore(TagCtor, core::SecureNvmBase& nvm,
                             const StoreConfig& config)
    : nvm_(&nvm), config_(config), shards_(config.shards) {
  config_.validate();
  CCNVM_CHECK_MSG(config_.footprint_bytes() <= nvm.layout().data_capacity(),
                  "store geometry exceeds the NVM data capacity");
  CCNVM_CHECK_MSG(nvm.config().functional,
                  "the KV store needs the functional engine");
}

SecureKvStore SecureKvStore::open(core::SecureNvmBase& nvm,
                                  const StoreConfig& config,
                                  const TxnResolver& resolver) {
  SecureKvStore s(TagCtor{}, nvm, config);
  const ShardStateLock lock(s.shard_serial_);
  // Journal first: an interrupted txn's header flips must be redone (or
  // the txn presumed aborted) before the scan below derives state from
  // the headers.
  if (config.txn_ops_capacity > 0) s.resolve_txn_journal(resolver);
  // The rebuild scan reads every bucket header exactly once, in order —
  // batch-shaped work. Chunking through read_blocks lets the engine
  // decrypt and verify a whole chunk in SIMD lanes across the worker pool,
  // which is what the recovery/open_scan_rebuild_ms headline metric
  // measures. read_blocks verifies a 4096-header chunk as four 1024-header
  // sub-batches, each while it fetches the next.
  constexpr std::uint64_t kScanChunk = 4096;
  std::vector<Addr> scan_addrs;
  for (std::size_t sh = 0; sh < config.shards; ++sh) {
    Shard& shard = s.shards_[sh];
    std::vector<bool> used(config.heap_lines_per_shard, false);
    for (std::uint64_t base = 0; base < config.buckets_per_shard;
         base += kScanChunk) {
      const std::uint64_t count =
          std::min(kScanChunk, config.buckets_per_shard - base);
      scan_addrs.resize(count);
      for (std::uint64_t c = 0; c < count; ++c) {
        scan_addrs[c] = s.bucket_addr(sh, base + c);
      }
      s.stats_.probe_reads += count;
      const std::vector<core::ReadResult> headers =
          s.nvm_->read_blocks(scan_addrs);
      for (std::uint64_t c = 0; c < count; ++c) {
        CCNVM_CHECK_MSG(headers[c].integrity_ok,
                        "bucket header failed integrity");
        const Entry e = decode_header(headers[c].plaintext);
        if (e.state == kEmpty) continue;
        if (e.state == kTombstone) {
          ++shard.tombstones;
          continue;
        }
        CCNVM_CHECK_MSG(e.state == kOccupied, "corrupt bucket header state");
        ++shard.live;
        s.next_seq_ = std::max(s.next_seq_, e.seq + 1);
        const std::uint64_t n = value_lines(e.vlen);
        CCNVM_CHECK_MSG(e.value_line + n <= config.heap_lines_per_shard,
                        "bucket header references lines outside the heap");
        for (std::uint64_t i = 0; i < n; ++i) {
          CCNVM_CHECK_MSG(!used[e.value_line + i],
                          "two committed entries share a heap line");
          used[e.value_line + i] = true;
        }
      }
    }
    // Rebuild the allocator: every maximal unused run becomes a free-list
    // extent; the bump pointer has nothing left (the list covers it all).
    shard.bump = config.heap_lines_per_shard;
    for (std::uint64_t i = 0; i < config.heap_lines_per_shard;) {
      if (used[i]) {
        ++i;
        continue;
      }
      std::uint64_t j = i;
      while (j < config.heap_lines_per_shard && !used[j]) ++j;
      shard.free_list.push_back(Extent{i, j - i});
      i = j;
    }
  }
  return s;
}

std::uint64_t SecureKvStore::hash_key(std::string_view key) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (char c : key) {
    h = (h ^ static_cast<std::uint64_t>(static_cast<std::uint8_t>(c))) *
        1099511628211ULL;
  }
  return h;
}

std::size_t SecureKvStore::shard_of(std::uint64_t h) const {
  // Shard and bucket draw on different bit ranges so that keys colliding
  // in one dimension still spread in the other.
  return static_cast<std::size_t>((h >> 40) % config_.shards);
}

std::uint64_t SecureKvStore::home_bucket(std::uint64_t h) const {
  return h % config_.buckets_per_shard;
}

Addr SecureKvStore::bucket_addr(std::size_t shard,
                                std::uint64_t bucket) const {
  return (static_cast<std::uint64_t>(shard) * config_.lines_per_shard() +
          bucket) *
         kLineSize;
}

Addr SecureKvStore::heap_addr(std::size_t shard,
                              std::uint64_t heap_line) const {
  return (static_cast<std::uint64_t>(shard) * config_.lines_per_shard() +
          config_.buckets_per_shard + heap_line) *
         kLineSize;
}

Line SecureKvStore::encode_header(const Entry& e) {
  Line line{};
  line[0] = e.state;
  line[1] = static_cast<std::uint8_t>(e.key.size());
  line[2] = static_cast<std::uint8_t>(e.vlen & 0xFF);
  line[3] = static_cast<std::uint8_t>(e.vlen >> 8);
  store_le32(line, 4, e.value_line);
  store_le64(line, 8, e.seq);
  std::memcpy(line.data() + kKeyOffset, e.key.data(), e.key.size());
  return line;
}

SecureKvStore::Entry SecureKvStore::decode_header(const Line& line) {
  Entry e;
  e.state = line[0];
  const std::size_t klen = line[1];
  e.vlen = static_cast<std::uint16_t>(line[2] |
                                      (static_cast<std::uint16_t>(line[3])
                                       << 8));
  e.value_line = load_le32(line, 4);
  e.seq = load_le64(line, 8);
  if (e.state == kOccupied) {
    CCNVM_CHECK_MSG(klen >= 1 && klen <= kMaxKeyBytes,
                    "corrupt bucket header key length");
    e.key.assign(reinterpret_cast<const char*>(line.data()) + kKeyOffset,
                 klen);
  }
  return e;
}

SecureKvStore::Entry SecureKvStore::read_bucket(std::size_t shard,
                                                std::uint64_t bucket) {
  ++stats_.probe_reads;
  const core::ReadResult r = nvm_->read_block(bucket_addr(shard, bucket));
  CCNVM_CHECK_MSG(r.integrity_ok, "bucket header failed integrity");
  return decode_header(r.plaintext);
}

SecureKvStore::Probe SecureKvStore::probe(std::size_t shard,
                                          std::string_view key) {
  Probe p;
  const std::uint64_t home = home_bucket(hash_key(key));
  for (std::uint64_t i = 0; i < config_.buckets_per_shard; ++i) {
    const std::uint64_t b = (home + i) % config_.buckets_per_shard;
    const Entry e = read_bucket(shard, b);
    if (e.state == kEmpty) {
      if (!p.insert_slot) p.insert_slot = b;
      return p;  // an empty bucket ends every probe chain
    }
    if (e.state == kTombstone) {
      if (!p.insert_slot) {
        p.insert_slot = b;
        p.insert_slot_is_tombstone = true;
      }
      continue;
    }
    if (e.key == key) {
      p.match = b;
      p.match_entry = e;
      return p;
    }
  }
  return p;  // full cycle: table full (insert_slot may still be a tombstone)
}

std::optional<std::uint64_t> SecureKvStore::alloc(std::size_t shard,
                                                  std::uint64_t num_lines) {
  if (num_lines == 0) return 0;
  Shard& s = shards_[shard];
  for (std::size_t i = 0; i < s.free_list.size(); ++i) {
    Extent& ext = s.free_list[i];
    if (ext.num_lines < num_lines) continue;
    const std::uint64_t first = ext.first_line;
    if (ext.num_lines == num_lines) {
      s.free_list.erase(s.free_list.begin() +
                        static_cast<std::ptrdiff_t>(i));
    } else {
      ext.first_line += num_lines;
      ext.num_lines -= num_lines;
    }
    return first;
  }
  if (s.bump + num_lines <= config_.heap_lines_per_shard) {
    const std::uint64_t first = s.bump;
    s.bump += num_lines;
    return first;
  }
  return std::nullopt;
}

void SecureKvStore::free_extent(std::size_t shard, const Extent& extent) {
  if (extent.num_lines == 0) return;
  shards_[shard].free_list.push_back(extent);
}

std::string SecureKvStore::read_value(std::size_t shard, const Entry& e) {
  std::string value;
  value.reserve(e.vlen);
  const std::uint64_t n = value_lines(e.vlen);
  for (std::uint64_t i = 0; i < n; ++i) {
    ++stats_.value_line_reads;
    const core::ReadResult r =
        nvm_->read_block(heap_addr(shard, e.value_line + i));
    CCNVM_CHECK_MSG(r.integrity_ok, "value line failed integrity");
    const std::size_t take = std::min<std::size_t>(
        kLineSize, static_cast<std::size_t>(e.vlen) - value.size());
    value.append(reinterpret_cast<const char*>(r.plaintext.data()), take);
  }
  return value;
}

bool SecureKvStore::put(std::string_view key, std::string_view value) {
  const ShardStateLock lock(shard_serial_);
  ++stats_.puts;
  if (key.empty() || key.size() > kMaxKeyBytes ||
      value.size() > kMaxValueBytes) {
    ++stats_.failed_puts;
    return false;
  }
  const std::uint64_t h = hash_key(key);
  const std::size_t shard = shard_of(h);
  const Probe p = probe(shard, key);
  if (!p.match && !p.insert_slot) {
    ++stats_.failed_puts;  // no bucket available in this shard
    return false;
  }

  const std::uint64_t n = value_lines(value.size());
  const std::optional<std::uint64_t> extent = alloc(shard, n);
  if (!extent) {
    ++stats_.failed_puts;  // heap full (nothing has been written yet)
    return false;
  }

  // Phase 1: the value, to lines no committed header references.
  for (std::uint64_t i = 0; i < n; ++i) {
    Line l{};
    const std::size_t off = static_cast<std::size_t>(i) * kLineSize;
    std::memcpy(l.data(), value.data() + off,
                std::min<std::size_t>(kLineSize, value.size() - off));
    nvm_->write_back(heap_addr(shard, *extent + i), l);
    ++stats_.value_line_writes;
  }

  // Phase 2: the header flip — the operation's single commit point.
  Entry e;
  e.state = kOccupied;
  e.key.assign(key);
  e.vlen = static_cast<std::uint16_t>(value.size());
  e.value_line = static_cast<std::uint32_t>(*extent);
  e.seq = next_seq_++;
  const std::uint64_t slot = p.match ? *p.match : *p.insert_slot;
  nvm_->write_back(bucket_addr(shard, slot), encode_header(e));
  ++stats_.header_writes;

  // Phase 3: DRAM bookkeeping (derived state; rebuilt by open()).
  if (p.match) {
    free_extent(shard, Extent{p.match_entry.value_line,
                              value_lines(p.match_entry.vlen)});
    ++stats_.updates;
  } else {
    ++shards_[shard].live;
    if (p.insert_slot_is_tombstone) --shards_[shard].tombstones;
    ++stats_.inserts;
  }
  return true;
}

std::optional<std::string> SecureKvStore::get(std::string_view key) {
  ++stats_.gets;
  if (key.empty() || key.size() > kMaxKeyBytes) return std::nullopt;
  const std::uint64_t h = hash_key(key);
  const std::size_t shard = shard_of(h);
  const Probe p = probe(shard, key);
  if (!p.match) return std::nullopt;
  ++stats_.get_hits;
  return read_value(shard, p.match_entry);
}

bool SecureKvStore::erase(std::string_view key) {
  const ShardStateLock lock(shard_serial_);
  ++stats_.erases;
  if (key.empty() || key.size() > kMaxKeyBytes) return false;
  const std::uint64_t h = hash_key(key);
  const std::size_t shard = shard_of(h);
  const Probe p = probe(shard, key);
  if (!p.match) return false;

  Entry t;
  t.state = kTombstone;
  t.seq = next_seq_++;
  nvm_->write_back(bucket_addr(shard, *p.match), encode_header(t));
  ++stats_.header_writes;

  free_extent(shard, Extent{p.match_entry.value_line,
                            value_lines(p.match_entry.vlen)});
  --shards_[shard].live;
  ++shards_[shard].tombstones;
  ++stats_.erase_hits;
  return true;
}

void SecureKvStore::for_each(
    const std::function<void(std::string_view, std::string_view)>& fn) {
  for (std::size_t sh = 0; sh < config_.shards; ++sh) {
    for (std::uint64_t b = 0; b < config_.buckets_per_shard; ++b) {
      const Entry e = read_bucket(sh, b);
      if (e.state != kOccupied) continue;
      const std::string value = read_value(sh, e);
      fn(e.key, value);
    }
  }
}

std::uint64_t SecureKvStore::size() const {
  const ShardStateLock lock(shard_serial_);
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.live;
  return total;
}

std::uint64_t SecureKvStore::free_heap_lines(std::size_t shard) const {
  const ShardStateLock lock(shard_serial_);
  const Shard& s = shards_[shard];
  std::uint64_t free = config_.heap_lines_per_shard - s.bump;
  for (const Extent& e : s.free_list) free += e.num_lines;
  return free;
}

}  // namespace ccnvm::store
