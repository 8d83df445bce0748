// Multi-key transactions for SecureKvStore: a redo journal appended after
// the shard slices (see StoreConfig::txn_journal_lines).
//
// Journal layout (all lines 64 B, persisted through ADR like data lines):
//   line 0            status: "TXNS" magic, state byte (free / prepared /
//                     committed), txn id, coordinator shard, op count
//   line 1            decision: "TXND" magic + the txn id this store last
//                     decided commit for (2PC coordinator's commit point)
//   lines 2+2i, 3+2i  intent pair for op i: ("TXNM" magic, shard, bucket)
//                     and the full 64 B new bucket-header image
//
// Commit protocol (local commit_txn): stage values to fresh heap extents
// and write every intent pair while the status line still reads free —
// none of it is reachable from a committed header, so a crash discards it
// all. Then ONE status-line write flips the txn to committed: the single
// commit point. Everything after (the header flips, the release) is redo
// that open() replays idempotently from the journal. Distributed txns
// split the same sequence at the status write: prepare_txn stops at state
// `prepared`, the coordinator's decision line is the global commit point,
// and finalize_txn runs the redo half.
#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "store/kv_store.h"

namespace ccnvm::store {
namespace {

// Mirrors the bucket-header state bytes in kv_store.cpp.
constexpr std::uint8_t kEmpty = 0;
constexpr std::uint8_t kOccupied = 1;
constexpr std::uint8_t kTombstone = 2;

// Journal line magics: status, decision, intent meta.
constexpr std::uint8_t kMagicStatus[4] = {'T', 'X', 'N', 'S'};
constexpr std::uint8_t kMagicDecision[4] = {'T', 'X', 'N', 'D'};
constexpr std::uint8_t kMagicMeta[4] = {'T', 'X', 'N', 'M'};

bool has_magic(const Line& line, const std::uint8_t (&magic)[4]) {
  return line[0] == magic[0] && line[1] == magic[1] && line[2] == magic[2] &&
         line[3] == magic[3];
}

}  // namespace

// --- Txn (the DRAM write buffer) ----------------------------------------

// nvlint-waive-next(N2): DRAM buffer mutator sharing SecureKvStore::put's name
void Txn::put(std::string_view key, std::string_view value) {
  for (Op& op : ops_) {
    if (op.key == key) {
      op.value = std::string(value);
      return;
    }
  }
  ops_.push_back(Op{std::string(key), std::string(value)});
}

// nvlint-waive-next(N2): DRAM buffer mutator sharing SecureKvStore::erase's name
void Txn::erase(std::string_view key) {
  for (Op& op : ops_) {
    if (op.key == key) {
      op.value.reset();
      return;
    }
  }
  ops_.push_back(Op{std::string(key), std::nullopt});
}

const std::optional<std::string>* Txn::pending(std::string_view key) const {
  for (const Op& op : ops_) {
    if (op.key == key) return &op.value;
  }
  return nullptr;
}

// --- Journal addressing and encoding ------------------------------------

Addr SecureKvStore::txn_status_addr() const {
  return static_cast<std::uint64_t>(config_.shards) *
         config_.lines_per_shard() * kLineSize;
}

Addr SecureKvStore::txn_decision_addr() const {
  return txn_status_addr() + kLineSize;
}

Addr SecureKvStore::txn_meta_addr(std::size_t op) const {
  return txn_status_addr() + (2 + 2 * static_cast<std::uint64_t>(op)) *
                                 kLineSize;
}

Addr SecureKvStore::txn_header_addr(std::size_t op) const {
  return txn_status_addr() + (3 + 2 * static_cast<std::uint64_t>(op)) *
                                 kLineSize;
}

Line SecureKvStore::encode_txn_status(std::uint8_t state,
                                      std::uint64_t txn_id,
                                      std::uint32_t coordinator,
                                      std::uint32_t op_count) {
  Line line{};
  std::memcpy(line.data(), kMagicStatus, sizeof(kMagicStatus));
  line[4] = state;
  store_le64(line, 8, txn_id);
  store_le32(line, 16, coordinator);
  store_le32(line, 20, op_count);
  return line;
}

// --- Staging -------------------------------------------------------------

bool SecureKvStore::stage_txn(Txn& txn, std::vector<StagedTxnOp>& staged) {
  // Bucket slots already claimed by earlier ops of THIS txn: their
  // committed state is empty/tombstone, but post-commit they are occupied,
  // so later probes must treat them as occupied-by-another-key (walk past,
  // never reuse).
  std::set<std::pair<std::size_t, std::uint64_t>> claimed;
  for (const Txn::Op& op : txn.ops_) {
    const std::string& key = op.key;
    const bool valid =
        !key.empty() && key.size() <= kMaxKeyBytes &&
        (!op.value || op.value->size() <= kMaxValueBytes);
    if (!valid) {
      reclaim_staged(staged);
      staged.clear();
      return false;
    }
    const std::uint64_t h = hash_key(key);
    const std::size_t shard = shard_of(h);

    // Claimed-slot-aware probe. Identical to probe() except that a claimed
    // empty bucket no longer terminates the chain — after commit it will
    // be occupied, so this key's chain legitimately continues past it.
    // (The key itself cannot live beyond a committed-empty bucket: erase
    // only ever writes tombstones, so probe chains never shrink.)
    std::optional<std::uint64_t> match;
    Entry match_entry;
    std::optional<std::uint64_t> insert_slot;
    bool insert_is_tombstone = false;
    const std::uint64_t home = home_bucket(h);
    for (std::uint64_t i = 0; i < config_.buckets_per_shard; ++i) {
      const std::uint64_t b = (home + i) % config_.buckets_per_shard;
      const bool is_claimed = claimed.count({shard, b}) != 0;
      const Entry e = read_bucket(shard, b);
      if (e.state == kEmpty) {
        if (is_claimed) continue;
        if (!insert_slot) insert_slot = b;
        break;
      }
      if (e.state == kTombstone) {
        if (!is_claimed && !insert_slot) {
          insert_slot = b;
          insert_is_tombstone = true;
        }
        continue;
      }
      if (e.key == key) {
        match = b;
        match_entry = e;
        break;
      }
    }

    if (!op.value) {  // buffered erase
      if (!match) continue;  // absent: stages nothing
      StagedTxnOp s;
      s.shard = shard;
      s.bucket = *match;
      s.entry.state = kTombstone;
      s.entry.seq = next_seq_++;
      s.old_extent = Extent{match_entry.value_line,
                            value_lines(match_entry.vlen)};
      claimed.insert({shard, s.bucket});
      staged.push_back(std::move(s));
      continue;
    }

    // Buffered put.
    if (!match && !insert_slot) {
      reclaim_staged(staged);  // shard out of buckets
      staged.clear();
      return false;
    }
    const std::string& value = *op.value;
    const std::uint64_t n = value_lines(value.size());
    const std::optional<std::uint64_t> extent = alloc(shard, n);
    if (!extent) {
      reclaim_staged(staged);  // heap full
      staged.clear();
      return false;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      Line l{};
      const std::size_t off = static_cast<std::size_t>(i) * kLineSize;
      std::memcpy(l.data(), value.data() + off,
                  std::min<std::size_t>(kLineSize, value.size() - off));
      nvm_->write_back(heap_addr(shard, *extent + i), l);
      ++stats_.value_line_writes;
    }
    StagedTxnOp s;
    s.shard = shard;
    s.bucket = match ? *match : *insert_slot;
    s.entry.state = kOccupied;
    s.entry.key = key;
    s.entry.vlen = static_cast<std::uint16_t>(value.size());
    s.entry.value_line = static_cast<std::uint32_t>(*extent);
    s.entry.seq = next_seq_++;
    if (match) {
      s.old_extent = Extent{match_entry.value_line,
                            value_lines(match_entry.vlen)};
    } else {
      s.insert = true;
      s.insert_into_tombstone = insert_is_tombstone;
    }
    claimed.insert({shard, s.bucket});
    staged.push_back(std::move(s));
  }

  if (staged.size() > config_.txn_ops_capacity) {
    reclaim_staged(staged);
    staged.clear();
    return false;
  }

  // Journal the intent pairs. The status line still reads free, so none
  // of these lines is reachable yet — a crash here loses nothing.
  for (std::size_t i = 0; i < staged.size(); ++i) {
    Line meta{};
    std::memcpy(meta.data(), kMagicMeta, sizeof(kMagicMeta));
    store_le32(meta, 4, static_cast<std::uint32_t>(staged[i].shard));
    store_le64(meta, 8, staged[i].bucket);
    nvm_->write_back(txn_meta_addr(i), meta);
    nvm_->write_back(txn_header_addr(i), encode_header(staged[i].entry));
    stats_.txn_journal_writes += 2;
  }
  return true;
}

void SecureKvStore::apply_staged_headers(
    const std::vector<StagedTxnOp>& staged) {
  for (std::size_t i = 0; i < staged.size(); ++i) {
    const StagedTxnOp& s = staged[i];
    nvm_->write_back(bucket_addr(s.shard, s.bucket), encode_header(s.entry));
    ++stats_.header_writes;
    if (i == 0 && staged.size() > 1) txn_phase(TxnCrashPhase::kMidRedo);
  }
}

void SecureKvStore::apply_staged_bookkeeping(
    const std::vector<StagedTxnOp>& staged) {
  for (const StagedTxnOp& s : staged) {
    if (s.entry.state == kTombstone) {
      free_extent(s.shard, *s.old_extent);
      --shards_[s.shard].live;
      ++shards_[s.shard].tombstones;
      continue;
    }
    if (s.insert) {
      ++shards_[s.shard].live;
      if (s.insert_into_tombstone) --shards_[s.shard].tombstones;
    } else {
      free_extent(s.shard, *s.old_extent);
    }
  }
}

void SecureKvStore::reclaim_staged(const std::vector<StagedTxnOp>& staged) {
  for (const StagedTxnOp& s : staged) {
    if (s.entry.state == kOccupied) {
      free_extent(s.shard, Extent{s.entry.value_line,
                                  value_lines(s.entry.vlen)});
    }
  }
}

void SecureKvStore::release_txn_status() {
  nvm_->write_back(txn_status_addr(), Line{});
  ++stats_.txn_journal_writes;
}

// --- Local transactions ---------------------------------------------------

Txn SecureKvStore::begin_txn() const {
  CCNVM_CHECK_MSG(config_.txn_ops_capacity > 0,
                  "begin_txn on a store built without a txn journal");
  return Txn{};
}

void SecureKvStore::abort_txn(Txn& txn) const { txn.ops_.clear(); }

bool SecureKvStore::commit_txn(Txn& txn) {
  const ShardStateLock lock(shard_serial_);
  CCNVM_CHECK_MSG(config_.txn_ops_capacity > 0,
                  "commit_txn on a store built without a txn journal");
  CCNVM_CHECK_MSG(!prepared_txn_,
                  "commit_txn while a prepared txn is outstanding");
  std::vector<StagedTxnOp> staged;
  if (!stage_txn(txn, staged)) return false;
  txn.ops_.clear();
  if (staged.empty()) return true;  // only erases of absent keys
  txn_phase(TxnCrashPhase::kAfterStage);

  // The txn's single commit point: one status-line write. Before it the
  // journal is unreachable; after it open() redoes every header below.
  const std::uint64_t txn_id = next_seq_++;
  nvm_->write_back(txn_status_addr(),
                   encode_txn_status(kTxnCommitted, txn_id, 0,
                                     static_cast<std::uint32_t>(
                                         staged.size())));
  ++stats_.txn_journal_writes;
  txn_phase(TxnCrashPhase::kAfterStatusFlip);

  apply_staged_headers(staged);
  txn_phase(TxnCrashPhase::kBeforeRelease);
  release_txn_status();
  apply_staged_bookkeeping(staged);
  ++stats_.txn_commits;
  return true;
}

// --- Distributed transactions (the service's 2PC) -------------------------

bool SecureKvStore::prepare_txn(Txn& txn, std::uint64_t txn_id,
                                std::uint32_t coordinator) {
  const ShardStateLock lock(shard_serial_);
  CCNVM_CHECK_MSG(config_.txn_ops_capacity > 0,
                  "prepare_txn on a store built without a txn journal");
  CCNVM_CHECK_MSG(!prepared_txn_,
                  "a second txn prepared before finalize/abort");
  std::vector<StagedTxnOp> staged;
  if (!stage_txn(txn, staged)) return false;
  txn.ops_.clear();
  if (staged.empty()) return true;  // nothing journaled; finalize no-ops
  nvm_->write_back(txn_status_addr(),
                   encode_txn_status(kTxnPrepared, txn_id, coordinator,
                                     static_cast<std::uint32_t>(
                                         staged.size())));
  ++stats_.txn_journal_writes;
  ++stats_.txn_prepares;
  prepared_txn_ = PreparedTxn{txn_id, std::move(staged)};
  txn_phase(TxnCrashPhase::kAfterPrepare);
  return true;
}

void SecureKvStore::decide_txn_commit(std::uint64_t txn_id) {
  CCNVM_CHECK_MSG(config_.txn_ops_capacity > 0,
                  "decide_txn_commit on a store without a txn journal");
  Line commit_record{};
  std::memcpy(commit_record.data(), kMagicDecision, sizeof(kMagicDecision));
  store_le64(commit_record, 8, txn_id);
  nvm_->write_back(txn_decision_addr(), commit_record);
  ++stats_.txn_journal_writes;
  txn_phase(TxnCrashPhase::kAfterDecide);
}

void SecureKvStore::finalize_txn(std::uint64_t txn_id) {
  const ShardStateLock lock(shard_serial_);
  if (!prepared_txn_) return;  // read-only participant or erase-miss-only
  CCNVM_CHECK_MSG(prepared_txn_->id == txn_id,
                  "finalize_txn for a different txn than the prepared one");
  apply_staged_headers(prepared_txn_->ops);
  txn_phase(TxnCrashPhase::kBeforeRelease);
  release_txn_status();
  apply_staged_bookkeeping(prepared_txn_->ops);
  ++stats_.txn_commits;
  prepared_txn_.reset();
}

void SecureKvStore::abort_prepared_txn(std::uint64_t txn_id) {
  const ShardStateLock lock(shard_serial_);
  if (!prepared_txn_) return;
  CCNVM_CHECK_MSG(prepared_txn_->id == txn_id,
                  "abort_prepared_txn for a different txn");
  release_txn_status();
  txn_phase(TxnCrashPhase::kAfterAbortRelease);
  reclaim_staged(prepared_txn_->ops);
  prepared_txn_.reset();
}

std::optional<std::uint64_t> SecureKvStore::last_txn_decision() {
  if (config_.txn_ops_capacity == 0) return std::nullopt;
  const core::ReadResult r = nvm_->read_block(txn_decision_addr());
  CCNVM_CHECK_MSG(r.integrity_ok, "txn decision line failed integrity");
  if (!has_magic(r.plaintext, kMagicDecision)) return std::nullopt;
  return load_le64(r.plaintext, 8);
}

// --- Recovery -------------------------------------------------------------

void SecureKvStore::resolve_txn_journal(const TxnResolver& resolver) {
  const core::ReadResult sr = nvm_->read_block(txn_status_addr());
  CCNVM_CHECK_MSG(sr.integrity_ok, "txn status line failed integrity");
  const Line& s = sr.plaintext;
  if (!has_magic(s, kMagicStatus)) return;  // released / never written
  const std::uint8_t state = s[4];
  if (state == kTxnFree) return;
  CCNVM_CHECK_MSG(state == kTxnPrepared || state == kTxnCommitted,
                  "corrupt txn status state");
  const std::uint64_t txn_id = load_le64(s, 8);
  const std::uint32_t coordinator = load_le32(s, 16);
  const std::uint32_t op_count = load_le32(s, 20);
  CCNVM_CHECK_MSG(op_count <= config_.txn_ops_capacity,
                  "txn journal op count over capacity");

  bool commit = state == kTxnCommitted;
  if (!commit) {
    // Prepared: the coordinator's decision is the truth. Our own decision
    // line answers when we coordinated this txn (a stale decision for an
    // older txn never reaches its id); otherwise the resolver asks the
    // coordinator's store. No affirmative answer means presumed abort.
    commit = decided_commit(txn_id) ||
             (resolver && resolver(txn_id, coordinator));
  }
  if (commit) {
    // Redo: flip every journaled header image into place. Idempotent —
    // a crash mid-redo lands right back here.
    for (std::uint32_t i = 0; i < op_count; ++i) {
      const core::ReadResult mr = nvm_->read_block(txn_meta_addr(i));
      CCNVM_CHECK_MSG(mr.integrity_ok, "txn intent line failed integrity");
      CCNVM_CHECK_MSG(has_magic(mr.plaintext, kMagicMeta),
                      "corrupt txn intent magic");
      const std::uint32_t shard = load_le32(mr.plaintext, 4);
      const std::uint64_t bucket = load_le64(mr.plaintext, 8);
      CCNVM_CHECK_MSG(shard < config_.shards &&
                          bucket < config_.buckets_per_shard,
                      "txn intent references an out-of-range bucket");
      const core::ReadResult hr = nvm_->read_block(txn_header_addr(i));
      CCNVM_CHECK_MSG(hr.integrity_ok,
                      "txn header image failed integrity");
      nvm_->write_back(bucket_addr(shard, bucket), hr.plaintext);
      ++stats_.header_writes;
    }
  }
  // Commit or abort, the journal is done. An aborted txn's staged extents
  // are unreferenced and fall out of the header-derived free list that
  // open() rebuilds right after this.
  release_txn_status();
}

}  // namespace ccnvm::store
