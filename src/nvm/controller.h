// Memory controller with an ADR-protected write pending queue (WPQ).
//
// ADR (Asynchronous DRAM Refresh) guarantees that whatever sits in the WPQ
// at power-failure time is flushed to media on backup power. cc-NVM builds
// its atomic drain on top of that guarantee (§4.2):
//
//   * Normal writes (data blocks, data HMACs) flow through the WPQ in
//     legacy mode — they always persist.
//   * Metadata written during a drain is enqueued between a `start` and an
//     `end` signal. If the system dies before `end` arrives, the
//     controller drops the batch, leaving the old (consistent) Merkle
//     tree in NVM. If it dies after `end`, ADR completes the batch, so the
//     new (also consistent) tree lands in NVM.
//
// The controller also carries the write-traffic accounting the paper
// reports in Figure 5(b), broken down by line kind.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/line_index.h"
#include "common/types.h"
#include "nvm/image.h"

namespace ccnvm::nvm {

/// What a written line is, for traffic accounting and batch semantics.
enum class LineKind : std::uint8_t { kData, kCounter, kMtNode, kDataHmac };

struct TrafficStats {
  std::uint64_t data_writes = 0;
  std::uint64_t counter_writes = 0;
  std::uint64_t mt_writes = 0;
  std::uint64_t dh_writes = 0;
  std::uint64_t reads = 0;

  std::uint64_t total_writes() const {
    return data_writes + counter_writes + mt_writes + dh_writes;
  }
};

class MemoryController {
 public:
  static constexpr std::size_t kDefaultWpqEntries = 64;

  explicit MemoryController(NvmImage& image,
                            std::size_t wpq_entries = kDefaultWpqEntries)
      : image_(&image), wpq_entries_(wpq_entries), batch_index_(wpq_entries) {
    batch_.reserve(wpq_entries);
  }

  /// Legacy-mode write: persists immediately under the ADR guarantee.
  void write(Addr addr, const Line& value, LineKind kind);

  /// Read path (functional; latency is the timing layer's concern).
  Line read(Addr addr);

  std::size_t wpq_capacity() const { return wpq_entries_; }

  // --- Atomic drain protocol -------------------------------------------

  /// Drainer's `start` signal: subsequent metadata writes are buffered in
  /// the WPQ instead of hitting media.
  void begin_atomic_batch();

  /// Enqueues one metadata line into the open batch. Returns false (and
  /// writes nothing) if the WPQ is full — the Drainer sizes its dirty
  /// address queue so this cannot happen in a correct configuration.
  bool batch_write(Addr addr, const Line& value, LineKind kind);

  /// Drainer's `end` signal: the batch is committed; ADR guarantees it
  /// reaches media even across a power failure, so we persist it now.
  /// Every buffered line must be flushed AND barriered before this
  /// returns — nvlint check N1 enforces it.
  CCNVM_REQUIRES_BARRIER void end_atomic_batch();

  bool batch_open() const { return batch_open_; }
  std::size_t batch_size() const { return batch_.size(); }

  // --- Crash modelling ---------------------------------------------------

  /// Power failure: ADR flushes legacy writes (already persisted in this
  /// model) and any *committed* batch, but an open batch is dropped whole.
  /// Returns the number of dropped lines.
  std::size_t crash();

  const TrafficStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TrafficStats{}; }

 private:
  struct PendingWrite {
    Addr addr;
    Line value;
    LineKind kind;
  };

  void account_write(LineKind kind);

  NvmImage* image_;
  std::size_t wpq_entries_;
  std::vector<PendingWrite> batch_;  // insertion order = media order
  LineIndex batch_index_;            // line -> position in batch_
  bool batch_open_ = false;
  TrafficStats stats_;
};

}  // namespace ccnvm::nvm
