// NVM wear accounting.
//
// The paper motivates write-efficiency with device lifetime ("high memory
// write traffic ... negatively impacts NVM lifetime", §5.2): PCM cells
// endure ~1e8 writes. Two designs with equal total traffic can still age
// a DIMM very differently — strict consistency rewrites the same upper
// Merkle-tree nodes on every write-back, concentrating wear on a handful
// of lines, while epoch batching spreads (and coalesces) those updates.
// WearSummary turns an image's per-line write counts into the metrics
// that matter: the hottest line (which bounds unlevelled lifetime) and
// the traffic split by region.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "nvm/image.h"
#include "nvm/layout.h"

namespace ccnvm::nvm {

struct WearSummary {
  std::uint64_t total_writes = 0;
  std::uint64_t lines_touched = 0;
  std::uint64_t max_line_writes = 0;
  /// The lowest-addressed line among those written max_line_writes times.
  Addr hottest_line = 0;

  // Traffic by region.
  std::uint64_t data_writes = 0;
  std::uint64_t counter_writes = 0;
  std::uint64_t mt_writes = 0;
  std::uint64_t dh_writes = 0;

  // Hottest line per region (0 when the region was never written).
  std::uint64_t max_data = 0;
  std::uint64_t max_counter = 0;
  std::uint64_t max_mt = 0;
  std::uint64_t max_dh = 0;

  double mean_writes_per_touched_line() const {
    return lines_touched == 0 ? 0.0
                              : static_cast<double>(total_writes) /
                                    static_cast<double>(lines_touched);
  }

  /// Wear concentration: hottest line's share relative to a perfectly
  /// level distribution (1.0 = ideally levelled; large = hotspot).
  double imbalance() const {
    const double mean = mean_writes_per_touched_line();
    return mean == 0.0 ? 0.0 : static_cast<double>(max_line_writes) / mean;
  }

  /// Unlevelled device lifetime in "workload repetitions": how many times
  /// this write pattern can repeat before the hottest cell line exceeds
  /// `cell_endurance` writes.
  double lifetime_repetitions(double cell_endurance = 1e8) const {
    return max_line_writes == 0
               ? 0.0
               : cell_endurance / static_cast<double>(max_line_writes);
  }
};

/// Aggregates the per-line wear recorded by `image` (see
/// NvmImage::wear_of), classifying lines by the regions of `layout`.
WearSummary summarize_wear(const NvmImage& image, const NvmLayout& layout);

}  // namespace ccnvm::nvm
