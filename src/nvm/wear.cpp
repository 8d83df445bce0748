#include "nvm/wear.h"

#include <algorithm>

namespace ccnvm::nvm {

WearSummary summarize_wear(const NvmImage& image, const NvmLayout& layout) {
  WearSummary s;
  image.for_each_worn_line([&](Addr addr, std::uint64_t count) {
    s.total_writes += count;
    ++s.lines_touched;
    // Ties go to the lowest address, whatever order the lines come in.
    if (count > s.max_line_writes ||
        (count == s.max_line_writes && addr < s.hottest_line)) {
      s.max_line_writes = count;
      s.hottest_line = addr;
    }
    if (layout.is_data_addr(addr)) {
      s.data_writes += count;
      s.max_data = std::max(s.max_data, count);
    } else if (layout.is_counter_addr(addr)) {
      s.counter_writes += count;
      s.max_counter = std::max(s.max_counter, count);
    } else if (layout.is_mt_addr(addr)) {
      s.mt_writes += count;
      s.max_mt = std::max(s.max_mt, count);
    } else if (layout.is_dh_addr(addr)) {
      s.dh_writes += count;
      s.max_dh = std::max(s.max_dh, count);
    }
  });
  return s;
}

}  // namespace ccnvm::nvm
