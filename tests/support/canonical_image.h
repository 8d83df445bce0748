// The canonical byte stream of an NVM image, built in memory: two images
// serialize to the same bytes exactly when their lines, ECC side band and
// wear counters agree, whatever backend holds them and in whatever order
// they were written. Tests diff or hash these bytes to pin media contents.
//
// Layout (little-endian; every section ascending by address, the order
// every backend and the wear counters visit in):
//   [8B magic "CCNVMIMG"][4B version = 1]
//   [8B line count]    count x { 8B addr, 64B data }
//   [8B ecc count]     count x { 8B addr, 8B ecc }
//   [8B wear count]    count x { 8B addr, 8B writes }
#pragma once

#include <cstdint>
#include <vector>

#include "nvm/image.h"

namespace ccnvm::testsupport {

inline void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline std::vector<std::uint8_t> canonical_image_bytes(
    const nvm::NvmImage& image) {
  std::vector<std::uint8_t> out = {'C', 'C', 'N', 'V', 'M', 'I',
                                   'M', 'G', 1,   0,   0,   0};
  // Each section's records are staged so its count can lead them.
  std::vector<std::uint8_t> records;
  std::uint64_t count = 0;
  const auto close_section = [&] {
    put_le64(out, count);
    out.insert(out.end(), records.begin(), records.end());
    records.clear();
    count = 0;
  };
  image.for_each_line([&](Addr addr, const Line& value) {
    put_le64(records, addr);
    records.insert(records.end(), value.begin(), value.end());
    ++count;
  });
  close_section();
  image.for_each_ecc([&](Addr addr, const nvm::EccBytes& ecc) {
    put_le64(records, addr);
    records.insert(records.end(), ecc.begin(), ecc.end());
    ++count;
  });
  close_section();
  image.for_each_worn_line([&](Addr addr, std::uint64_t writes) {
    put_le64(records, addr);
    put_le64(records, writes);
    ++count;
  });
  close_section();
  return out;
}

}  // namespace ccnvm::testsupport
