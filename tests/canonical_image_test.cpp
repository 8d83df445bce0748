// Canonical image bytes (tests/support/canonical_image.h): equal contents
// give identical bytes whatever the write order or the backend, and a
// multi-page image's bytes are pinned, so any change in how the in-memory
// media or the wear counters store and visit lines shows up here.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "nvm/file_backend.h"
#include "nvm/image.h"
#include "support/canonical_image.h"

namespace ccnvm::nvm {
namespace {

using testsupport::canonical_image_bytes;

Line pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 13 + i);
  }
  return l;
}

/// Per-test-unique path: gtest_discover_tests runs every TEST as its own
/// ctest entry, and `ctest -j` runs them concurrently in one TempDir —
/// shared filenames would race.
std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" + info->test_suite_name() +
         "-" + info->name() + "-" + name;
}

TEST(ImageIoCanonicalTest, WriteOrderDoesNotChangeTheBytes) {
  NvmImage forward;
  forward.write_line(0, pattern_line(1));
  forward.write_line(kLineSize, pattern_line(2));
  forward.write_ecc(0, {1, 1, 1, 1, 1, 1, 1, 1});
  NvmImage reverse;
  reverse.write_ecc(0, {1, 1, 1, 1, 1, 1, 1, 1});
  reverse.write_line(kLineSize, pattern_line(2));
  reverse.write_line(0, pattern_line(1));
  EXPECT_EQ(canonical_image_bytes(forward), canonical_image_bytes(reverse));
}

TEST(ImageIoCanonicalTest, MapAndFileBackendsSerializeIdentically) {
  const std::string dimm = temp_path("canon.dimm");
  NvmImage map_image;
  NvmImage file_image(FileBackend::create(dimm, 64 * kPageSize));
  for (int i = 5; i >= 0; --i) {
    map_image.write_line(static_cast<Addr>(i) * kLineSize, pattern_line(
        static_cast<std::uint64_t>(i)));
    file_image.write_line(static_cast<Addr>(i) * kLineSize, pattern_line(
        static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(canonical_image_bytes(map_image),
            canonical_image_bytes(file_image));
  std::remove(dimm.c_str());
}

TEST(ImageIoCanonicalTest, MultiPageBytesArePinned) {
  // Lines, ECC and wear spread over several 4 KB pages and 2 MB spans,
  // written in neither ascending nor descending order, some lines more
  // than once. The FNV-1a of the canonical bytes (header, every section,
  // every record) pins them against any change in how the in-memory
  // media or the wear counters store and visit them.
  const Addr addrs[] = {(3ull << 21) + 5 * kLineSize,
                        7 * kPageSize + 63 * kLineSize,
                        0,
                        (1ull << 21) + kPageSize,
                        kLineSize,
                        7 * kPageSize,
                        63 * kLineSize,
                        64 * kLineSize,
                        (3ull << 21) + 5 * kLineSize,
                        kLineSize,
                        kLineSize};
  NvmImage image;
  std::uint64_t tag = 0;
  for (const Addr a : addrs) image.write_line(a, pattern_line(++tag));
  image.write_ecc(7 * kPageSize, {9, 8, 7, 6, 5, 4, 3, 2});
  image.write_ecc(kLineSize, {1, 2, 3, 4, 5, 6, 7, 8});
  image.write_ecc((1ull << 21) + kPageSize, {4, 4, 4, 4, 4, 4, 4, 4});

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : canonical_image_bytes(image)) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  EXPECT_EQ(h, 0xb1a0c594ee05054aULL);
}

}  // namespace
}  // namespace ccnvm::nvm
