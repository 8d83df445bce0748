// image_io hardening: canonical byte-identical serialization, the
// crash-safe temp+fsync+rename commit, and the strong load guarantee
// against a corrupted file (truncated header, bad magic, short records,
// misaligned addresses, trailing garbage). A bit-flipped *payload* still
// loads — detecting that is the integrity tree's job, not the parser's.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "nvm/file_backend.h"
#include "nvm/image.h"
#include "nvm/image_io.h"

namespace ccnvm::nvm {
namespace {

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

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// A small populated image used across the corruption cases.
NvmImage sample_image() {
  NvmImage image;
  image.write_line(2 * kLineSize, pattern_line(7));
  image.write_line(0, pattern_line(3));
  image.write_ecc(0, {1, 2, 3, 4, 5, 6, 7, 8});
  return image;
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

  const std::string a = temp_path("fwd.img");
  const std::string b = temp_path("rev.img");
  ASSERT_TRUE(save_image(a, forward));
  ASSERT_TRUE(save_image(b, reverse));
  EXPECT_EQ(slurp(a), slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
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
  const std::string a = temp_path("map.img");
  const std::string b = temp_path("file.img");
  ASSERT_TRUE(save_image(a, map_image));
  ASSERT_TRUE(save_image(b, file_image));
  EXPECT_EQ(slurp(a), slurp(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(dimm.c_str());
}

TEST(ImageIoCanonicalTest, MultiPageBytesArePinned) {
  // Lines, ECC and wear spread over several 4 KB pages and 2 MB spans,
  // written in neither ascending nor descending order, some lines more
  // than once. The FNV-1a of the saved file pins the canonical bytes
  // (header, every section, every record) against any change in how
  // the in-memory media or the wear counters store and visit them.
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

  const std::string path = temp_path("pinned.img");
  ASSERT_TRUE(save_image(path, image));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : slurp(path)) h = (h ^ b) * 0x100000001b3ULL;
  EXPECT_EQ(h, 0xb1a0c594ee05054aULL);
  std::remove(path.c_str());
}

TEST(ImageIoCommitTest, SaveLeavesNoTempFileBehind) {
  const std::string path = temp_path("commit.img");
  ASSERT_TRUE(save_image(path, sample_image()));
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(ImageIoCommitTest, SaveOverwritesAtomically) {
  const std::string path = temp_path("overwrite.img");
  ASSERT_TRUE(save_image(path, sample_image()));
  NvmImage bigger = sample_image();
  bigger.write_line(9 * kLineSize, pattern_line(9));
  ASSERT_TRUE(save_image(path, bigger));
  NvmImage loaded;
  ASSERT_TRUE(load_image(path, loaded));
  EXPECT_EQ(loaded.read_line(9 * kLineSize), pattern_line(9));
  std::remove(path.c_str());
}

class ImageIoCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("corrupt.img");
    ASSERT_TRUE(save_image(path_, sample_image()));
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), 24u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the file with `bytes` and expects load_image to reject it
  /// without touching the destination image.
  void expect_rejected(const std::vector<std::uint8_t>& bytes) {
    spit(path_, bytes);
    NvmImage image;
    image.write_line(0x1000, pattern_line(42));  // sentinel
    EXPECT_FALSE(load_image(path_, image));
    // Strong guarantee: the failed load never mutated the image.
    EXPECT_EQ(image.populated_lines(), 1u);
    EXPECT_EQ(image.read_line(0x1000), pattern_line(42));
  }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(ImageIoCorruptionTest, TruncatedHeader) {
  expect_rejected({bytes_.begin(), bytes_.begin() + 6});
}

TEST_F(ImageIoCorruptionTest, BadMagic) {
  auto bad = bytes_;
  bad[0] ^= 0xff;
  expect_rejected(bad);
}

TEST_F(ImageIoCorruptionTest, UnknownVersion) {
  auto bad = bytes_;
  bad[8] = 99;
  expect_rejected(bad);
}

TEST_F(ImageIoCorruptionTest, ShortLineRecord) {
  // Cut the file mid-record: inside the first line's 64-byte payload.
  expect_rejected({bytes_.begin(), bytes_.begin() + 12 + 8 + 8 + 10});
}

TEST_F(ImageIoCorruptionTest, MisalignedLineAddress) {
  auto bad = bytes_;
  bad[20] = 0x03;  // low byte of the first record's address: not line-aligned
  expect_rejected(bad);
}

TEST_F(ImageIoCorruptionTest, CountLargerThanFile) {
  auto bad = bytes_;
  bad[12] = 0xff;  // line count low byte: promises 255 records
  expect_rejected(bad);
}

TEST_F(ImageIoCorruptionTest, TrailingGarbage) {
  auto bad = bytes_;
  bad.push_back(0x00);
  expect_rejected(bad);
}

TEST_F(ImageIoCorruptionTest, BitFlippedPayloadLoadsButDiffers) {
  // A flipped bit inside a line payload is indistinguishable from honest
  // data at the serialization layer — the file parses, and the damage
  // must surface as a different line (for the integrity machinery, not
  // the parser, to catch).
  auto bad = bytes_;
  bad[12 + 8 + 8 + 5] ^= 0x10;  // 6th byte of the first line payload
  spit(path_, bad);
  NvmImage image;
  ASSERT_TRUE(load_image(path_, image));
  EXPECT_EQ(image.populated_lines(), 2u);
  EXPECT_NE(image.read_line(0), pattern_line(3));
}

}  // namespace
}  // namespace ccnvm::nvm
