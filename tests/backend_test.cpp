// nvm::Backend implementations: the in-memory map, the durable mmap
// file backend, and the fault-injecting wrapper — plus NvmImage's
// behavior when constructed over each.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/persistence.h"
#include "nvm/backend.h"
#include "nvm/file_backend.h"
#include "nvm/image.h"

namespace ccnvm::nvm {
namespace {

Line pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 11 + i);
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

TEST(MapBackendTest, ReadWriteEccRegisters) {
  MapBackend b;
  EXPECT_EQ(b.populated_lines(), 0u);
  Line out;
  EXPECT_FALSE(b.read_line(0x40, out));

  b.write_line(0x40, pattern_line(1));
  ASSERT_TRUE(b.read_line(0x40, out));
  EXPECT_EQ(out, pattern_line(1));
  EXPECT_TRUE(b.has_line(0x40));
  EXPECT_EQ(b.populated_lines(), 1u);

  const EccBytes ecc{1, 2, 3, 4, 5, 6, 7, 8};
  b.write_ecc(0x40, ecc);
  EccBytes got{};
  ASSERT_TRUE(b.read_ecc(0x40, got));
  EXPECT_EQ(got, ecc);

  const std::uint8_t regs[3] = {9, 8, 7};
  b.store_registers(regs, sizeof(regs));
  std::uint8_t loaded[Backend::kRegisterCapacity];
  EXPECT_EQ(b.load_registers(loaded, sizeof(loaded)), 3u);
  EXPECT_EQ(loaded[0], 9);
  EXPECT_EQ(loaded[2], 7);
}

TEST(MapBackendTest, VisitsAscendingAcrossPagesAndSpans) {
  // Out-of-order writes over one page, a neighbouring page, a far 2 MB
  // span and a sub-line address; a rewrite must not add a line.
  MapBackend b;
  const Addr addrs[] = {(5ull << 21) + 0x80, 0x1040, 0xfc0, 0x40,
                        0x1040,              0x0,    0x7c5};
  std::uint64_t tag = 0;
  for (const Addr a : addrs) b.write_line(a, pattern_line(++tag));
  b.write_ecc(0x1040, {1, 1, 1, 1, 1, 1, 1, 1});
  b.write_ecc(0x0, {2, 2, 2, 2, 2, 2, 2, 2});

  std::vector<Addr> seen;
  b.for_each_line([&](Addr a, const Line&) { seen.push_back(a); });
  EXPECT_EQ(seen, (std::vector<Addr>{0x0, 0x40, 0x7c0, 0xfc0, 0x1040,
                                     (5ull << 21) + 0x80}));
  EXPECT_EQ(b.populated_lines(), 6u);
  Line out;
  ASSERT_TRUE(b.read_line(0x1040, out));
  EXPECT_EQ(out, pattern_line(5)) << "the later write wins";
  ASSERT_TRUE(b.read_line(0x7c0, out));
  EXPECT_EQ(out, pattern_line(7)) << "sub-line address names its line";
  EXPECT_FALSE(b.has_line(0x80));
  EXPECT_FALSE(b.has_line(4ull << 21));
  EXPECT_FALSE(b.has_ecc(0x40));

  seen.clear();
  b.for_each_ecc([&](Addr a, const EccBytes&) { seen.push_back(a); });
  EXPECT_EQ(seen, (std::vector<Addr>{0x0, 0x1040}));
}

TEST(MapBackendTest, CloneIsIndependent) {
  MapBackend b;
  b.write_line(0x40, pattern_line(1));
  b.write_ecc(0x40, {3, 3, 3, 3, 3, 3, 3, 3});
  const std::unique_ptr<Backend> copy = b.clone();
  b.write_line(0x40, pattern_line(2));
  b.write_line(0x80, pattern_line(3));
  Line out;
  ASSERT_TRUE(copy->read_line(0x40, out));
  EXPECT_EQ(out, pattern_line(1));
  EXPECT_FALSE(copy->has_line(0x80));
  EXPECT_EQ(copy->populated_lines(), 1u);
  EXPECT_TRUE(copy->has_ecc(0x40));
}

TEST(FileBackendTest, CreateWriteReopenReadsBack) {
  const std::string path = temp_path("backend.dimm");
  {
    auto b = FileBackend::create(path, 64 * kPageSize);
    ASSERT_NE(b, nullptr);
    b->write_line(0, pattern_line(1));
    b->write_line(5 * kLineSize, pattern_line(2));
    b->write_ecc(5 * kLineSize, {8, 7, 6, 5, 4, 3, 2, 1});
    const std::uint8_t regs[5] = {1, 2, 3, 4, 5};
    b->store_registers(regs, sizeof(regs));
    b->persist_barrier();
  }  // close: everything must come back from the file alone

  auto r = FileBackend::open(path);
  ASSERT_NE(r, nullptr);
  Line out;
  ASSERT_TRUE(r->read_line(0, out));
  EXPECT_EQ(out, pattern_line(1));
  ASSERT_TRUE(r->read_line(5 * kLineSize, out));
  EXPECT_EQ(out, pattern_line(2));
  EXPECT_FALSE(r->read_line(kLineSize, out));  // never written
  EXPECT_EQ(r->populated_lines(), 2u);
  EccBytes ecc{};
  ASSERT_TRUE(r->read_ecc(5 * kLineSize, ecc));
  EXPECT_EQ(ecc, (EccBytes{8, 7, 6, 5, 4, 3, 2, 1}));
  std::uint8_t regs[Backend::kRegisterCapacity];
  ASSERT_EQ(r->load_registers(regs, sizeof(regs)), 5u);
  EXPECT_EQ(regs[4], 5);
  std::remove(path.c_str());
}

/// The bit-at-a-time population count the open() path used to run, over
/// the bitmap bytes covering `slots` (trailing partial byte included).
std::size_t bit_loop_count(const std::vector<std::uint8_t>& bm,
                           std::uint64_t slots) {
  std::size_t count = 0;
  for (std::uint64_t byte = 0; byte < (slots + 7) / 8; ++byte) {
    for (std::uint8_t v = bm[byte]; v != 0; v >>= 1) count += v & 1;
  }
  return count;
}

TEST(FileBackendTest, ReopenCountsMatchTheBitLoopOnAPartialTrailingByte) {
  // 77 lines: the presence bitmaps end in a byte with 5 live bits, and
  // slot 76 (the last) sits in it. Populated slots straddle the 64-bit
  // word boundary the word-wide count steps over.
  constexpr std::uint64_t kLines = 77;
  const std::string path = temp_path("partial.dimm");
  const std::vector<std::uint64_t> lines = {0, 7, 8, 62, 63, 64, 65, 71, 72, 76};
  const std::vector<std::uint64_t> eccs = {1, 63, 64, 76};
  {
    auto b = FileBackend::create(path, kLines * kLineSize);
    ASSERT_NE(b, nullptr);
    for (const std::uint64_t slot : lines) {
      b->write_line(slot * kLineSize, pattern_line(slot));
    }
    for (const std::uint64_t slot : eccs) {
      b->write_ecc(slot * kLineSize, {1, 2, 3, 4, 5, 6, 7, 8});
    }
    b->persist_barrier();
  }
  // Image layout (file_backend.cpp): a 4 KiB header, then the line and
  // the ECC presence bitmaps, each padded to 4 KiB.
  constexpr std::size_t kHeader = 4096;
  constexpr std::size_t kBitmap = 4096;
  std::vector<std::uint8_t> raw(kHeader + 2 * kBitmap);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(raw.data(), 1, raw.size(), f), raw.size());
    std::fclose(f);
  }
  const std::vector<std::uint8_t> line_bm(raw.begin() + kHeader,
                                          raw.begin() + kHeader + kBitmap);
  const std::vector<std::uint8_t> ecc_bm(raw.begin() + kHeader + kBitmap,
                                         raw.end());

  auto r = FileBackend::open(path);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->populated_lines(), bit_loop_count(line_bm, kLines));
  EXPECT_EQ(r->populated_lines(), lines.size());
  std::size_t ecc_seen = 0;
  r->for_each_ecc([&](Addr, const EccBytes&) { ++ecc_seen; });
  EXPECT_EQ(ecc_seen, bit_loop_count(ecc_bm, kLines));
  EXPECT_EQ(ecc_seen, eccs.size());
  std::remove(path.c_str());
}

TEST(FileBackendTest, BarrierSyncModeRoundTripsThroughTheBarrier) {
  // kBarrier (the service layer's group-commit mode): the whole mapping
  // is msync'ed at persist_barrier() and register stores don't flush on
  // their own — everything written before the barrier must still read
  // back from the reopened file.
  const std::string path = temp_path("barrier.dimm");
  {
    auto b = FileBackend::create(path, 64 * kPageSize,
                                 FileBackend::SyncMode::kBarrier);
    ASSERT_NE(b, nullptr);
    b->write_line(0, pattern_line(7));
    b->write_line(9 * kLineSize, pattern_line(8));
    const std::uint8_t regs[4] = {4, 3, 2, 1};
    b->store_registers(regs, sizeof(regs));
    b->persist_barrier();  // the one flush covering all of the above
  }
  auto r = FileBackend::open(path);
  ASSERT_NE(r, nullptr);
  Line out;
  ASSERT_TRUE(r->read_line(0, out));
  EXPECT_EQ(out, pattern_line(7));
  ASSERT_TRUE(r->read_line(9 * kLineSize, out));
  EXPECT_EQ(out, pattern_line(8));
  std::uint8_t regs[Backend::kRegisterCapacity];
  ASSERT_EQ(r->load_registers(regs, sizeof(regs)), 4u);
  EXPECT_EQ(regs[0], 4);
  EXPECT_EQ(regs[3], 1);
  std::remove(path.c_str());
}

TEST(FileBackendTest, OpenRejectsGarbageAndMissingFiles) {
  EXPECT_EQ(FileBackend::open(temp_path("nope.dimm")), nullptr);
  const std::string path = temp_path("garbage.dimm");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a dimm image header here", f);
    std::fclose(f);
  }
  EXPECT_EQ(FileBackend::open(path), nullptr);
  std::remove(path.c_str());
}

/// A 20 480-byte DIMM file (64 lines) whose register slot holds a valid
/// TCB blob, so open_dimm accepts it until a test spoils its header.
std::string valid_small_dimm(const char* name) {
  const std::string path = temp_path(name);
  auto b = FileBackend::create(path, 64 * kLineSize);
  b->write_line(0, pattern_line(1));
  const core::TcbBlob blob = core::encode_tcb(core::TcbRegisters{});
  b->store_registers(blob.data(), blob.size());
  return path;
}

/// Overwrites the little-endian header word at `offset` of the DIMM file
/// (layout in file_backend.cpp), as an adversary with the file could.
void poke_header_word(const std::string& path, long offset,
                      std::uint64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, sizeof(bytes), f), sizeof(bytes));
  std::fclose(f);
}

TEST(FileBackendTest, OpenRejectsACapacityThatWrapsTheMapSize) {
  const std::string path = valid_small_dimm("wrap.dimm");
  ASSERT_EQ(std::filesystem::file_size(path), 20480u);
  ASSERT_TRUE(core::open_dimm(path).has_value());
  // 0x4a6886a4c2e10000 lines: the slot arithmetic wraps the mapping size
  // to exactly this file's 20 480 bytes, so only a bound on the capacity
  // itself keeps open() from reading bitmaps far past the mapping.
  poke_header_word(path, 16, 5361683398586859520ull);
  EXPECT_EQ(FileBackend::open(path), nullptr);
  EXPECT_FALSE(core::open_dimm(path).has_value());
  std::remove(path.c_str());
}

TEST(FileBackendTest, OpenRejectsAnOversizedRegisterLength) {
  const std::string path = valid_small_dimm("reglen.dimm");
  ASSERT_TRUE(core::open_dimm(path).has_value());
  poke_header_word(path, 40, 1ull << 40);
  EXPECT_EQ(FileBackend::open(path), nullptr);
  EXPECT_FALSE(core::open_dimm(path).has_value());
  std::remove(path.c_str());
}

TEST(FileBackendTest, CloneIsVolatileAndIndependent) {
  const std::string path = temp_path("clone.dimm");
  auto b = FileBackend::create(path, 64 * kPageSize);
  ASSERT_NE(b, nullptr);
  b->write_line(0, pattern_line(3));
  auto c = b->clone();
  ASSERT_NE(c, nullptr);
  Line out;
  ASSERT_TRUE(c->read_line(0, out));
  EXPECT_EQ(out, pattern_line(3));
  // Mutating the clone must not reach the file.
  c->write_line(0, pattern_line(4));
  ASSERT_TRUE(b->read_line(0, out));
  EXPECT_EQ(out, pattern_line(3));
  std::remove(path.c_str());
}

TEST(FaultInjectingBackendTest, TornLineMixesOldAndNewHalves) {
  FaultInjectingBackend::FaultConfig cfg;
  cfg.seed = 7;
  cfg.torn_line_rate = 1.0;  // every write tears
  FaultInjectingBackend b(std::make_unique<MapBackend>(), cfg);
  b.write_line(0, pattern_line(1));  // torn over zeroes
  Line out;
  ASSERT_TRUE(b.read_line(0, out));
  const Line fresh = pattern_line(1);
  for (std::size_t i = 0; i < kLineSize / 2; ++i) EXPECT_EQ(out[i], fresh[i]);
  for (std::size_t i = kLineSize / 2; i < kLineSize; ++i) EXPECT_EQ(out[i], 0);
  EXPECT_GE(b.counters().torn_lines, 1u);
}

TEST(FaultInjectingBackendTest, ReadEioAndDroppedWritesCount) {
  FaultInjectingBackend::FaultConfig cfg;
  cfg.seed = 7;
  cfg.dropped_write_rate = 1.0;
  FaultInjectingBackend b(std::make_unique<MapBackend>(), cfg);
  b.write_line(0, pattern_line(1));
  Line out;
  EXPECT_FALSE(b.read_line(0, out));  // write never reached the inner map
  EXPECT_GE(b.counters().dropped_writes, 1u);

  FaultInjectingBackend::FaultConfig eio;
  eio.seed = 7;
  eio.read_eio_rate = 1.0;
  FaultInjectingBackend e(std::make_unique<MapBackend>(), eio);
  e.write_line(0, pattern_line(1));
  EXPECT_FALSE(e.read_line(0, out));  // present, but the read errors
  EXPECT_TRUE(e.has_line(0));
  EXPECT_GE(e.counters().read_eios, 1u);
}

TEST(NvmImageBackendTest, FileBackedImageCopiesToVolatileSnapshot) {
  const std::string path = temp_path("image.dimm");
  NvmImage image(FileBackend::create(path, 64 * kPageSize));
  image.write_line(0, pattern_line(5));
  image.persist_barrier();

  // snapshot() deep-copies through clone(): volatile, detached.
  NvmImage snap = image.snapshot();
  snap.write_line(0, pattern_line(6));
  EXPECT_EQ(image.read_line(0), pattern_line(5));
  EXPECT_EQ(snap.read_line(0), pattern_line(6));
  EXPECT_EQ(image.wear_of(0), 1u);
  std::remove(path.c_str());
}

TEST(NvmImageBackendTest, RegisterMirrorRoundTripsTcb) {
  const std::string path = temp_path("regs.dimm");
  {
    NvmImage image(FileBackend::create(path, 64 * kPageSize));
    core::TcbRegisters tcb;
    tcb.n_wb = 42;
    tcb.root_new = pattern_line(1);
    tcb.root_old = pattern_line(2);
    const core::TcbBlob blob = core::encode_tcb(tcb);
    image.store_registers(blob.data(), blob.size());
  }
  const std::optional<core::PoweredDown> reopened = core::open_dimm(path);
  ASSERT_TRUE(reopened.has_value());
  const core::TcbRegisters& tcb = reopened->tcb;
  EXPECT_EQ(tcb.n_wb, 42u);
  EXPECT_EQ(tcb.root_new, pattern_line(1));
  EXPECT_EQ(tcb.root_old, pattern_line(2));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccnvm::nvm
