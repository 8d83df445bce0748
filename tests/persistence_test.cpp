// Host power cycling through the DIMM file: a secure NVM run on a
// FileBackend file and powered back up with core::open_dimm into a
// brand-new design must recover and serve every committed (and
// ADR-covered) write, and open_dimm must refuse a file whose register
// slot does not hold a valid TCB blob.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "core/cc_nvm.h"
#include "core/persistence.h"
#include "nvm/file_backend.h"

namespace ccnvm::core {
namespace {

Line pattern_line(std::uint64_t tag) {
  Line l{};
  for (std::size_t i = 0; i < kLineSize; ++i) {
    l[i] = static_cast<std::uint8_t>(tag * 5 + i);
  }
  return l;
}

DesignConfig small_config() {
  DesignConfig c;
  c.data_capacity = 64 * kPageSize;
  c.key_seed = 0xabcd;
  return c;
}

/// small_config() formatting a fresh DIMM file at `path`: life 1.
DesignConfig dimm_config(const std::string& path) {
  DesignConfig c = small_config();
  c.backend_factory = [path](std::uint64_t bytes) {
    return nvm::FileBackend::create(path, bytes);
  };
  return c;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Life 2: powers the DIMM file up into a fresh small_config() design.
/// Returns false if open_dimm refuses the file.
bool power_up(const std::string& path, SecureNvmBase& design) {
  std::optional<PoweredDown> dimm = open_dimm(path);
  if (!dimm) return false;
  design.restore_from_power_down(std::move(dimm->image), dimm->tcb);
  return true;
}

TEST(ImageIoTest, RoundTripPreservesEverything) {
  const std::string path = temp_path("img.dimm");
  Line a;
  a.fill(7);
  {
    nvm::NvmImage image(nvm::FileBackend::create(path, 64 * kPageSize));
    image.write_line(0x40, a);
    image.write_line(0x40, a);
    image.write_ecc(0x40, {1, 2, 3, 4, 5, 6, 7, 8});
    const TcbBlob blob = encode_tcb(TcbRegisters{});
    image.store_registers(blob.data(), blob.size());
  }
  std::optional<PoweredDown> loaded = open_dimm(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->image.read_line(0x40), a);
  EXPECT_EQ(loaded->image.read_ecc(0x40),
            (std::array<std::uint8_t, 8>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(loaded->image.populated_lines(), 1u);
  std::remove(path.c_str());
}

TEST(ImageIoTest, MissingAndCorruptFilesFail) {
  EXPECT_FALSE(open_dimm(temp_path("nope.bin")).has_value());
  const std::string path = temp_path("garbage.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an image", f);
    std::fclose(f);
  }
  EXPECT_FALSE(open_dimm(path).has_value());
  std::remove(path.c_str());
}

TEST(PersistenceTest, PowerCycleRoundTrip) {
  const std::string path = temp_path("dimm.img");
  // Life 1 on the DIMM file: write, commit some epochs, lose power
  // mid-epoch. The file is the DIMM, so there is nothing to save.
  {
    CcNvmDesign design(dimm_config(path), /*deferred_spreading=*/true);
    for (std::uint64_t i = 0; i < 30; ++i) {
      design.write_back(i * kLineSize, pattern_line(i));
    }
    design.force_drain();
    design.write_back(5 * kLineSize, pattern_line(500));  // uncommitted
    design.crash_power_loss();
  }
  // Life 2: a fresh machine with the same keys.
  {
    CcNvmDesign design(small_config(), /*deferred_spreading=*/true);
    ASSERT_TRUE(power_up(path, design));
    const RecoveryReport report = design.recover();
    ASSERT_TRUE(report.clean) << report.detail;
    EXPECT_EQ(design.read_block(5 * kLineSize).plaintext, pattern_line(500))
        << "the uncommitted write survives via ADR + counter recovery";
    for (std::uint64_t i = 0; i < 30; ++i) {
      if (i == 5) continue;
      EXPECT_EQ(design.read_block(i * kLineSize).plaintext, pattern_line(i));
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, WrongKeysCannotAuthenticate) {
  const std::string path = temp_path("dimm2.img");
  {
    CcNvmDesign design(dimm_config(path), true);
    design.write_back(0, pattern_line(1));
    design.quiesce();
    design.crash_power_loss();
  }
  {
    DesignConfig cfg = small_config();
    cfg.key_seed = 0x9999;  // different TCB fuses
    CcNvmDesign design(cfg, true);
    ASSERT_TRUE(power_up(path, design));
    const RecoveryReport report = design.recover();
    EXPECT_FALSE(report.clean)
        << "an image under foreign keys must not verify";
  }
  std::remove(path.c_str());
}

// The battery-backed TCB registers must survive the power cycle exactly —
// recovery's ROOT_old/ROOT_new/N_wb reasoning is only sound if the DIMM
// file's register slot is bit-faithful at *every* point the drain can die.
class DrainCrashPersistenceTest
    : public ::testing::TestWithParam<DrainCrashPoint> {};

TEST_P(DrainCrashPersistenceTest, TcbRegistersSurviveThePowerCycle) {
  // ctest runs each instantiation as its own process; the image file must
  // be unique per crash point or parallel runs trample each other.
  const std::string path =
      temp_path("tcb_cycle.img") +
      std::to_string(static_cast<int>(GetParam()));
  TcbRegisters saved;
  {
    CcNvmDesign design(dimm_config(path), /*deferred_spreading=*/true);
    for (std::uint64_t i = 0; i < 24; ++i) {
      design.write_back(i * kLineSize, pattern_line(i));
    }
    design.drain_and_crash(GetParam());
    saved = design.tcb();
  }
  {
    CcNvmDesign design(small_config(), /*deferred_spreading=*/true);
    ASSERT_TRUE(power_up(path, design));
    EXPECT_EQ(design.tcb().root_old, saved.root_old);
    EXPECT_EQ(design.tcb().root_new, saved.root_new);
    EXPECT_EQ(design.tcb().n_wb, saved.n_wb);
    EXPECT_EQ(design.tcb().overflow_pending, saved.overflow_pending);
    EXPECT_EQ(design.tcb().overflow_leaf, saved.overflow_leaf);
    const RecoveryReport report = design.recover();
    ASSERT_TRUE(report.clean) << report.detail;
    for (std::uint64_t i = 0; i < 24; ++i) {
      const ReadResult r = design.read_block(i * kLineSize);
      EXPECT_TRUE(r.integrity_ok);
      EXPECT_EQ(r.plaintext, pattern_line(i));
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, DrainCrashPersistenceTest,
    ::testing::Values(DrainCrashPoint::kMidBatch,
                      DrainCrashPoint::kAfterBatchBeforeEnd,
                      DrainCrashPoint::kAfterEndBeforeCommit),
    [](const auto& info) {
      switch (info.param) {
        case DrainCrashPoint::kNone: return "None";
        case DrainCrashPoint::kMidBatch: return "MidBatch";
        case DrainCrashPoint::kAfterBatchBeforeEnd:
          return "AfterBatchBeforeEnd";
        case DrainCrashPoint::kAfterEndBeforeCommit:
          return "AfterEndBeforeCommit";
      }
      return "unknown";
    });

// Runs a crashed design on the DIMM file at `path`, then lets `spoil`
// damage the file's register slot; open_dimm must refuse rather than feed
// recovery a half-read register file.
void expect_open_rejects(
    const char* name, const std::function<void(nvm::FileBackend&)>& spoil) {
  const std::string path = temp_path(name);
  {
    CcNvmDesign design(dimm_config(path), true);
    design.write_back(0, pattern_line(1));
    design.quiesce();
    design.crash_power_loss();
  }
  {
    auto file = nvm::FileBackend::open(path);
    ASSERT_NE(file, nullptr);
    spoil(*file);
  }
  EXPECT_FALSE(open_dimm(path).has_value());
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncatedTcbFileFails) {
  expect_open_rejects("trunc.img", [](nvm::FileBackend& file) {
    const TcbBlob blob = encode_tcb(TcbRegisters{});
    file.store_registers(blob.data(), 4);  // valid prefix, far too short
  });
}

TEST(PersistenceTest, CorruptTcbMagicFails) {
  expect_open_rejects("badmagic.img", [](nvm::FileBackend& file) {
    TcbBlob blob;
    ASSERT_EQ(file.load_registers(blob.data(), blob.size()), blob.size());
    blob[2 * kLineSize + 8] = 2;  // the overflow flag byte: neither 0 nor 1
    file.store_registers(blob.data(), blob.size());
  });
}

TEST(PersistenceTest, MissingTcbFileFails) {
  // A DIMM file whose register slot was never written.
  const std::string path = temp_path("notcb.img");
  {
    nvm::NvmImage image(nvm::FileBackend::create(path, 64 * kPageSize));
    image.write_line(0, pattern_line(1));
  }
  EXPECT_FALSE(open_dimm(path).has_value());
  std::remove(path.c_str());
}

TEST(PersistenceTest, OrderlyShutdownNeedsZeroRetries) {
  const std::string path = temp_path("dimm3.img");
  {
    CcNvmDesign design(dimm_config(path), true);
    for (std::uint64_t i = 0; i < 10; ++i) {
      design.write_back(i * kLineSize, pattern_line(i));
    }
    design.quiesce();  // orderly: commit the epoch before pulling power
    design.crash_power_loss();
  }
  {
    CcNvmDesign design(small_config(), true);
    ASSERT_TRUE(power_up(path, design));
    const RecoveryReport report = design.recover();
    ASSERT_TRUE(report.clean);
    EXPECT_EQ(report.total_retries, 0u)
        << "a committed epoch leaves nothing to brute-force";
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccnvm::core
