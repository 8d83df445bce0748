// Backend equivalence: the same deterministic workload driven over a
// map-backed and a file-backed design must leave bit-identical NVM
// contents (canonical image bytes) and identical audit/fuzz
// digests. This is what lets every in-process test vouch for the durable
// path and vice versa.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "audit/sweep_shape.h"
#include "core/design.h"
#include "fuzz/fuzz.h"
#include "nvm/file_backend.h"
#include "store/ycsb_runner.h"
#include "support/canonical_image.h"
#include "trace/ycsb.h"

namespace ccnvm {
namespace {

/// Per-test-unique path: gtest_discover_tests runs every TEST as its own
/// ctest entry, and `ctest -j` runs them concurrently in one TempDir —
/// shared filenames would race.
std::string temp_path(const char* name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" + info->test_suite_name() +
         "-" + info->name() + "-" + name;
}

/// Runs a fixed-seed YCSB workload on `kind` with an optional file
/// backend and returns the canonical image bytes.
std::vector<std::uint8_t> ycsb_image_bytes(core::DesignKind kind,
                                           bool file_backend,
                                           const char* tag) {
  trace::YcsbWorkload workload;
  for (const trace::YcsbWorkload& w : trace::ycsb_workloads()) {
    if (w.name == "ycsb-a") workload = w;
  }
  workload.record_count = 200;

  store::StoreConfig store_config =
      store::StoreConfig::sized_for(400, workload.value_bytes);
  core::DesignConfig config;
  config.data_capacity = store::capacity_for(store_config);
  const std::string dimm = temp_path((std::string("eq-") + tag + ".dimm").c_str());
  if (file_backend) {
    config.backend_factory = [&dimm](std::uint64_t capacity_bytes) {
      return nvm::FileBackend::create(dimm, capacity_bytes);
    };
  }
  auto design = core::make_design(kind, config);
  auto* base = dynamic_cast<core::SecureNvmBase*>(design.get());
  EXPECT_NE(base, nullptr);

  store::YcsbRunOptions options;
  options.ops = 600;
  options.seed = 2019;
  store::run_ycsb_workload(*base, store_config, workload, options);

  std::vector<std::uint8_t> bytes =
      testsupport::canonical_image_bytes(base->image());
  std::remove(dimm.c_str());
  return bytes;
}

TEST(BackendEquivalenceTest, YcsbLeavesBitIdenticalImages) {
  const auto map_bytes =
      ycsb_image_bytes(core::DesignKind::kCcNvm, false, "map");
  const auto file_bytes =
      ycsb_image_bytes(core::DesignKind::kCcNvm, true, "file");
  ASSERT_FALSE(map_bytes.empty());
  EXPECT_EQ(map_bytes, file_bytes);
}

TEST(BackendEquivalenceTest, YcsbNoDsLeavesBitIdenticalImages) {
  const auto map_bytes =
      ycsb_image_bytes(core::DesignKind::kCcNvmNoDs, false, "nods-map");
  const auto file_bytes =
      ycsb_image_bytes(core::DesignKind::kCcNvmNoDs, true, "nods-file");
  ASSERT_FALSE(map_bytes.empty());
  EXPECT_EQ(map_bytes, file_bytes);
}

TEST(BackendEquivalenceTest, CrashFuzzDigestsMatchAcrossBackends) {
  // The crash engine's CaseOutcome digest folds every observable (read
  // plaintexts, recovery flags, auditor counters). Equal digests with
  // file_backend on and off mean the durable path behaved identically —
  // including through the injected power losses and recoveries.
  CheckThrowScope throw_scope;
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    const fuzz::CaseOutcome mem = fuzz::run_fuzz_case(
        fuzz::Engine::kCrash, seed, 48,
        core::CcNvmDesign::ProtocolMutation::kNone, /*file_backend=*/false);
    const fuzz::CaseOutcome file = fuzz::run_fuzz_case(
        fuzz::Engine::kCrash, seed, 48,
        core::CcNvmDesign::ProtocolMutation::kNone, /*file_backend=*/true);
    ASSERT_TRUE(mem.ok) << mem.message;
    ASSERT_TRUE(file.ok) << file.message;
    EXPECT_EQ(mem.digest, file.digest) << "seed " << seed;
    EXPECT_EQ(mem.checks, file.checks) << "seed " << seed;
    EXPECT_EQ(mem.ops, file.ops) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ccnvm
