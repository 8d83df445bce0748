// A full host power cycle: run on a DIMM file, lose power, *exit the
// process* (here: destroy every object), come back up in a "new
// machine", power the DIMM file up again (lines + TCB registers),
// recover, and read the data back.
//
//   $ ./build/examples/persistent_reboot [image-path]
//
// Run it twice with the same path: the second run finds the DIMM from
// the first and continues on top of it.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "core/cc_nvm.h"
#include "core/persistence.h"
#include "nvm/file_backend.h"

using namespace ccnvm;

namespace {

core::DesignConfig config() {
  core::DesignConfig c;
  c.data_capacity = 64 * kPageSize;
  c.key_seed = 0xfeedc0de;  // TCB fuses: must match across power cycles
  return c;
}

Line counter_record(std::uint64_t boots, std::uint64_t writes) {
  Line l{};
  store_le64(l, 0, boots);
  store_le64(l, 8, writes);
  return l;
}

/// Powers the DIMM file up into a fresh design and recovers it; nullptr
/// (after saying why) if there is no usable DIMM at `path`.
std::unique_ptr<core::CcNvmDesign> boot_from(const std::string& path,
                                             core::RecoveryReport& report) {
  std::optional<core::PoweredDown> dimm = core::open_dimm(path);
  if (!dimm) return nullptr;
  auto nvm = std::make_unique<core::CcNvmDesign>(config(), true);
  nvm->restore_from_power_down(std::move(dimm->image), dimm->tcb);
  report = nvm->recover();
  return nvm;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/ccnvm-reboot.dimm");

  std::uint64_t boots = 0, writes = 0;

  // ---- Boot: either a restore from the DIMM file or a fresh DIMM. -------
  core::RecoveryReport report;
  std::unique_ptr<core::CcNvmDesign> nvm = boot_from(path, report);
  if (nvm != nullptr) {
    std::printf("restored image '%s': %s\n", path.c_str(),
                report.detail.c_str());
    if (!report.clean) {
      std::printf("recovery found problems; starting fresh instead\n");
      nvm.reset();  // unmap the old DIMM before the fresh one truncates it
    } else {
      const Line rec = nvm->read_block(0).plaintext;
      boots = load_le64(rec, 0);
      writes = load_le64(rec, 8);
    }
  } else {
    std::printf("no image at '%s': formatting a fresh secure DIMM\n",
                path.c_str());
  }
  if (nvm == nullptr) {
    core::DesignConfig fresh = config();
    fresh.backend_factory = [&path](std::uint64_t bytes) {
      return nvm::FileBackend::create(path, bytes);
    };
    nvm = std::make_unique<core::CcNvmDesign>(fresh, true);
  }

  ++boots;
  std::printf("boot #%llu; %llu writes carried over from previous lives\n",
              static_cast<unsigned long long>(boots),
              static_cast<unsigned long long>(writes));

  // ---- Do some work. ----------------------------------------------------
  for (int i = 0; i < 25; ++i) {
    ++writes;
    nvm->write_back((1 + i % 40) * kLineSize,
                    counter_record(boots, writes));
  }
  nvm->write_back(0, counter_record(boots, writes));

  // ---- Power loss mid-epoch. The file is the DIMM: nothing to save. -----
  nvm->crash_power_loss();
  nvm.reset();
  std::printf("power lost mid-epoch; DIMM + TCB registers remain in '%s'\n",
              path.c_str());

  // ---- Simulate the next boot right here to show the round trip. --------
  std::unique_ptr<core::CcNvmDesign> next = boot_from(path, report);
  if (next == nullptr) {
    std::printf("restore failed\n");
    return 1;
  }
  std::printf("next boot: recovery %s (%llu counter retries)\n",
              report.clean ? "clean" : "FAILED",
              static_cast<unsigned long long>(report.total_retries));
  const Line rec = next->read_block(0).plaintext;
  std::printf("record survives the cycle: boots=%llu writes=%llu\n",
              static_cast<unsigned long long>(load_le64(rec, 0)),
              static_cast<unsigned long long>(load_le64(rec, 8)));
  return 0;
}
