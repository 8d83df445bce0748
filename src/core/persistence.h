// Host-process power cycling. What physically survives a power failure
// is the DIMM and the battery-backed TCB registers; both live in one
// durable DIMM file (nvm/file_backend.h), whose register slot mirrors the
// TCB blob (core/tcb.h). A design built on that file through
// DesignConfig::backend_factory writes its media and registers straight
// into it, so powering down needs no save step: the file IS the DIMM.
//
// Bringing it back up, in this process or a later one:
//   auto d = core::open_dimm("dimm.img");
//   core::CcNvmDesign design(same_config, true);   // same keys!
//   design.restore_from_power_down(std::move(d->image), d->tcb);
//   auto report = design.recover();
//
// The cryptographic keys are derived from DesignConfig::key_seed and are
// *not* stored in the file — as in real hardware, they live in the TCB
// (fuses), and an image restored under different keys is garbage.
#pragma once

#include <optional>
#include <string>

#include "core/tcb.h"
#include "nvm/image.h"

namespace ccnvm::core {

/// A powered-down secure NVM: the DIMM contents on their file backend and
/// the persistent registers its slot carried.
struct PoweredDown {
  nvm::NvmImage image;
  TcbRegisters tcb;
};

/// Powers up the DIMM file at `path`. Returns nullopt when the file is
/// missing, foreign or truncated, or when its register slot holds no valid
/// TCB blob — expected conditions for a crashed or tampered image, not
/// bugs. The image is returned unrestored so a caller can attach an
/// observer or tamper with it before restore_from_power_down().
std::optional<PoweredDown> open_dimm(const std::string& path);

}  // namespace ccnvm::core
