#include "baselines/level_persisted.h"
#include "baselines/osiris_plus.h"
#include "baselines/wo_cc.h"
#include "core/cc_nvm.h"
#include "core/cc_nvm_plus.h"
#include "core/design.h"

namespace ccnvm::core {

std::unique_ptr<SecureNvmDesign> make_design(DesignKind kind,
                                             const DesignConfig& config) {
  switch (kind) {
    case DesignKind::kWoCc:
      return std::make_unique<baselines::WoCcDesign>(config);
    case DesignKind::kStrict:
    case DesignKind::kTriadNvm:
    case DesignKind::kPhoenix:
      return std::make_unique<baselines::LevelPersistedDesign>(kind, config);
    case DesignKind::kOsirisPlus:
      return std::make_unique<baselines::OsirisPlusDesign>(config);
    case DesignKind::kCcNvmNoDs:
      return std::make_unique<CcNvmDesign>(config,
                                           /*deferred_spreading=*/false);
    case DesignKind::kCcNvm:
      return std::make_unique<CcNvmDesign>(config,
                                           /*deferred_spreading=*/true);
    case DesignKind::kCcNvmPlus:
      return std::make_unique<CcNvmPlusDesign>(config);
  }
  CCNVM_CHECK_MSG(false, "unknown design kind");
  return nullptr;
}

}  // namespace ccnvm::core
