#include "core/persistence.h"

#include <memory>
#include <utility>

#include "nvm/file_backend.h"

namespace ccnvm::core {

std::optional<PoweredDown> open_dimm(const std::string& path) {
  auto backend = nvm::FileBackend::open(path);
  if (backend == nullptr) return std::nullopt;
  std::uint8_t regs[nvm::Backend::kRegisterCapacity];
  const std::size_t len = backend->load_registers(regs, sizeof(regs));
  TcbRegisters tcb;
  if (!decode_tcb(regs, len, tcb)) return std::nullopt;
  return PoweredDown{nvm::NvmImage(std::move(backend)), tcb};
}

}  // namespace ccnvm::core
