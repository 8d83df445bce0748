// Persistent registers inside the trusted computing base.
//
// These are the only on-chip state that survives a power failure (the
// paper assumes a handful of battery/capacitor-backed registers, as Osiris
// does). cc-NVM adds three to the classic single-root design:
//
//   ROOT_new — the newest logical Merkle root; updated on write-backs
//              (eagerly without deferred spreading, lazily with it).
//   ROOT_old — the root the *NVM-resident* tree was last committed
//              against; updated only at drain-commit time. The invariant
//              "the tree in NVM always matches at least one of the two
//              roots" is what makes replay attacks locatable after crashes.
//   N_wb     — write-back events since the last committed drain; compared
//              against the recovery retry total to detect the replay
//              window deferred spreading opens (§4.3/§4.4).
//
// We additionally carry an overflow flag (an extension in the spirit of
// the paper's closing remark about extra persistent registers): it marks
// the window in which a minor-counter overflow is re-encrypting a page,
// where the N_wb == N_retry identity does not hold and the check must be
// conservatively skipped for that page.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/annotations.h"
#include "common/types.h"

namespace ccnvm::core {

struct TcbRegisters {
  CCNVM_PERSISTENT Line root_new{};
  CCNVM_PERSISTENT Line root_old{};
  CCNVM_PERSISTENT std::uint64_t n_wb = 0;

  /// Extension: set before a page re-encryption begins, cleared when the
  /// drain that persists its counter line commits.
  CCNVM_PERSISTENT bool overflow_pending = false;
  CCNVM_PERSISTENT std::uint64_t overflow_leaf = 0;
};

// --- Fixed binary encoding ------------------------------------------------
// One canonical little-endian blob. The durable media backends mirror the
// battery-backed registers in it next to the lines (nvm::Backend register
// slot), so a DIMM file carries the complete crash state; core::open_dimm
// (core/persistence.h) decodes it at power-up.

inline constexpr std::size_t kTcbBlobBytes = 2 * kLineSize + 8 + 1 + 8;
using TcbBlob = std::array<std::uint8_t, kTcbBlobBytes>;

inline TcbBlob encode_tcb(const TcbRegisters& tcb) {
  TcbBlob blob{};
  std::size_t at = 0;
  for (std::uint8_t b : tcb.root_new) blob[at++] = b;
  for (std::uint8_t b : tcb.root_old) blob[at++] = b;
  for (int i = 0; i < 8; ++i) {
    blob[at++] = static_cast<std::uint8_t>(tcb.n_wb >> (8 * i));
  }
  blob[at++] = tcb.overflow_pending ? 1 : 0;
  for (int i = 0; i < 8; ++i) {
    blob[at++] = static_cast<std::uint8_t>(tcb.overflow_leaf >> (8 * i));
  }
  return blob;
}

/// Returns false (leaving `out` untouched) on a short or malformed blob.
inline bool decode_tcb(const std::uint8_t* data, std::size_t len,
                       TcbRegisters& out) {
  if (data == nullptr || len != kTcbBlobBytes) return false;
  const std::uint8_t flag = data[2 * kLineSize + 8];
  if (flag > 1) return false;
  TcbRegisters tcb;
  std::size_t at = 0;
  for (std::uint8_t& b : tcb.root_new) b = data[at++];
  for (std::uint8_t& b : tcb.root_old) b = data[at++];
  tcb.n_wb = 0;
  for (int i = 0; i < 8; ++i) {
    tcb.n_wb |= static_cast<std::uint64_t>(data[at++]) << (8 * i);
  }
  tcb.overflow_pending = data[at++] == 1;
  tcb.overflow_leaf = 0;
  for (int i = 0; i < 8; ++i) {
    tcb.overflow_leaf |= static_cast<std::uint64_t>(data[at++]) << (8 * i);
  }
  out = tcb;
  return true;
}

}  // namespace ccnvm::core
