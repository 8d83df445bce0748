// SECDED ECC — (72,64) Hamming + overall parity per 64-bit word.
//
// Osiris (Ye et al., MICRO'18), the baseline the paper optimizes against,
// repurposes a memory line's ECC as a *counter-recovery oracle*: the ECC
// is computed over the plaintext before encryption, so decrypting with a
// wrong counter yields pseudo-random bits whose stored ECC almost surely
// mismatches. Recovery tries counter candidates and lets the ECC check
// pick the right one, with the data HMAC as the final authority.
//
// A 64-byte line carries eight 64-bit words, each with 8 ECC bits (7
// Hamming check bits + 1 overall parity) — exactly a standard ECC DIMM's
// 8 bytes of ECC per line.
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

namespace ccnvm::secure {

/// ECC syndrome bytes for one 64-byte line (one byte per 64-bit word).
struct EccBits {
  std::array<std::uint8_t, 8> bytes{};

  friend bool operator==(const EccBits&, const EccBits&) = default;
};

/// Result of checking a word against its stored ECC.
enum class EccVerdict {
  kClean,           // syndrome zero, parity ok
  kCorrectedSingle, // single-bit error, correctable
  kDoubleError,     // detected, uncorrectable
};

/// Computes the 8 ECC bits of one 64-bit word, bit by bit from the code's
/// definition.
std::uint8_t ecc_of_word(std::uint64_t word);

/// Computes the ECC of all eight words of a line (little-endian words):
/// byte for byte ecc_of_word's, from a per-byte table.
EccBits ecc_of_line(const Line& line);

/// Checks a word against stored ECC. If a single-bit error is found and
/// `corrected` is non-null, the corrected word is written there.
EccVerdict check_word(std::uint64_t word, std::uint8_t stored_ecc,
                      std::uint64_t* corrected = nullptr);

/// True when every word of `line` matches `stored` exactly (the Osiris
/// counter-candidate test: a wrong decryption fails this with
/// overwhelming probability).
bool line_matches_ecc(const Line& line, const EccBits& stored);

}  // namespace ccnvm::secure
