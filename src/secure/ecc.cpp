#include "secure/ecc.h"

#include "common/check.h"

namespace ccnvm::secure {
namespace {

// Codeword positions 1..71: powers of two hold check bits, the rest hold
// data bits in order. position_of[k] is the codeword position of data
// bit k; its binary expansion says which check groups cover the bit.
constexpr std::array<std::uint8_t, 64> make_positions() {
  std::array<std::uint8_t, 64> pos{};
  std::uint8_t p = 1;
  for (int k = 0; k < 64; ++k) {
    while ((p & (p - 1)) == 0) ++p;  // skip powers of two (check bits)
    pos[k] = p++;
  }
  return pos;
}

constexpr std::array<std::uint8_t, 64> kPositions = make_positions();

constexpr bool parity64(std::uint64_t v) {
  return (__builtin_popcountll(v) & 1) != 0;
}

// kCheckMasks[j] selects the data bits whose position has bit j set:
// check bit j is the parity of the word under that mask.
constexpr std::array<std::uint64_t, 7> make_check_masks() {
  std::array<std::uint64_t, 7> masks{};
  for (int k = 0; k < 64; ++k) {
    for (int j = 0; j < 7; ++j) {
      if ((kPositions[k] >> j) & 1) masks[j] |= 1ULL << k;
    }
  }
  return masks;
}

constexpr std::array<std::uint64_t, 7> kCheckMasks = make_check_masks();

constexpr std::uint8_t hamming_bits(std::uint64_t word) {
  unsigned c = 0;
  for (int j = 0; j < 7; ++j) {
    c |= static_cast<unsigned>(parity64(word & kCheckMasks[j])) << j;
  }
  return static_cast<std::uint8_t>(c);  // 7 bits
}

constexpr std::uint8_t bitwise_ecc(std::uint64_t word) {
  const std::uint8_t c = hamming_bits(word);
  const bool overall = parity64(word) ^ parity64(c);
  return static_cast<std::uint8_t>(c | (overall ? 0x80 : 0x00));
}

// Every check bit and the overall parity are XORs of data bits, so the
// code is linear over GF(2): a word's ECC is the XOR of the ECCs of its
// eight bytes, each in place. kByteEcc[b][v] is the ECC of a word whose
// only nonzero byte is byte b (little-endian), holding v.
constexpr std::array<std::array<std::uint8_t, 256>, 8> make_byte_ecc() {
  std::array<std::array<std::uint8_t, 256>, 8> table{};
  for (unsigned b = 0; b < 8; ++b) {
    for (unsigned v = 0; v < 256; ++v) {
      table[b][v] = bitwise_ecc(std::uint64_t{v} << (8 * b));
    }
  }
  return table;
}

constexpr std::array<std::array<std::uint8_t, 256>, 8> kByteEcc =
    make_byte_ecc();

// The ECC of the little-endian word at `bytes`, by table.
std::uint8_t table_ecc(const std::uint8_t* bytes) {
  std::uint8_t e = 0;
  for (std::size_t b = 0; b < 8; ++b) e ^= kByteEcc[b][bytes[b]];
  return e;
}

}  // namespace

std::uint8_t ecc_of_word(std::uint64_t word) { return bitwise_ecc(word); }

EccBits ecc_of_line(const Line& line) {
  EccBits ecc;
  for (std::size_t w = 0; w < 8; ++w) {
    ecc.bytes[w] = table_ecc(line.data() + w * 8);
  }
  return ecc;
}

EccVerdict check_word(std::uint64_t word, std::uint8_t stored_ecc,
                      std::uint64_t* corrected) {
  const std::uint8_t stored_c = stored_ecc & 0x7f;
  const bool stored_p = (stored_ecc & 0x80) != 0;

  const std::uint8_t syndrome =
      static_cast<std::uint8_t>(stored_c ^ hamming_bits(word));
  // The overall parity covers the stored codeword: data + stored checks.
  const bool parity_now = parity64(word) ^ parity64(stored_c);
  const bool parity_ok = parity_now == stored_p;

  if (syndrome == 0) {
    // Either clean, or only the overall parity bit flipped.
    if (corrected != nullptr) *corrected = word;
    return parity_ok ? EccVerdict::kClean : EccVerdict::kCorrectedSingle;
  }
  if (parity_ok) return EccVerdict::kDoubleError;

  // Single-bit error. A power-of-two syndrome points at a check bit
  // (data intact); otherwise it names the flipped data bit's position.
  if ((syndrome & (syndrome - 1)) == 0) {
    if (corrected != nullptr) *corrected = word;
    return EccVerdict::kCorrectedSingle;
  }
  for (int k = 0; k < 64; ++k) {
    if (kPositions[k] == syndrome) {
      if (corrected != nullptr) *corrected = word ^ (1ULL << k);
      return EccVerdict::kCorrectedSingle;
    }
  }
  // Syndrome names no valid position: multi-bit corruption.
  return EccVerdict::kDoubleError;
}

bool line_matches_ecc(const Line& line, const EccBits& stored) {
  for (std::size_t w = 0; w < 8; ++w) {
    if (table_ecc(line.data() + w * 8) != stored.bytes[w]) return false;
  }
  return true;
}

}  // namespace ccnvm::secure
