// SECDED ECC: the (72,64) code's correct/detect guarantees, and the
// Osiris property — wrong-counter decryptions fail the ECC check.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/otp.h"
#include "secure/ecc.h"

namespace ccnvm::secure {
namespace {

/// The original bit-serial encoder, kept as the oracle the masked-parity
/// encoder must match bit for bit: XOR the codeword position of every
/// set data bit (powers of two are check-bit positions), then add the
/// overall parity over data + check bits as bit 7.
std::uint8_t reference_ecc_of_word(std::uint64_t word) {
  std::uint8_t c = 0;
  std::uint8_t pos = 1;
  for (int k = 0; k < 64; ++k) {
    while ((pos & (pos - 1)) == 0) ++pos;
    if ((word >> k) & 1) c ^= pos;
    ++pos;
  }
  const bool overall =
      ((__builtin_popcountll(word) + __builtin_popcount(c)) & 1) != 0;
  return static_cast<std::uint8_t>(c | (overall ? 0x80 : 0x00));
}

TEST(EccTest, MaskedEncoderMatchesBitSerialOracle) {
  const auto expect_same = [](std::uint64_t w) {
    ASSERT_EQ(ecc_of_word(w), reference_ecc_of_word(w)) << std::hex << w;
  };
  expect_same(0);
  expect_same(~0ULL);
  for (int b1 = 0; b1 < 64; ++b1) {
    expect_same(1ULL << b1);
    expect_same(~(1ULL << b1));
    for (int b2 = b1 + 1; b2 < 64; ++b2) {
      expect_same((1ULL << b1) | (1ULL << b2));
    }
  }
  Rng rng(99);
  for (int i = 0; i < 100000; ++i) expect_same(rng.next());
  // The check path shares the encoder: a clean random word stays clean.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t w = rng.next();
    ASSERT_EQ(check_word(w, reference_ecc_of_word(w)), EccVerdict::kClean);
  }
}

TEST(EccTest, CleanWordChecksClean) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t w = rng.next();
    EXPECT_EQ(check_word(w, ecc_of_word(w)), EccVerdict::kClean);
  }
}

TEST(EccTest, EverySingleBitErrorIsCorrected) {
  Rng rng(2);
  const std::uint64_t w = rng.next();
  const std::uint8_t ecc = ecc_of_word(w);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t bad = w ^ (1ULL << bit);
    std::uint64_t fixed = 0;
    ASSERT_EQ(check_word(bad, ecc, &fixed), EccVerdict::kCorrectedSingle)
        << "bit " << bit;
    EXPECT_EQ(fixed, w) << "bit " << bit;
  }
}

TEST(EccTest, EccBitErrorsLeaveDataIntact) {
  Rng rng(3);
  const std::uint64_t w = rng.next();
  const std::uint8_t ecc = ecc_of_word(w);
  for (int bit = 0; bit < 8; ++bit) {
    const std::uint8_t bad_ecc = static_cast<std::uint8_t>(ecc ^ (1u << bit));
    std::uint64_t fixed = 0;
    ASSERT_EQ(check_word(w, bad_ecc, &fixed), EccVerdict::kCorrectedSingle)
        << "ecc bit " << bit;
    EXPECT_EQ(fixed, w);
  }
}

TEST(EccTest, DoubleBitErrorsAreDetected) {
  Rng rng(4);
  const std::uint64_t w = rng.next();
  const std::uint8_t ecc = ecc_of_word(w);
  for (int trial = 0; trial < 300; ++trial) {
    const int b1 = static_cast<int>(rng.below(64));
    int b2 = static_cast<int>(rng.below(64));
    while (b2 == b1) b2 = static_cast<int>(rng.below(64));
    const std::uint64_t bad = w ^ (1ULL << b1) ^ (1ULL << b2);
    EXPECT_EQ(check_word(bad, ecc), EccVerdict::kDoubleError)
        << b1 << "," << b2;
  }
}

TEST(EccTest, LineEccCoversAllWords) {
  Rng rng(5);
  Line line;
  for (auto& b : line) b = static_cast<std::uint8_t>(rng.next());
  const EccBits ecc = ecc_of_line(line);
  EXPECT_TRUE(line_matches_ecc(line, ecc));
  Line bad = line;
  bad[40] ^= 0x10;  // word 5
  EXPECT_FALSE(line_matches_ecc(bad, ecc));
}

/// Per-word bitwise ECC of a line: the oracle for the byte-table encoder.
EccBits word_by_word_ecc(const Line& line) {
  EccBits ecc;
  for (std::size_t w = 0; w < 8; ++w) {
    ecc.bytes[w] = ecc_of_word(load_le64(line, w * 8));
  }
  return ecc;
}

TEST(EccTest, ByteTableLineEccMatchesWordEcc) {
  const auto expect_same = [](const Line& line) {
    const EccBits ecc = ecc_of_line(line);
    ASSERT_EQ(ecc, word_by_word_ecc(line));
    ASSERT_TRUE(line_matches_ecc(line, ecc));
  };
  Rng rng(1234);
  Line line{};
  for (int i = 0; i < 100000; ++i) {
    for (std::size_t w = 0; w < 8; ++w) store_le64(line, w * 8, rng.next());
    expect_same(line);
  }
  for (std::size_t bit = 0; bit < 8 * kLineSize; ++bit) {
    line.fill(0);
    line[bit / 8] = static_cast<std::uint8_t>(1u << (bit % 8));
    expect_same(line);
  }
  for (std::size_t byte = 0; byte < kLineSize; ++byte) {
    for (unsigned v = 0; v < 256; ++v) {
      line.fill(0);
      line[byte] = static_cast<std::uint8_t>(v);
      expect_same(line);
    }
  }
}

TEST(EccTest, CheckWordCorrectsEveryBitOfATableCodedLine) {
  Rng rng(77);
  Line line{};
  for (std::size_t w = 0; w < 8; ++w) store_le64(line, w * 8, rng.next());
  const EccBits ecc = ecc_of_line(line);
  for (std::size_t w = 0; w < 8; ++w) {
    const std::uint64_t word = load_le64(line, w * 8);
    ASSERT_EQ(check_word(word, ecc.bytes[w]), EccVerdict::kClean);
    for (int bit = 0; bit < 64; ++bit) {
      std::uint64_t fixed = 0;
      ASSERT_EQ(check_word(word ^ (1ULL << bit), ecc.bytes[w], &fixed),
                EccVerdict::kCorrectedSingle)
          << "word " << w << " bit " << bit;
      EXPECT_EQ(fixed, word);
    }
  }
}

TEST(EccTest, WrongCounterDecryptionFailsEcc) {
  // The Osiris oracle: ECC computed over plaintext; decrypting the
  // ciphertext with any wrong counter produces junk that fails the check.
  const crypto::Aes128 cipher(crypto::Aes128::key_from_seed(7));
  Rng rng(6);
  Line plain;
  for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next());
  const EccBits ecc = ecc_of_line(plain);

  const crypto::PadCounter right{2, 9};
  const Line ct =
      crypto::xor_pad(plain, crypto::generate_otp(cipher, 0x40, right));

  int false_accepts = 0;
  for (std::uint64_t minor = 0; minor < 64; ++minor) {
    if (minor == right.minor) continue;
    const Line guess = crypto::xor_pad(
        ct, crypto::generate_otp(cipher, 0x40, {right.major, minor}));
    false_accepts += line_matches_ecc(guess, ecc) ? 1 : 0;
  }
  EXPECT_EQ(false_accepts, 0);
  // And the right counter passes.
  const Line good = crypto::xor_pad(
      ct, crypto::generate_otp(cipher, 0x40, right));
  EXPECT_TRUE(line_matches_ecc(good, ecc));
}

TEST(EccTest, DistinctWordsRarelyShareEcc) {
  // 8-bit ECC: collisions exist but must look random (~1/256), never
  // systematic.
  Rng rng(8);
  int collisions = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = rng.next(), b = rng.next();
    if (a != b && ecc_of_word(a) == ecc_of_word(b)) ++collisions;
  }
  EXPECT_NEAR(collisions, n / 256, 30);
}

}  // namespace
}  // namespace ccnvm::secure
