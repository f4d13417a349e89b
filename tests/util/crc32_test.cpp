#include "util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/clmul.h"
#include "util/random.h"

namespace prlc {
namespace {

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition the sliced
/// tables must reproduce.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(crc32(bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
}

TEST(Crc32, SensitiveToEveryBit) {
  auto data = bytes("hello, prlc");
  const auto base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto copy = data;
      copy[i] ^= static_cast<std::uint8_t>(1 << bit);
      ASSERT_NE(crc32(copy), base) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32, ChainingMatchesOneShot) {
  const auto whole = bytes("first-half|second-half");
  const auto left = bytes("first-half|");
  const auto right = bytes("second-half");
  EXPECT_EQ(crc32(right, crc32(left)), crc32(whole));
}

TEST(Crc32, SlicedMatchesReferenceAtEveryLengthOffsetAndSplit) {
  constexpr std::size_t kBig = 65536;
  Rng rng(0xC4C);
  std::vector<std::uint8_t> buffer(kBig + 8 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const auto from = std::span<const std::uint8_t>(buffer).subspan(offset);
    for (std::size_t len = 0; len <= 80; ++len) {
      const auto data = from.first(len);
      const std::uint32_t want = reference_crc32(data);
      ASSERT_EQ(crc32(data), want) << "offset=" << offset << " len=" << len;
      for (std::size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(crc32(data.subspan(split), crc32(data.first(split))), want)
            << "offset=" << offset << " len=" << len << " split=" << split;
      }
    }
    for (std::size_t len = kBig + 1; len <= kBig + 7; ++len) {
      const auto data = from.first(len);
      const std::uint32_t want = reference_crc32(data);
      ASSERT_EQ(crc32(data), want) << "offset=" << offset << " len=" << len;
      // Every split within 16 bytes of either end, plus a stride between.
      std::vector<std::size_t> splits;
      for (std::size_t k = 0; k <= 16; ++k) {
        splits.push_back(k);
        splits.push_back(len - k);
      }
      for (std::size_t k = 4099; k < len; k += 4099) splits.push_back(k);
      for (const std::size_t split : splits) {
        ASSERT_EQ(crc32(data.subspan(split), crc32(data.first(split))), want)
            << "offset=" << offset << " len=" << len << " split=" << split;
      }
    }
  }
}

TEST(Crc32, PinnedValuesOfTheBytewiseImplementation) {
  // Captured from the byte-at-a-time table implementation over bytes
  // i*131+7: frames and manifests it wrote must keep verifying.
  const std::pair<std::size_t, std::uint32_t> cases[] = {
      {0, 0x00000000u},    {1, 0x4c667a2eu},    {7, 0xff206b2eu},    {8, 0xf7921d46u},
      {9, 0xc04294c0u},    {16, 0xea7e5b68u},   {100, 0x9f5e59efu},  {1024, 0x0824e952u},
      {65536, 0x3a3102b4u}, {65543, 0x65052865u},
  };
  for (const auto& [len, want] : cases) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    EXPECT_EQ(crc32(data), want) << "len=" << len;
  }
}

TEST(Crc32, OrderMatters) {
  EXPECT_NE(crc32(bytes("ab")), crc32(bytes("ba")));
}

// --- portable vs carry-less path -------------------------------------------
//
// Each implementation is held against the bit-at-a-time reference on its
// own, so the portable path stays covered on a PCLMULQDQ host and the
// clmul path is checked wherever the CPU has it.

using CrcPath = std::uint32_t (*)(std::span<const std::uint8_t>, std::uint32_t);

/// Lengths 0-300 (every fold threshold: 63/64/65 bytes enter the 4-lane
/// fold, 127/128 add a 64-byte round, and every L mod 16 tail) and
/// 64 KiB +- 1..7, at start offsets 0-15, one-shot with a zero and a
/// nonzero seed, and chained at every split within 16 bytes of either
/// end, so a nonzero seed enters the fold of the second part.
void expect_path_matches_reference(CrcPath crc) {
  constexpr std::size_t kBig = 65536;
  constexpr std::uint32_t kSeed = 0x9E3779B9u;
  Rng rng(0xC1C);
  std::vector<std::uint8_t> buffer(kBig + 7 + 16);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const auto from = std::span<const std::uint8_t>(buffer).subspan(offset);
    // Reference values of every prefix, grown one byte at a time.
    std::uint32_t want = reference_crc32({}, 0);
    std::uint32_t want_seeded = reference_crc32({}, kSeed);
    for (std::size_t len = 0; len <= kBig + 7; ++len) {
      if (len <= 300 || (len + 7 >= kBig && len != kBig)) {
        const auto data = from.first(len);
        ASSERT_EQ(crc(data, 0), want) << "offset=" << offset << " len=" << len;
        ASSERT_EQ(crc(data, kSeed), want_seeded) << "offset=" << offset << " len=" << len;
        for (std::size_t k = 0; k <= std::min<std::size_t>(16, len); ++k) {
          for (const std::size_t split : {k, len - k}) {
            ASSERT_EQ(crc(data.subspan(split), crc(data.first(split), kSeed)), want_seeded)
                << "offset=" << offset << " len=" << len << " split=" << split;
          }
        }
      }
      want = reference_crc32(from.subspan(len, 1), want);
      want_seeded = reference_crc32(from.subspan(len, 1), want_seeded);
    }
  }
}

TEST(Crc32Paths, PortableMatchesReference) {
  expect_path_matches_reference(util::detail::crc32_portable);
}

TEST(Crc32Paths, ClmulMatchesReference) {
  if (!util::clmul_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_path_matches_reference(util::detail::crc32_clmul);
}

TEST(Crc32Paths, BothPathsReproduceThePinnedValues) {
  // crc32() itself is pinned above; each path must agree with it.
  for (const std::size_t len : {0, 1, 7, 8, 9, 16, 100, 1024, 65536, 65543}) {
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    EXPECT_EQ(util::detail::crc32_portable(data, 0), crc32(data)) << "len=" << len;
    if (util::clmul_supported()) {
      EXPECT_EQ(util::detail::crc32_clmul(data, 0), crc32(data)) << "len=" << len;
    }
  }
  EXPECT_STREQ(util::integrity_path(), util::clmul_supported() ? "clmul" : "portable");
}

}  // namespace
}  // namespace prlc
