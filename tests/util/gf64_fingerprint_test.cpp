// Differential fuzz for the GF(2^64) homomorphic fingerprint: field
// axioms against the reference multiply, the GF(2^8) embedding against
// gf::Gf256's own product table, and the coding homomorphism
// fp(sum gamma_j s_j) = sum embed(gamma_j) fp(s_j) over random payloads,
// random (GF(2) and GF(256)) coefficients, and unaligned sizes. The
// word-at-a-time fingerprint and the bit-plane combine are checked against
// byte-serial references built on gf64_mul, and against values pinned from
// the byte-serial implementation they replaced.
#include "util/gf64_fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "gf/gf256.h"
#include "util/clmul.h"
#include "util/random.h"

namespace prlc::util {
namespace {

/// sum_j embed(c_j) * fp_j, one reference multiply per coefficient.
std::uint64_t reference_combine(std::span<const std::uint8_t> coeffs,
                                std::span<const std::uint64_t> fps) {
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j < coeffs.size(); ++j) acc ^= gf64_mul(gf64_embed(coeffs[j]), fps[j]);
  return acc;
}

/// The byte pattern the pinned values below were captured over.
std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  return v;
}

TEST(Gf64, FieldAxiomsOnRandomElements) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    const std::uint64_t c = rng();
    EXPECT_EQ(gf64_mul(a, b), gf64_mul(b, a));
    EXPECT_EQ(gf64_mul(a, gf64_mul(b, c)), gf64_mul(gf64_mul(a, b), c));
    EXPECT_EQ(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));  // distributive
    EXPECT_EQ(gf64_mul(a, 1), a);
    EXPECT_EQ(gf64_mul(a, 0), 0u);
  }
}

TEST(Gf64, EveryNonzeroElementHasOrderDividingGroupOrder) {
  // a^(2^64-1) = 1 for a != 0 — catches any reduction-polynomial slip
  // (a non-irreducible modulus would yield zero divisors instead).
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    std::uint64_t a = rng();
    if (a == 0) a = 1;
    EXPECT_EQ(gf64_pow(a, ~std::uint64_t{0}), 1u);
  }
}

TEST(Gf64, EmbeddingIsAFieldHomomorphism) {
  // Exhaustive over all 256x256 products: embed must carry gf::Gf256's
  // multiplication (modulus 0x11D) into GF(2^64) multiplication.
  EXPECT_EQ(gf64_embed(0), 0u);
  EXPECT_EQ(gf64_embed(1), 1u);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const auto prod = gf::Gf256::mul(static_cast<std::uint8_t>(a),
                                       static_cast<std::uint8_t>(b));
      ASSERT_EQ(gf64_embed(prod),
                gf64_mul(gf64_embed(static_cast<std::uint8_t>(a)),
                         gf64_embed(static_cast<std::uint8_t>(b))))
          << "a=" << a << " b=" << b;
    }
    // Additivity (embed is GF(2)-linear by construction, assert anyway).
    ASSERT_EQ(gf64_embed(static_cast<std::uint8_t>(a ^ 0x5b)),
              gf64_embed(static_cast<std::uint8_t>(a)) ^ gf64_embed(0x5b));
  }
}

TEST(Gf64, EmbeddingIsInjective) {
  std::vector<std::uint64_t> seen;
  for (unsigned a = 0; a < 256; ++a) seen.push_back(gf64_embed(static_cast<std::uint8_t>(a)));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Gf64Fingerprint, TablesMatchReferenceMultiply) {
  const Fingerprinter fp(99);
  Rng rng(3);
  std::vector<std::uint8_t> payload(257);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  // Recompute the Horner evaluation with the slow reference multiply.
  std::uint64_t acc = 0;
  for (const std::uint8_t byte : payload) {
    acc = gf64_mul(acc, fp.point()) ^ gf64_embed(byte);
  }
  EXPECT_EQ(fp.fingerprint(payload), acc);
}

TEST(Gf64Fingerprint, WordAtATimeMatchesReferenceAtEveryLengthAndOffset) {
  // Every head length (L mod 8), every start alignment, and 64 KiB + 1..7,
  // against byte-at-a-time Horner with the reference multiply. Lengths are
  // prefixes of one buffer, so one reference pass per start offset yields
  // the expected value at every length.
  constexpr std::size_t kBig = 65536;
  Rng rng(0xA11);
  std::vector<std::uint8_t> buffer(kBig + 8 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (const std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{0xFEED}}) {
    const Fingerprinter fp(seed);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const auto from = std::span<const std::uint8_t>(buffer).subspan(offset);
      std::uint64_t acc = 0;
      for (std::size_t len = 0; len <= kBig + 7; ++len) {
        if (len <= 80 || len > kBig) {
          ASSERT_EQ(fp.fingerprint(from.first(len)), acc)
              << "seed=" << seed << " offset=" << offset << " len=" << len;
        }
        if (len < from.size()) acc = gf64_mul(acc, fp.point()) ^ gf64_embed(from[len]);
      }
    }
  }
}

TEST(Gf64Fingerprint, PinnedValuesOfTheByteSerialImplementation) {
  // Captured from the byte-at-a-time implementation: manifests written by
  // it must keep verifying.
  struct Case {
    std::uint64_t seed;
    std::size_t len;
    std::uint64_t fp;
  };
  const Case cases[] = {
      {0, 0, 0x0000000000000000ULL},      {0, 1, 0x1750b86ed7f47d09ULL},
      {0, 7, 0xd0b5f415125d7d9cULL},      {0, 8, 0xc273a44208f7667bULL},
      {0, 9, 0xc7c67b3a77e643c7ULL},      {0, 100, 0x508f4b150750a1a5ULL},
      {0, 1024, 0xf6fd63813a37e6fdULL},   {0, 65536, 0xe37ea12538fffb80ULL},
      {0, 65543, 0x21aaa4fe38f0c4e0ULL},  {42, 7, 0x550c876896f9e725ULL},
      {42, 16, 0x12143c514a2b4c9fULL},    {42, 1024, 0x39fb894ff860ad4eULL},
      {42, 65543, 0x08de5db24eea6204ULL},
  };
  EXPECT_EQ(Fingerprinter(0).point(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Fingerprinter(42).point(), 0xbdd732262feb6e95ULL);
  for (const Case& c : cases) {
    EXPECT_EQ(Fingerprinter(c.seed).fingerprint(pattern(c.len)), c.fp)
        << "seed=" << c.seed << " len=" << c.len;
  }
  // combine over 64 pinned-pattern fingerprints.
  const Fingerprinter fp(42);
  std::vector<std::uint64_t> fps;
  std::vector<std::uint8_t> coeffs;
  for (std::size_t j = 0; j < 64; ++j) {
    fps.push_back(fp.fingerprint(pattern(j + 1)));
    coeffs.push_back(static_cast<std::uint8_t>(j * 37u + 1u));
  }
  EXPECT_EQ(fp.combine(coeffs, fps), 0x5779501d858e6517ULL);
  EXPECT_EQ(gf64_embed(2), 0xb5edb70665632ccbULL);
  EXPECT_EQ(gf64_embed(0x80), 0x18f233b09a96275fULL);
}

TEST(Gf64Fingerprint, BitPlaneCombineMatchesReference) {
  Rng rng(0xC0B);
  const Fingerprinter fp(31);
  for (const std::size_t n : {1u, 7u, 64u, 256u, 1000u}) {
    std::vector<std::uint64_t> fps(n);
    for (auto& f : fps) f = rng();
    for (int mode = 0; mode < 5; ++mode) {  // dense, GF(2), sparse, all-zero, all-0xFF
      std::vector<std::uint8_t> coeffs(n);
      for (auto& c : coeffs) {
        switch (mode) {
          case 0: c = static_cast<std::uint8_t>(rng()); break;
          case 1: c = static_cast<std::uint8_t>(rng() & 1); break;
          case 2: c = rng.bernoulli(0.1) ? static_cast<std::uint8_t>(rng()) : 0; break;
          case 3: c = 0; break;
          default: c = 0xFF; break;
        }
      }
      const std::uint64_t want = reference_combine(coeffs, fps);
      ASSERT_EQ(fp.combine(coeffs, fps), want) << "n=" << n << " mode=" << mode;
      // Sparse twin over the nonzero support, then over every index
      // (explicit zero values must contribute nothing).
      std::vector<std::uint32_t> support, all;
      std::vector<std::uint8_t> values;
      for (std::size_t j = 0; j < n; ++j) {
        all.push_back(static_cast<std::uint32_t>(j));
        if (coeffs[j] == 0) continue;
        support.push_back(static_cast<std::uint32_t>(j));
        values.push_back(coeffs[j]);
      }
      ASSERT_EQ(fp.combine_sparse(support, values, fps), want) << "n=" << n << " mode=" << mode;
      ASSERT_EQ(fp.combine_sparse(all, coeffs, fps), want) << "n=" << n << " mode=" << mode;
    }
  }
}

TEST(Gf64Fingerprint, SeedDeterminesPointDeterministically) {
  EXPECT_EQ(Fingerprinter(42).point(), Fingerprinter(42).point());
  EXPECT_NE(Fingerprinter(42).point(), Fingerprinter(43).point());
  EXPECT_NE(Fingerprinter(0).point(), 0u);  // the point is never zero
}

TEST(Gf64Fingerprint, DetectsSingleBitFlips) {
  const Fingerprinter fp(1234);
  Rng rng(5);
  std::vector<std::uint8_t> payload(100);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
  const std::uint64_t clean = fp.fingerprint(payload);
  for (int i = 0; i < 200; ++i) {
    const std::size_t at = rng.uniform(payload.size());
    const auto mask = static_cast<std::uint8_t>(1 + rng.uniform(255));
    payload[at] ^= mask;
    EXPECT_NE(fp.fingerprint(payload), clean);
    payload[at] ^= mask;
  }
}

/// The acceptance-criteria fuzz: random source blocks, random coefficient
/// vectors (dense GF(256), sparse, and GF(2)-only), unaligned payload
/// sizes — the combined source fingerprints must always predict the coded
/// payload's fingerprint exactly.
TEST(Gf64Fingerprint, HomomorphismFuzzAcrossSizesAndCoefficientFields) {
  Rng rng(0xF00D);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.uniform(24);               // source blocks
    const std::size_t size = 1 + rng.uniform(515);           // deliberately unaligned
    const Fingerprinter fp(rng());
    std::vector<std::vector<std::uint8_t>> sources(n, std::vector<std::uint8_t>(size));
    std::vector<std::uint64_t> fps(n);
    for (std::size_t j = 0; j < n; ++j) {
      for (auto& b : sources[j]) b = static_cast<std::uint8_t>(rng());
      fps[j] = fp.fingerprint(sources[j]);
    }
    for (int combo = 0; combo < 8; ++combo) {
      std::vector<std::uint8_t> coeffs(n);
      const int mode = combo % 3;  // 0: dense GF(256), 1: GF(2), 2: sparse
      for (auto& c : coeffs) {
        if (mode == 0) {
          c = static_cast<std::uint8_t>(rng());
        } else if (mode == 1) {
          c = static_cast<std::uint8_t>(rng() & 1);
        } else {
          c = rng.bernoulli(0.3) ? static_cast<std::uint8_t>(rng()) : 0;
        }
      }
      std::vector<std::uint8_t> coded(size, 0);
      for (std::size_t j = 0; j < n; ++j) {
        if (coeffs[j] != 0) gf::Gf256::axpy(coded, coeffs[j], sources[j]);
      }
      ASSERT_EQ(fp.fingerprint(coded), fp.combine(coeffs, fps))
          << "round=" << round << " combo=" << combo << " size=" << size;
    }
  }
}

TEST(Gf64Fingerprint, SparseCombineMatchesDense) {
  Rng rng(21);
  const Fingerprinter fp(77);
  const std::size_t n = 40;
  std::vector<std::uint64_t> fps(n);
  for (auto& f : fps) f = rng();
  std::vector<std::uint8_t> dense(n, 0);
  std::vector<std::uint32_t> indices;
  std::vector<std::uint8_t> values;
  for (std::size_t j = 0; j < n; ++j) {
    if (!rng.bernoulli(0.2)) continue;
    const auto v = static_cast<std::uint8_t>(1 + rng.uniform(255));
    dense[j] = v;
    indices.push_back(static_cast<std::uint32_t>(j));
    values.push_back(v);
  }
  EXPECT_EQ(fp.combine_sparse(indices, values, fps), fp.combine(dense, fps));
}

TEST(Gf64Fingerprint, BuildManifestCoversEveryBlock) {
  Rng rng(8);
  const std::size_t blocks = 7, size = 13;
  std::vector<std::uint8_t> source(blocks * size);
  for (auto& b : source) b = static_cast<std::uint8_t>(rng());
  const FingerprintManifest manifest = build_manifest(500, source, size);
  EXPECT_EQ(manifest.block_size, size);
  ASSERT_EQ(manifest.fingerprints.size(), blocks);
  const Fingerprinter fp(500);
  for (std::size_t j = 0; j < blocks; ++j) {
    EXPECT_EQ(manifest.fingerprints[j],
              fp.fingerprint(std::span<const std::uint8_t>(source).subspan(j * size, size)));
  }
}

// --- portable vs carry-less path -------------------------------------------
//
// Each implementation is held against byte-serial Horner with the bitwise
// multiply on its own, so the portable path stays covered on a PCLMULQDQ
// host and the clmul path is checked wherever the CPU has it.

TEST(Gf64Paths, ClmulMultiplyMatchesBitwise) {
  if (!clmul_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  const std::uint64_t edges[] = {0, 1, ~std::uint64_t{0}, std::uint64_t{1} << 63};
  for (const std::uint64_t a : edges) {
    for (const std::uint64_t b : edges) {
      ASSERT_EQ(detail::gf64_mul_clmul(a, b), detail::gf64_mul_portable(a, b))
          << std::hex << "a=" << a << " b=" << b;
    }
  }
  Rng rng(0xC1A);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    ASSERT_EQ(detail::gf64_mul_clmul(a, b), detail::gf64_mul_portable(a, b))
        << std::hex << "a=" << a << " b=" << b;
  }
}

using FingerprintPath = std::uint64_t (*)(const Fingerprinter&, std::span<const std::uint8_t>);

/// Lengths 0-300 (word counts on every residue mod 8, with and without a
/// padded head word, and every group boundary up to 4 groups) and
/// 64 KiB +- 1..7, at start offsets 0-15.
void expect_path_matches_reference(FingerprintPath path) {
  constexpr std::size_t kBig = 65536;
  Rng rng(0xA12);
  std::vector<std::uint8_t> buffer(kBig + 7 + 16);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (const std::uint64_t seed : {std::uint64_t{5}, std::uint64_t{0xFEED}}) {
    const Fingerprinter fp(seed);
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const auto from = std::span<const std::uint8_t>(buffer).subspan(offset);
      std::uint64_t acc = 0;
      for (std::size_t len = 0; len <= kBig + 7; ++len) {
        if (len <= 300 || (len + 7 >= kBig && len != kBig)) {
          ASSERT_EQ(path(fp, from.first(len)), acc)
              << "seed=" << seed << " offset=" << offset << " len=" << len;
        }
        acc = detail::gf64_mul_portable(acc, fp.point()) ^ gf64_embed(from[len]);
      }
    }
  }
}

TEST(Gf64Paths, PortableFingerprintMatchesReference) {
  expect_path_matches_reference(detail::fingerprint_portable);
}

TEST(Gf64Paths, ClmulFingerprintMatchesReference) {
  if (!clmul_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_path_matches_reference(detail::fingerprint_clmul);
}

TEST(Gf64Paths, BothPathsReproduceThePinnedValues) {
  // fingerprint() itself is pinned above; each path must agree with it.
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42}}) {
    const Fingerprinter fp(seed);
    for (const std::size_t len : {0, 1, 7, 8, 9, 16, 100, 1024, 65536, 65543}) {
      const auto data = pattern(len);
      EXPECT_EQ(detail::fingerprint_portable(fp, data), fp.fingerprint(data))
          << "seed=" << seed << " len=" << len;
      if (clmul_supported()) {
        EXPECT_EQ(detail::fingerprint_clmul(fp, data), fp.fingerprint(data))
            << "seed=" << seed << " len=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace prlc::util
