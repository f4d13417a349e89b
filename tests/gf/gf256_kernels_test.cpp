// Differential tests for the vectorized GF(2^8) kernels: every compiled
// variant must agree with the reference byte-wise product-table loop on
// randomized spans, including unaligned offsets and the lengths around
// every vector-width boundary where tail handling lives.
#include "gf/gf256_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/gf256.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::gf {
namespace {

// Lengths straddling the 8-byte (scalar64), 16-byte (SSSE3), 32/64-byte
// (AVX2) and 64/128-byte (GFNI, masked tails) strides, plus 0/1 and large
// ones.
constexpr std::size_t kLengths[] = {0,   1,   7,   8,   9,   15,  16,  17,   31,   32,  33,
                                    63,  64,  65,  127, 128, 129, 191, 192,  193,  255,
                                    256, 257, 319, 4095, 4096, 4097};
// Start offsets into the backing buffers — misaligns the spans relative to
// every vector width the kernels use.
constexpr std::size_t kOffsets[] = {0, 1, 3, 13};

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) v = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

class Gf256KernelsTest : public ::testing::TestWithParam<Gf256Kernel> {};

TEST_P(Gf256KernelsTest, AxpyMatchesReference) {
  const Gf256Kernel kernel = GetParam();
  if (!gf256_kernel_runtime_ok(kernel)) {
    GTEST_SKIP() << gf256_kernel_name(kernel) << " not supported on this CPU";
  }
  const Gf256KernelOps& ops = gf256_kernel_ops(kernel);
  Rng rng(101);
  for (std::size_t offset : kOffsets) {
    for (std::size_t len : kLengths) {
      auto x = random_bytes(offset + len, rng);
      auto y = random_bytes(offset + len, rng);
      for (std::uint8_t a :
           {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{0x1D},
            static_cast<std::uint8_t>(rng.uniform(256)), std::uint8_t{255}}) {
        auto expect = y;
        for (std::size_t i = 0; i < len; ++i) {
          expect[offset + i] ^= Gf256::mul(a, x[offset + i]);
        }
        auto got = y;
        ops.axpy(got.data() + offset, x.data() + offset, a, len);
        ASSERT_EQ(got, expect) << gf256_kernel_name(kernel) << " a=" << int(a)
                               << " len=" << len << " offset=" << offset;
      }
    }
  }
}

TEST_P(Gf256KernelsTest, MulRegionMatchesReferenceIncludingAliased) {
  const Gf256Kernel kernel = GetParam();
  if (!gf256_kernel_runtime_ok(kernel)) {
    GTEST_SKIP() << gf256_kernel_name(kernel) << " not supported on this CPU";
  }
  const Gf256KernelOps& ops = gf256_kernel_ops(kernel);
  Rng rng(102);
  for (std::size_t offset : kOffsets) {
    for (std::size_t len : kLengths) {
      const auto src = random_bytes(offset + len, rng);
      for (std::uint8_t a : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{0x53},
                             static_cast<std::uint8_t>(rng.uniform(256))}) {
        std::vector<std::uint8_t> expect(len);
        for (std::size_t i = 0; i < len; ++i) expect[i] = Gf256::mul(a, src[offset + i]);

        std::vector<std::uint8_t> dst(len, 0xEE);
        ops.mul_region(dst.data(), src.data() + offset, a, len);
        ASSERT_EQ(dst, expect) << gf256_kernel_name(kernel) << " a=" << int(a)
                               << " len=" << len << " offset=" << offset;

        // Aliased call (dst == src) is the scale() path.
        auto aliased = src;
        ops.mul_region(aliased.data() + offset, aliased.data() + offset, a, len);
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(), aliased.begin() + offset))
            << gf256_kernel_name(kernel) << " aliased a=" << int(a) << " len=" << len;
      }
    }
  }
}

// lincomb against the per-byte definition: every length 0..300 plus
// 64 KiB +- 1, destination and sources at unrelated misalignments, source
// counts either side of the GFNI tier's 8-source pass, and coefficient
// sets that include 0 and 1.
TEST_P(Gf256KernelsTest, LincombMatchesReference) {
  const Gf256Kernel kernel = GetParam();
  if (!gf256_kernel_runtime_ok(kernel)) {
    GTEST_SKIP() << gf256_kernel_name(kernel) << " not supported on this CPU";
  }
  const Gf256KernelOps& ops = gf256_kernel_ops(kernel);
  Rng rng(106);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {65535, 65536, 65537}) lengths.push_back(n);
  constexpr std::size_t kSourceCounts[] = {0, 1, 2, 7, 8, 9, 17, 64};
  for (std::size_t n : lengths) {
    const bool big = n > 300;
    for (std::size_t k : kSourceCounts) {
      // 64 sources of 64 KiB run at exactly 64 KiB only, to keep the
      // per-byte expectation cheap.
      if (big && k == 64 && n != 65536) continue;
      const std::size_t dst_off = 1 + (n + k) % 5;
      std::vector<std::vector<std::uint8_t>> backing;
      std::vector<const std::uint8_t*> srcs;
      std::vector<std::uint8_t> coeffs;
      for (std::size_t s = 0; s < k; ++s) {
        const std::size_t off = (s * 7 + n) % 13;
        backing.push_back(random_bytes(off + n, rng));
        srcs.push_back(backing.back().data() + off);
        // Every third coefficient is 0 or 1; the rest are random.
        coeffs.push_back(s % 3 == 0 ? static_cast<std::uint8_t>(s % 2)
                                    : static_cast<std::uint8_t>(rng.uniform(256)));
      }
      std::vector<std::uint8_t> expect(n, 0);
      for (std::size_t s = 0; s < k; ++s) {
        for (std::size_t i = 0; i < n; ++i) expect[i] ^= Gf256::mul(coeffs[s], srcs[s][i]);
      }
      // Guard bytes either side of dst catch a tail store that overruns.
      std::vector<std::uint8_t> dst(dst_off + n + 64, 0xEE);
      ops.lincomb(dst.data() + dst_off, srcs.data(), coeffs.data(), k, n);
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(), dst.begin() + dst_off))
          << gf256_kernel_name(kernel) << " n=" << n << " k=" << k;
      for (std::size_t i = 0; i < dst_off; ++i) ASSERT_EQ(dst[i], 0xEE) << "underrun n=" << n;
      for (std::size_t i = dst_off + n; i < dst.size(); ++i) {
        ASSERT_EQ(dst[i], 0xEE) << "overrun n=" << n << " k=" << k;
      }
    }
  }
}

TEST_P(Gf256KernelsTest, DotMatchesReference) {
  const Gf256Kernel kernel = GetParam();
  if (!gf256_kernel_runtime_ok(kernel)) {
    GTEST_SKIP() << gf256_kernel_name(kernel) << " not supported on this CPU";
  }
  const Gf256KernelOps& ops = gf256_kernel_ops(kernel);
  Rng rng(103);
  for (std::size_t len : kLengths) {
    const auto a = random_bytes(len, rng);
    const auto b = random_bytes(len, rng);
    std::uint8_t expect = 0;
    for (std::size_t i = 0; i < len; ++i) expect ^= Gf256::mul(a[i], b[i]);
    EXPECT_EQ(ops.dot(a.data(), b.data(), len), expect)
        << gf256_kernel_name(kernel) << " len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompiledVariants, Gf256KernelsTest,
                         ::testing::ValuesIn(gf256_compiled_kernels()),
                         [](const ::testing::TestParamInfo<Gf256Kernel>& info) {
                           return gf256_kernel_name(info.param);
                         });

TEST(Gf256Kernels, DispatchPicksARuntimeSupportedVariant) {
  const Gf256Kernel active = gf256_active_kernel();
  EXPECT_TRUE(gf256_kernel_runtime_ok(active)) << gf256_kernel_name(active);
  EXPECT_STREQ(gf256_active_ops().name, gf256_kernel_name(active));
}

TEST(Gf256Kernels, ForceActiveKernelRedirectsGf256SpanOps) {
  const Gf256Kernel before = gf256_active_kernel();
  Rng rng(104);
  const auto x = random_bytes(1000, rng);
  const auto y0 = random_bytes(1000, rng);
  std::vector<std::vector<std::uint8_t>> results;
  for (Gf256Kernel k : gf256_compiled_kernels()) {
    if (!gf256_kernel_runtime_ok(k)) continue;
    gf256_force_active_kernel(k);
    EXPECT_EQ(gf256_active_kernel(), k);
    auto y = y0;
    Gf256::axpy(std::span<std::uint8_t>(y), 0x8F, std::span<const std::uint8_t>(x));
    results.push_back(std::move(y));
  }
  gf256_force_active_kernel(before);
  for (std::size_t i = 1; i < results.size(); ++i) EXPECT_EQ(results[i], results[0]);
}

TEST(Gf256Kernels, AxpyBatchMatchesPerRowAxpy) {
  Rng rng(105);
  const std::size_t rows = 17;
  // One tile minus/at/plus one byte, a ragged third tile and the original
  // 10000-byte case, so every tile edge of axpy_batch is exercised.
  for (const std::size_t n :
       {std::size_t{10000}, kGf256TileBytes - 1, kGf256TileBytes, kGf256TileBytes + 1,
        3 * kGf256TileBytes + 5}) {
    const auto x = random_bytes(n, rng);
    std::vector<std::vector<std::uint8_t>> targets;
    std::vector<std::uint8_t> coeffs;
    for (std::size_t r = 0; r < rows; ++r) {
      targets.push_back(random_bytes(n, rng));
      coeffs.push_back(static_cast<std::uint8_t>(r % 5 == 0 ? 0 : rng.uniform(256)));
    }
    auto expect = targets;
    for (std::size_t r = 0; r < rows; ++r) {
      Gf256::axpy(std::span<std::uint8_t>(expect[r]), coeffs[r],
                  std::span<const std::uint8_t>(x));
    }
    std::vector<std::uint8_t*> ptrs;
    for (auto& t : targets) ptrs.push_back(t.data());
    Gf256::axpy_batch(std::span<std::uint8_t* const>(ptrs),
                      std::span<const std::uint8_t>(coeffs),
                      std::span<const std::uint8_t>(x));
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(targets[r], expect[r]) << "n " << n << " row " << r;
    }
  }
}

TEST(Gf256Kernels, LincombRoutesThroughTheActiveKernel) {
  Rng rng(107);
  const std::size_t n = 5000;
  std::vector<std::vector<std::uint8_t>> backing;
  std::vector<const std::uint8_t*> srcs;
  std::vector<std::uint8_t> coeffs;
  for (std::size_t s = 0; s < 11; ++s) {
    backing.push_back(random_bytes(n, rng));
    srcs.push_back(backing.back().data());
    coeffs.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
  }
  // The same combination as explicit per-source axpy calls.
  std::vector<std::uint8_t> expect(n, 0);
  for (std::size_t s = 0; s < srcs.size(); ++s) {
    Gf256::axpy(std::span<std::uint8_t>(expect), coeffs[s],
                std::span<const std::uint8_t>(backing[s]));
  }
  const Gf256Kernel before = gf256_active_kernel();
  for (Gf256Kernel k : gf256_compiled_kernels()) {
    if (!gf256_kernel_runtime_ok(k)) continue;
    gf256_force_active_kernel(k);
    std::vector<std::uint8_t> got(n, 0xAB);
    Gf256::lincomb(std::span<std::uint8_t>(got), std::span<const std::uint8_t* const>(srcs),
                   std::span<const std::uint8_t>(coeffs));
    EXPECT_EQ(got, expect) << gf256_kernel_name(k);
  }
  gf256_force_active_kernel(before);
}

TEST(Gf256Kernels, EveryVariantHasADistinctNameMatchingItsOps) {
  const auto compiled = gf256_compiled_kernels();
  for (std::size_t i = 0; i <= static_cast<std::size_t>(Gf256Kernel::kGfni); ++i) {
    const auto k = static_cast<Gf256Kernel>(i);
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_STRNE(gf256_kernel_name(k), gf256_kernel_name(static_cast<Gf256Kernel>(j)));
    }
    if (gf256_kernel_compiled(k)) {
      EXPECT_STREQ(gf256_kernel_ops(k).name, gf256_kernel_name(k));
    }
  }
  EXPECT_STREQ(gf256_kernel_name(Gf256Kernel::kGfni), "gfni");
  EXPECT_EQ(compiled.front(), Gf256Kernel::kReference);
}

TEST(Gf256Kernels, ForcingUnsupportedVariantThrows) {
  for (Gf256Kernel k : {Gf256Kernel::kSsse3, Gf256Kernel::kAvx2, Gf256Kernel::kGfni}) {
    if (gf256_kernel_runtime_ok(k)) continue;
    EXPECT_THROW(gf256_force_active_kernel(k), PreconditionError);
  }
  SUCCEED();
}

}  // namespace
}  // namespace prlc::gf
