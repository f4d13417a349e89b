#include "gf/gf256_kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "gf/gf256.h"
#include "obs/metrics.h"
#include "util/check.h"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define PRLC_GF256_X86 1
#include <immintrin.h>
#else
#define PRLC_GF256_X86 0
#endif

namespace prlc::gf {
namespace {

// ---------------------------------------------------------------------------
// Split-nibble product tables: lo[a][n] = a * n, hi[a][n] = a * (n << 4), so
// a * x == lo[a][x & 15] ^ hi[a][x >> 4]. 16-byte alignment lets the SIMD
// variants load each table with one aligned 128-bit load. Built bit-by-bit
// so the kernels are independent of the Gf256 product table they are
// differential-tested against.
// ---------------------------------------------------------------------------

std::uint8_t bitwise_mul(std::uint8_t a, std::uint8_t b) {
  std::uint16_t acc = 0;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1 << bit)) acc ^= static_cast<std::uint16_t>(a) << bit;
  }
  for (int bit = 15; bit >= 8; --bit) {
    if (acc & (1 << bit)) acc ^= static_cast<std::uint16_t>(Gf256::modulus()) << (bit - 8);
  }
  return static_cast<std::uint8_t>(acc);
}

struct NibbleTables {
  alignas(64) std::uint8_t lo[256][16];
  alignas(64) std::uint8_t hi[256][16];
  NibbleTables() {
    for (int a = 0; a < 256; ++a) {
      for (int n = 0; n < 16; ++n) {
        lo[a][n] = bitwise_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(n));
        hi[a][n] = bitwise_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(n << 4));
      }
    }
  }
};

const NibbleTables& nib() {
  static const NibbleTables t;
  return t;
}

// Affine bit-matrices for gf2p8affineqb: multiplying by a constant c is
// linear over GF(2), so c * x == M_c x for an 8x8 bit-matrix whose column j
// is c * 2^j. The instruction takes output bit i from the parity of
// (matrix byte 7-i) & x, so byte 7-i holds row i: bit j of that byte is
// bit i of c * 2^j. Built bit-by-bit from bitwise_mul like the nibble
// tables, so poly 0x11D is baked in (vgf2p8mulb is fixed to 0x11B).
struct AffineMatrices {
  alignas(64) std::uint64_t m[256];
  AffineMatrices() {
    for (int c = 0; c < 256; ++c) {
      std::uint64_t mat = 0;
      for (int j = 0; j < 8; ++j) {
        const std::uint8_t col =
            bitwise_mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(1 << j));
        for (int i = 0; i < 8; ++i) {
          if ((col >> i) & 1) mat |= std::uint64_t{1} << (8 * (7 - i) + j);
        }
      }
      m[c] = mat;
    }
  }
};

const AffineMatrices& affine() {
  static const AffineMatrices t;
  return t;
}

// ---------------------------------------------------------------------------
// dot — shared across variants. It only runs over coefficient vectors (the
// matrix-vector products in linalg), never payload spans, and a variable ×
// variable SIMD multiply would need a different decomposition entirely, so
// the product-table loop is kept for every variant.
// ---------------------------------------------------------------------------

std::uint8_t dot_table(const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc ^= Gf256::mul(a[i], b[i]);
  return acc;
}

// ---------------------------------------------------------------------------
// kReference — the seed implementation: one lookup per byte in the 64 KiB
// product table. Kept verbatim as the baseline the other variants are
// differential-tested (and benchmarked) against.
// ---------------------------------------------------------------------------

void axpy_reference(std::uint8_t* y, const std::uint8_t* x, std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  if (a == 1) {
    for (std::size_t i = 0; i < n; ++i) y[i] ^= x[i];
    return;
  }
  const std::uint8_t* row = Gf256::mul_row(a);
  for (std::size_t i = 0; i < n; ++i) y[i] ^= row[x[i]];
}

void mul_region_reference(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t a,
                          std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (a == 1) {
    if (dst != src) std::memcpy(dst, src, n);
    return;
  }
  const std::uint8_t* row = Gf256::mul_row(a);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

void lincomb_reference(std::uint8_t* dst, const std::uint8_t* const* srcs,
                       const std::uint8_t* coeffs, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t acc = 0;
    for (std::size_t s = 0; s < k; ++s) acc ^= Gf256::mul(coeffs[s], srcs[s][i]);
    dst[i] = acc;
  }
}

/// lincomb as one mul_region followed by one axpy per further source, so
/// the pshufb and scalar tiers run the same instructions as per-source axpy
/// calls (a fused AVX2 pass that kept sources in registers measured slower).
template <auto MulRegion, auto Axpy>
void lincomb_by_axpy(std::uint8_t* dst, const std::uint8_t* const* srcs,
                     const std::uint8_t* coeffs, std::size_t k, std::size_t n) {
  if (k == 0) {
    if (n != 0) std::memset(dst, 0, n);
    return;
  }
  MulRegion(dst, srcs[0], coeffs[0], n);
  for (std::size_t s = 1; s < k; ++s) Axpy(dst, srcs[s], coeffs[s], n);
}

// ---------------------------------------------------------------------------
// kScalar64 — portable split-nibble kernel, 8 bytes per iteration. The two
// 16-entry tables (32 bytes per multiplier) replace the 256-byte product
// row, so the working set stays in L1 even when every row operation uses a
// different multiplier, as in Gauss-Jordan elimination.
// ---------------------------------------------------------------------------

void axpy_scalar64(std::uint8_t* y, const std::uint8_t* x, std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  const std::uint8_t* lo = nib().lo[a];
  const std::uint8_t* hi = nib().hi[a];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t xw;
    std::uint64_t yw;
    std::memcpy(&xw, x + i, 8);
    std::memcpy(&yw, y + i, 8);
    std::uint64_t prod = 0;
    for (int b = 0; b < 8; ++b) {
      const auto xb = static_cast<std::uint8_t>(xw >> (8 * b));
      prod |= static_cast<std::uint64_t>(lo[xb & 15] ^ hi[xb >> 4]) << (8 * b);
    }
    yw ^= prod;
    std::memcpy(y + i, &yw, 8);
  }
  for (; i < n; ++i) y[i] ^= lo[x[i] & 15] ^ hi[x[i] >> 4];
}

void mul_region_scalar64(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t a,
                         std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  const std::uint8_t* lo = nib().lo[a];
  const std::uint8_t* hi = nib().hi[a];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t xw;
    std::memcpy(&xw, src + i, 8);
    std::uint64_t prod = 0;
    for (int b = 0; b < 8; ++b) {
      const auto xb = static_cast<std::uint8_t>(xw >> (8 * b));
      prod |= static_cast<std::uint64_t>(lo[xb & 15] ^ hi[xb >> 4]) << (8 * b);
    }
    std::memcpy(dst + i, &prod, 8);
  }
  for (; i < n; ++i) dst[i] = lo[src[i] & 15] ^ hi[src[i] >> 4];
}

// ---------------------------------------------------------------------------
// kSsse3 / kAvx2 — pshufb split-nibble kernels. Both nibble tables fit in
// one vector register each; shuffle_epi8 then performs a full 16-way table
// lookup per lane per instruction. Compiled with `target` attributes so no
// global -mssse3/-mavx2 flags are needed and the rest of the binary stays
// baseline-ISA; only ever called after a __builtin_cpu_supports check.
// ---------------------------------------------------------------------------

#if PRLC_GF256_X86

__attribute__((target("ssse3"))) void axpy_ssse3(std::uint8_t* y, const std::uint8_t* x,
                                                 std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib().lo[a]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(nib().hi[a]));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i xv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i lo_prod = _mm_shuffle_epi8(lo, _mm_and_si128(xv, mask));
    const __m128i hi_prod =
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(xv, 4), mask));
    const __m128i yv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y + i),
                     _mm_xor_si128(yv, _mm_xor_si128(lo_prod, hi_prod)));
  }
  const std::uint8_t* tlo = nib().lo[a];
  const std::uint8_t* thi = nib().hi[a];
  for (; i < n; ++i) y[i] ^= tlo[x[i] & 15] ^ thi[x[i] >> 4];
}

__attribute__((target("ssse3"))) void mul_region_ssse3(std::uint8_t* dst,
                                                       const std::uint8_t* src,
                                                       std::uint8_t a, std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(nib().lo[a]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(nib().hi[a]));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i xv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i lo_prod = _mm_shuffle_epi8(lo, _mm_and_si128(xv, mask));
    const __m128i hi_prod =
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(xv, 4), mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(lo_prod, hi_prod));
  }
  const std::uint8_t* tlo = nib().lo[a];
  const std::uint8_t* thi = nib().hi[a];
  for (; i < n; ++i) dst[i] = tlo[src[i] & 15] ^ thi[src[i] >> 4];
}

__attribute__((target("avx2"))) void axpy_avx2(std::uint8_t* y, const std::uint8_t* x,
                                               std::uint8_t a, std::size_t n) {
  if (a == 0) return;
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().lo[a])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().hi[a])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i x0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i x1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i + 32));
    const __m256i p0 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x0, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x0, 4), mask)));
    const __m256i p1 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x1, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x1, 4), mask)));
    const __m256i y0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i y1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), _mm256_xor_si256(y0, p0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i + 32), _mm256_xor_si256(y1, p1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(xv, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(xv, 4), mask)));
    const __m256i yv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), _mm256_xor_si256(yv, prod));
  }
  const std::uint8_t* tlo = nib().lo[a];
  const std::uint8_t* thi = nib().hi[a];
  for (; i < n; ++i) y[i] ^= tlo[x[i] & 15] ^ thi[x[i] >> 4];
}

__attribute__((target("avx2"))) void mul_region_avx2(std::uint8_t* dst,
                                                     const std::uint8_t* src,
                                                     std::uint8_t a, std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().lo[a])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(nib().hi[a])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(xv, mask)),
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(xv, 4), mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), prod);
  }
  const std::uint8_t* tlo = nib().lo[a];
  const std::uint8_t* thi = nib().hi[a];
  for (; i < n; ++i) dst[i] = tlo[src[i] & 15] ^ thi[src[i] >> 4];
}

// ---------------------------------------------------------------------------
// kGfni — one vgf2p8affineqb per 64 bytes: the multiplier's bit-matrix is
// broadcast to every qword lane and the instruction applies it to all 64
// bytes at once. Tails run through masked loads/stores (masked-off bytes
// are never touched, so no read past the end of a span).
// ---------------------------------------------------------------------------

#define PRLC_GFNI_TARGET __attribute__((target("avx512f,avx512bw,gfni")))

PRLC_GFNI_TARGET inline __m512i gfni_mul(__m512i x, __m512i mat) {
  return _mm512_gf2p8affine_epi64_epi8(x, mat, 0);
}

/// Byte mask of the first `len` lanes, 0 < len < 64.
inline __mmask64 tail_mask(std::size_t len) { return (std::uint64_t{1} << len) - 1; }

PRLC_GFNI_TARGET void axpy_gfni(std::uint8_t* y, const std::uint8_t* x, std::uint8_t a,
                                std::size_t n) {
  if (a == 0) return;
  const __m512i mat = _mm512_set1_epi64(static_cast<long long>(affine().m[a]));
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    const __m512i p0 = gfni_mul(_mm512_loadu_si512(x + i), mat);
    const __m512i p1 = gfni_mul(_mm512_loadu_si512(x + i + 64), mat);
    _mm512_storeu_si512(y + i, _mm512_xor_si512(_mm512_loadu_si512(y + i), p0));
    _mm512_storeu_si512(y + i + 64, _mm512_xor_si512(_mm512_loadu_si512(y + i + 64), p1));
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i p = gfni_mul(_mm512_loadu_si512(x + i), mat);
    _mm512_storeu_si512(y + i, _mm512_xor_si512(_mm512_loadu_si512(y + i), p));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    const __m512i p = gfni_mul(_mm512_maskz_loadu_epi8(m, x + i), mat);
    _mm512_mask_storeu_epi8(y + i, m, _mm512_xor_si512(_mm512_maskz_loadu_epi8(m, y + i), p));
  }
}

PRLC_GFNI_TARGET void mul_region_gfni(std::uint8_t* dst, const std::uint8_t* src,
                                      std::uint8_t a, std::size_t n) {
  if (n == 0) return;
  if (a == 0) {
    std::memset(dst, 0, n);
    return;
  }
  const __m512i mat = _mm512_set1_epi64(static_cast<long long>(affine().m[a]));
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    _mm512_storeu_si512(dst + i, gfni_mul(_mm512_loadu_si512(src + i), mat));
  }
  if (i < n) {
    const __mmask64 m = tail_mask(n - i);
    _mm512_mask_storeu_epi8(dst + i, m, gfni_mul(_mm512_maskz_loadu_epi8(m, src + i), mat));
  }
}

/// Sources per accumulation pass; each pass reads up to this many source
/// streams and writes the destination once.
constexpr std::size_t kGfniGroup = 8;
/// Bytes of destination finished by every pass before the next chunk, so
/// the partial sums of a k > kGfniGroup combination stay in L1.
constexpr std::size_t kGfniChunk = 4096;

/// dst[i] (^)= sum over g sources of mats[s] * srcs[s][i] on [0, len),
/// starting from zero when `first`, else from the bytes already in dst.
PRLC_GFNI_TARGET void lincomb_pass_gfni(std::uint8_t* dst, const std::uint8_t* const* srcs,
                                        const __m512i* mats, std::size_t g, std::size_t off,
                                        std::size_t len, bool first) {
  std::size_t i = off;
  const std::size_t end = off + len;
  for (; i + 64 <= end; i += 64) {
    __m512i acc = first ? _mm512_setzero_si512() : _mm512_loadu_si512(dst + i);
    for (std::size_t s = 0; s < g; ++s) {
      acc = _mm512_xor_si512(acc, gfni_mul(_mm512_loadu_si512(srcs[s] + i), mats[s]));
    }
    _mm512_storeu_si512(dst + i, acc);
  }
  if (i < end) {
    const __mmask64 m = tail_mask(end - i);
    __m512i acc = first ? _mm512_setzero_si512() : _mm512_maskz_loadu_epi8(m, dst + i);
    for (std::size_t s = 0; s < g; ++s) {
      acc = _mm512_xor_si512(acc, gfni_mul(_mm512_maskz_loadu_epi8(m, srcs[s] + i), mats[s]));
    }
    _mm512_mask_storeu_epi8(dst + i, m, acc);
  }
}

PRLC_GFNI_TARGET void lincomb_gfni(std::uint8_t* dst, const std::uint8_t* const* srcs,
                                   const std::uint8_t* coeffs, std::size_t k, std::size_t n) {
  if (n == 0) return;
  const std::uint8_t* live_srcs[kGfniGroup] = {};
  __m512i mats[kGfniGroup] = {};
  for (std::size_t off = 0; off < n; off += kGfniChunk) {
    const std::size_t len = n - off < kGfniChunk ? n - off : kGfniChunk;
    bool first = true;
    std::size_t g = 0;
    for (std::size_t s = 0; s < k; ++s) {
      if (coeffs[s] == 0) continue;  // contributes nothing
      live_srcs[g] = srcs[s];
      mats[g] = _mm512_set1_epi64(static_cast<long long>(affine().m[coeffs[s]]));
      if (++g == kGfniGroup) {
        lincomb_pass_gfni(dst, live_srcs, mats, g, off, len, first);
        first = false;
        g = 0;
      }
    }
    if (g != 0 || first) lincomb_pass_gfni(dst, live_srcs, mats, g, off, len, first);
  }
}

#undef PRLC_GFNI_TARGET

#endif  // PRLC_GF256_X86

// ---------------------------------------------------------------------------
// Variant registry + one-time dispatch.
// ---------------------------------------------------------------------------

/// One row per Gf256Kernel value, in that order, which is also ascending
/// preference: dispatch, names, the compiled list and the PRLC_GF_KERNEL
/// error text are all read from here. A variant not compiled into this
/// build keeps its name but has null function pointers.
struct Variant {
  Gf256KernelOps ops;
  bool (*cpu_ok)();
};

constexpr bool always() { return true; }

constexpr Variant kVariants[] = {
    {{"reference", axpy_reference, mul_region_reference, dot_table, lincomb_reference}, always},
    {{"scalar64", axpy_scalar64, mul_region_scalar64, dot_table,
      lincomb_by_axpy<mul_region_scalar64, axpy_scalar64>},
     always},
#if PRLC_GF256_X86
    {{"ssse3", axpy_ssse3, mul_region_ssse3, dot_table,
      lincomb_by_axpy<mul_region_ssse3, axpy_ssse3>},
     [] { return __builtin_cpu_supports("ssse3") != 0; }},
    {{"avx2", axpy_avx2, mul_region_avx2, dot_table, lincomb_by_axpy<mul_region_avx2, axpy_avx2>},
     [] { return __builtin_cpu_supports("avx2") != 0; }},
    {{"gfni", axpy_gfni, mul_region_gfni, dot_table, lincomb_gfni},
     [] {
       return __builtin_cpu_supports("gfni") && __builtin_cpu_supports("avx512f") &&
              __builtin_cpu_supports("avx512bw");
     }},
#else
    {{"ssse3", nullptr, nullptr, nullptr, nullptr}, always},
    {{"avx2", nullptr, nullptr, nullptr, nullptr}, always},
    {{"gfni", nullptr, nullptr, nullptr, nullptr}, always},
#endif
};
constexpr std::size_t kVariantCount = std::size(kVariants);
static_assert(kVariantCount == static_cast<std::size_t>(Gf256Kernel::kGfni) + 1,
              "kVariants needs one row per Gf256Kernel value");

const Variant& variant(Gf256Kernel k) {
  const auto i = static_cast<std::size_t>(k);
  PRLC_REQUIRE(i < kVariantCount, "unknown GF(256) kernel variant");
  return kVariants[i];
}

/// Best runtime-supported variant, before any env override.
Gf256Kernel pick_auto() {
  for (std::size_t i = kVariantCount; i-- > 0;) {
    const auto k = static_cast<Gf256Kernel>(i);
    if (gf256_kernel_runtime_ok(k)) return k;
  }
  PRLC_ASSERT(false, "no runtime-supported GF(256) kernel");
}

Gf256Kernel resolve_dispatch() {
  const char* want = std::getenv("PRLC_GF_KERNEL");
  if (want == nullptr || *want == '\0' || std::strcmp(want, "auto") == 0) {
    return pick_auto();
  }
  std::string expected;
  for (const Variant& v : kVariants) {
    if (std::strcmp(want, v.ops.name) == 0) {
      const auto k = static_cast<Gf256Kernel>(&v - kVariants);
      if (gf256_kernel_runtime_ok(k)) return k;
      std::fprintf(stderr,
                   "prlc: PRLC_GF_KERNEL=%s is not supported on this build/CPU; "
                   "falling back to auto dispatch\n",
                   want);
      return pick_auto();
    }
    expected += v.ops.name;
    expected += '|';
  }
  std::fprintf(stderr,
               "prlc: unknown PRLC_GF_KERNEL=%s (expected %sauto); falling back to auto "
               "dispatch\n",
               want, expected.c_str());
  return pick_auto();
}

std::atomic<int> g_active_kernel{-1};

}  // namespace

const char* gf256_kernel_name(Gf256Kernel k) { return variant(k).ops.name; }

bool gf256_kernel_compiled(Gf256Kernel k) { return variant(k).ops.axpy != nullptr; }

bool gf256_kernel_runtime_ok(Gf256Kernel k) {
  return gf256_kernel_compiled(k) && variant(k).cpu_ok();
}

std::vector<Gf256Kernel> gf256_compiled_kernels() {
  std::vector<Gf256Kernel> out;
  for (std::size_t i = 0; i < kVariantCount; ++i) {
    const auto k = static_cast<Gf256Kernel>(i);
    if (gf256_kernel_compiled(k)) out.push_back(k);
  }
  return out;
}

const Gf256KernelOps& gf256_kernel_ops(Gf256Kernel k) {
  PRLC_REQUIRE(gf256_kernel_compiled(k), "GF(256) kernel variant not compiled in");
  return variant(k).ops;
}

namespace {

/// Export which variant won the dispatch (and whether an env override was
/// in play) — set every time the active kernel changes, so the registry
/// reflects the variant actually used by the most recent field ops.
void record_dispatch(Gf256Kernel k) {
  obs::gauge(std::string("gf256.dispatch.") + gf256_kernel_name(k)).set(1);
  obs::gauge("gf256.dispatch_variant").set(static_cast<int>(k));
}

}  // namespace

Gf256Kernel gf256_active_kernel() {
  int k = g_active_kernel.load(std::memory_order_acquire);
  if (k < 0) {
    const Gf256Kernel resolved = resolve_dispatch();
    int expected = -1;
    // On a race, first resolver wins; both compute the same value anyway
    // unless a concurrent force intervened, in which case the force wins.
    g_active_kernel.compare_exchange_strong(expected, static_cast<int>(resolved),
                                            std::memory_order_acq_rel);
    k = g_active_kernel.load(std::memory_order_acquire);
    record_dispatch(static_cast<Gf256Kernel>(k));
  }
  return static_cast<Gf256Kernel>(k);
}

const Gf256KernelOps& gf256_active_ops() { return gf256_kernel_ops(gf256_active_kernel()); }

void gf256_force_active_kernel(Gf256Kernel k) {
  PRLC_REQUIRE(gf256_kernel_runtime_ok(k),
               "cannot force a GF(256) kernel this build/CPU does not support");
  g_active_kernel.store(static_cast<int>(k), std::memory_order_release);
  record_dispatch(k);
}

void gf256_axpy_batch(std::uint8_t* const* ys, const std::uint8_t* coeffs,
                      const std::uint8_t* x, std::size_t rows, std::size_t n) {
  const Gf256KernelOps& ops = gf256_active_ops();
  static obs::Counter& batch_calls = obs::counter("gf256.axpy_batch_calls");
  static obs::Counter& batch_rows = obs::counter("gf256.axpy_batch_rows");
  static obs::Counter& batch_bytes = obs::counter("gf256.axpy_batch_bytes");
  batch_calls.add();
  batch_rows.add(rows);
  batch_bytes.add(rows * n);
  // Tile the shared source row so each chunk is applied to every target
  // while still L1/L2-resident.
  constexpr std::size_t tile = kGf256TileBytes;
  for (std::size_t off = 0; off < n; off += tile) {
    const std::size_t len = n - off < tile ? n - off : tile;
    for (std::size_t r = 0; r < rows; ++r) {
      if (coeffs[r] == 0) continue;
      ops.axpy(ys[r] + off, x + off, coeffs[r], len);
    }
  }
}

}  // namespace prlc::gf
