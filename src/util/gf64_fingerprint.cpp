#include "util/gf64_fingerprint.h"

#include <cstring>

#include "util/check.h"
#include "util/clmul.h"
#include "util/random.h"

#if PRLC_CLMUL_X86
#include <immintrin.h>
#endif

namespace prlc::util {

namespace {

// x^64 = x^4 + x^3 + x + 1 over GF(2). Folding the high word multiplies
// it by this low-degree remainder; the product reaches at most bit 67, so
// one second fold of those four bits finishes the reduction.
inline unsigned __int128 fold(std::uint64_t hi) {
  const auto h = static_cast<unsigned __int128>(hi);
  return (h << 4) ^ (h << 3) ^ (h << 1) ^ h;
}

#if PRLC_CLMUL_X86

/// The same two-fold reduction for a 128-bit carry-less product held in a
/// vector register: x's high word times x^4+x^3+x+1 (0x1B), then the top 4
/// bits of that once more.
PRLC_CLMUL_TARGET inline std::uint64_t reduce(__m128i x) {
  const __m128i poly = _mm_cvtsi32_si128(0x1B);
  const __m128i once = _mm_clmulepi64_si128(x, poly, 0x01);
  const __m128i twice = _mm_clmulepi64_si128(once, poly, 0x01);
  const __m128i reduced = _mm_xor_si128(_mm_xor_si128(x, once), twice);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(reduced));  // the low word
}

PRLC_CLMUL_TARGET inline __m128i pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

#endif

}  // namespace

std::uint64_t gf64_mul(std::uint64_t a, std::uint64_t b) {
  return clmul_supported() ? detail::gf64_mul_clmul(a, b) : detail::gf64_mul_portable(a, b);
}

namespace detail {

std::uint64_t gf64_mul_portable(std::uint64_t a, std::uint64_t b) {
  unsigned __int128 acc = 0;
  unsigned __int128 shifted = a;
  while (b != 0) {
    // Masked rather than branched: b's bits are data, not control flow.
    acc ^= shifted & -static_cast<unsigned __int128>(b & 1);
    shifted <<= 1;
    b >>= 1;
  }
  std::uint64_t lo = static_cast<std::uint64_t>(acc);
  const unsigned __int128 first = fold(static_cast<std::uint64_t>(acc >> 64));
  lo ^= static_cast<std::uint64_t>(first);
  lo ^= static_cast<std::uint64_t>(fold(static_cast<std::uint64_t>(first >> 64)));
  return lo;
}

#if PRLC_CLMUL_X86

PRLC_CLMUL_TARGET std::uint64_t gf64_mul_clmul(std::uint64_t a, std::uint64_t b) {
  return reduce(_mm_clmulepi64_si128(pair(a, 0), pair(b, 0), 0x00));
}

#else

std::uint64_t gf64_mul_clmul(std::uint64_t a, std::uint64_t b) {
  return gf64_mul_portable(a, b);  // never dispatched: clmul_supported() is false
}

#endif

}  // namespace detail

std::uint64_t gf64_pow(std::uint64_t a, std::uint64_t e) {
  std::uint64_t result = 1;
  std::uint64_t base = a;
  while (e != 0) {
    if (e & 1) result = gf64_mul(result, base);
    base = gf64_mul(base, base);
    e >>= 1;
  }
  return result;
}

namespace {

/// p(b) for the GF(2^8) modulus 0x11D = x^8 + x^4 + x^3 + x^2 + 1,
/// evaluated in GF(2^64).
std::uint64_t eval_gf256_modulus(std::uint64_t b) {
  const std::uint64_t b2 = gf64_mul(b, b);
  const std::uint64_t b3 = gf64_mul(b2, b);
  const std::uint64_t b4 = gf64_mul(b2, b2);
  const std::uint64_t b8 = gf64_mul(b4, b4);
  return b8 ^ b4 ^ b3 ^ b2 ^ 1;
}

/// A root of 0x11D inside GF(2^64). Roots of a degree-8 GF(2)-irreducible
/// polynomial live in the unique copy of GF(2^8), i.e. the order-255
/// multiplicative subgroup. Project a candidate onto that subgroup with
/// the exact cofactor (2^64-1)/255 = 0x0101010101010101, then scan its
/// powers; if the candidate landed in a proper subgroup (u's order
/// divides 255 strictly), try the next one.
std::uint64_t find_embed_root() {
  constexpr std::uint64_t kCofactor = 0x0101010101010101ULL;
  for (std::uint64_t t = 2; t < 64; ++t) {
    const std::uint64_t u = gf64_pow(t, kCofactor);
    if (u == 1) continue;
    std::uint64_t b = u;
    for (int k = 1; k < 255; ++k) {
      if (eval_gf256_modulus(b) == 0) return b;
      b = gf64_mul(b, u);
    }
  }
  PRLC_ASSERT(false, "no GF(2^8) root found in GF(2^64)");
}

const std::array<std::uint64_t, 256>& embed_table() {
  static const std::array<std::uint64_t, 256> table = [] {
    const std::uint64_t alpha = find_embed_root();
    std::array<std::uint64_t, 8> alpha_pow;
    alpha_pow[0] = 1;
    for (std::size_t i = 1; i < 8; ++i) alpha_pow[i] = gf64_mul(alpha_pow[i - 1], alpha);
    std::array<std::uint64_t, 256> out{};
    for (std::size_t v = 0; v < 256; ++v) {
      std::uint64_t e = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        if (v & (std::size_t{1} << i)) e ^= alpha_pow[i];
      }
      out[v] = e;
    }
    return out;
  }();
  return table;
}

}  // namespace

std::uint64_t gf64_embed(std::uint8_t value) { return embed_table()[value]; }

namespace {

/// Fill a GF(2)-linear lookup table from its 8 single-bit entries:
/// t[b] = xor of bit[i] over the set bits i of b.
void expand_linear(std::array<std::uint64_t, 256>& t, const std::array<std::uint64_t, 8>& bit) {
  t[0] = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t half = std::size_t{1} << i;
    for (std::size_t b = 0; b < half; ++b) t[half | b] = t[b] ^ bit[i];
  }
}

/// Fold the 8-bit column planes of a coefficient vector:
/// sum_i embed(2^i) * plane[i] = sum_j embed(c_j) * fp_j (embed is
/// GF(2)-linear, embed(1) = 1).
std::uint64_t finish_planes(const std::array<std::uint64_t, 8>& plane) {
  const std::array<std::uint64_t, 256>& embed = embed_table();
  std::uint64_t acc = plane[0];
  for (std::size_t i = 1; i < 8; ++i) acc ^= gf64_mul(embed[std::size_t{1} << i], plane[i]);
  return acc;
}

/// plane[i] ^= fp wherever bit i of c is set (unrolled so the planes stay
/// in registers).
inline void accumulate_planes(std::array<std::uint64_t, 8>& plane, std::uint8_t c,
                              std::uint64_t fp) {
  const auto masked = [&](int i) { return fp & (0 - static_cast<std::uint64_t>((c >> i) & 1)); };
  plane[0] ^= masked(0);
  plane[1] ^= masked(1);
  plane[2] ^= masked(2);
  plane[3] ^= masked(3);
  plane[4] ^= masked(4);
  plane[5] ^= masked(5);
  plane[6] ^= masked(6);
  plane[7] ^= masked(7);
}

using SlicedTables = std::array<std::array<std::uint64_t, 256>, 8>;

/// sum_k t[k][byte k of v]: a GF(2)-linear map of v, one lookup per byte.
inline std::uint64_t apply_sliced(const SlicedTables& t, std::uint64_t v) {
  return ((t[0][v & 0xff] ^ t[1][(v >> 8) & 0xff]) ^
          (t[2][(v >> 16) & 0xff] ^ t[3][(v >> 24) & 0xff])) ^
         ((t[4][(v >> 32) & 0xff] ^ t[5][(v >> 40) & 0xff]) ^
          (t[6][(v >> 48) & 0xff] ^ t[7][v >> 56]));
}

/// M(w) = sum_j word[j][p[j]] for the 8 payload bytes at p, each byte
/// loaded straight into its lookup (no shift-and-mask extraction).
inline std::uint64_t horner_term(const SlicedTables& word, const std::uint8_t* p) {
  return ((word[0][p[0]] ^ word[1][p[1]]) ^ (word[2][p[2]] ^ word[3][p[3]])) ^
         ((word[4][p[4]] ^ word[5][p[5]]) ^ (word[6][p[6]] ^ word[7][p[7]]));
}

/// M of the leading L mod 8 = head bytes at p as a first word padded with
/// zeros in front, which leaves the Horner evaluation unchanged.
std::uint64_t head_term(const SlicedTables& word, const std::uint8_t* p, std::size_t head) {
  std::uint8_t first[8] = {};
  std::memcpy(first + 8 - head, p, head);
  return horner_term(word, first);
}

#if PRLC_CLMUL_X86

/// One single Horner step of the clmul path: reduce(acc * r8) ^ m.
PRLC_CLMUL_TARGET inline std::uint64_t clmul_step(std::uint64_t acc, __m128i r8, std::uint64_t m) {
  return reduce(_mm_clmulepi64_si128(pair(acc, 0), r8, 0x00)) ^ m;
}

/// m.lo*k.lo ^ m.hi*k.hi, unreduced.
PRLC_CLMUL_TARGET inline __m128i lane_products(__m128i m, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(m, k, 0x00), _mm_clmulepi64_si128(m, k, 0x11));
}

#endif

}  // namespace

Fingerprinter::Fingerprinter(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  do {
    point_ = splitmix64_next(sm);
  } while (point_ == 0);
  const std::array<std::uint64_t, 256>& embed = embed_table();

  // stride_: r^56, r^48, ..., r^8, then r^64.
  const std::uint64_t r8 = gf64_pow(point_, 8);
  stride_[6] = r8;
  for (std::size_t j = 6; j-- > 0;) stride_[j] = gf64_mul(stride_[j + 1], r8);
  stride_[7] = gf64_mul(stride_[0], r8);
  // shift_: x^p * r^8 for bit p = 8k+i, stepping p by a multiply-by-x.
  std::uint64_t x_pow = r8;
  for (std::size_t k = 0; k < 8; ++k) {
    std::array<std::uint64_t, 8> bit;
    for (std::size_t i = 0; i < 8; ++i) {
      bit[i] = x_pow;
      x_pow = (x_pow << 1) ^ ((x_pow >> 63) * 0x1B);  // x^64 = x^4 + x^3 + x + 1
    }
    expand_linear(shift_[k], bit);
  }
  // word_: embed(2^i) * r^(7-j).
  std::uint64_t r_pow = 1;
  for (std::size_t j = 8; j-- > 0;) {
    std::array<std::uint64_t, 8> bit;
    for (std::size_t i = 0; i < 8; ++i) bit[i] = gf64_mul(embed[std::size_t{1} << i], r_pow);
    expand_linear(word_[j], bit);
    r_pow = gf64_mul(r_pow, point_);
  }
}

std::uint64_t Fingerprinter::fingerprint(std::span<const std::uint8_t> payload) const {
  return clmul_supported() ? detail::fingerprint_clmul(*this, payload)
                           : detail::fingerprint_portable(*this, payload);
}

namespace detail {

std::uint64_t fingerprint_portable(const Fingerprinter& f, std::span<const std::uint8_t> payload) {
  // Horner over 8-byte words, the zero-padded head word first.
  std::uint64_t acc = 0;
  const std::uint8_t* p = payload.data();
  if (const std::size_t head = payload.size() % 8; head != 0) {
    acc = head_term(f.word_, p, head);
    p += head;
  }
  for (const std::uint8_t* const end = payload.data() + payload.size(); p != end; p += 8) {
    acc = apply_sliced(f.shift_, acc) ^ horner_term(f.word_, p);
  }
  return acc;
}

#if PRLC_CLMUL_X86

PRLC_CLMUL_TARGET std::uint64_t fingerprint_clmul(const Fingerprinter& f,
                                                  std::span<const std::uint8_t> payload) {
  const auto& word = f.word_;
  const auto& stride = f.stride_;
  const __m128i r8 = pair(stride[6], 0);
  std::uint64_t acc = 0;
  const std::uint8_t* p = payload.data();
  if (const std::size_t head = payload.size() % 8; head != 0) {
    acc = head_term(word, p, head);
    p += head;
  }
  for (std::size_t singles = payload.size() / 8 % 8; singles != 0; --singles, p += 8) {
    acc = clmul_step(acc, r8, horner_term(word, p));
  }
  // Whole 64-byte groups: lane pairs (M(w_0), M(w_1)), ..., (M(w_6), acc)
  // against (r^56, r^48), ..., (r^8, r^64); the eight products XOR
  // unreduced, then one reduction and M(w_7) close the group.
  const __m128i k01 = pair(stride[0], stride[1]);
  const __m128i k23 = pair(stride[2], stride[3]);
  const __m128i k45 = pair(stride[4], stride[5]);
  const __m128i k67 = pair(stride[6], stride[7]);
  for (const std::uint8_t* const end = payload.data() + payload.size(); p != end; p += 64) {
    const auto m = [&](int j) { return horner_term(word, p + 8 * j); };
    const __m128i x01 = lane_products(pair(m(0), m(1)), k01);
    const __m128i x23 = lane_products(pair(m(2), m(3)), k23);
    const __m128i x45 = lane_products(pair(m(4), m(5)), k45);
    const __m128i x67 = lane_products(pair(m(6), acc), k67);
    acc = reduce(_mm_xor_si128(_mm_xor_si128(x01, x23), _mm_xor_si128(x45, x67))) ^ m(7);
  }
  return acc;
}

#else

std::uint64_t fingerprint_clmul(const Fingerprinter& f, std::span<const std::uint8_t> payload) {
  return fingerprint_portable(f, payload);  // never dispatched: clmul_supported() is false
}

#endif

}  // namespace detail

std::uint64_t Fingerprinter::combine(std::span<const std::uint8_t> coeffs,
                                     std::span<const std::uint64_t> fingerprints) const {
  PRLC_REQUIRE(coeffs.size() == fingerprints.size(),
               "combine needs one fingerprint per coefficient");
  std::array<std::uint64_t, 8> plane{};
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    accumulate_planes(plane, coeffs[j], fingerprints[j]);
  }
  return finish_planes(plane);
}

std::uint64_t Fingerprinter::combine_sparse(
    std::span<const std::uint32_t> indices, std::span<const std::uint8_t> values,
    std::span<const std::uint64_t> fingerprints) const {
  PRLC_REQUIRE(indices.size() == values.size(),
               "sparse combine needs matching index/value spans");
  std::array<std::uint64_t, 8> plane{};
  for (std::size_t k = 0; k < indices.size(); ++k) {
    PRLC_REQUIRE(indices[k] < fingerprints.size(), "sparse index outside the manifest");
    accumulate_planes(plane, values[k], fingerprints[indices[k]]);
  }
  return finish_planes(plane);
}

FingerprintManifest build_manifest(std::uint64_t seed,
                                   std::span<const std::uint8_t> source,
                                   std::size_t block_size) {
  PRLC_REQUIRE(block_size > 0, "manifest block size must be positive");
  PRLC_REQUIRE(source.size() % block_size == 0,
               "source bytes must be a whole number of blocks");
  const Fingerprinter fp(seed);
  FingerprintManifest manifest;
  manifest.seed = seed;
  manifest.block_size = block_size;
  manifest.fingerprints.reserve(source.size() / block_size);
  for (std::size_t off = 0; off < source.size(); off += block_size) {
    manifest.fingerprints.push_back(fp.fingerprint(source.subspan(off, block_size)));
  }
  return manifest;
}

}  // namespace prlc::util
