#include "util/gf64_fingerprint.h"

#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/random.h"

namespace prlc::util {

namespace {

// x^64 = x^4 + x^3 + x + 1 over GF(2). Folding the high word multiplies
// it by this low-degree remainder; the product reaches at most bit 67, so
// one second fold of those four bits finishes the reduction.
inline unsigned __int128 fold(std::uint64_t hi) {
  const auto h = static_cast<unsigned __int128>(hi);
  return (h << 4) ^ (h << 3) ^ (h << 1) ^ h;
}

}  // namespace

std::uint64_t gf64_mul(std::uint64_t a, std::uint64_t b) {
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

/// The 8 payload bytes at `p` as one word, byte j in bits 8j..8j+7.
std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t le = 0;
    for (int j = 0; j < 8; ++j) le |= ((w >> (8 * (7 - j))) & 0xff) << (8 * j);
    w = le;
  }
  return w;
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

/// sum_k t[k][byte k of v]: a GF(2)-linear map of v, one lookup per byte.
inline std::uint64_t apply_sliced(const std::array<std::array<std::uint64_t, 256>, 8>& t,
                                  std::uint64_t v) {
  return ((t[0][v & 0xff] ^ t[1][(v >> 8) & 0xff]) ^
          (t[2][(v >> 16) & 0xff] ^ t[3][(v >> 24) & 0xff])) ^
         ((t[4][(v >> 32) & 0xff] ^ t[5][(v >> 40) & 0xff]) ^
          (t[6][(v >> 48) & 0xff] ^ t[7][v >> 56]));
}

}  // namespace

Fingerprinter::Fingerprinter(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  do {
    point_ = splitmix64_next(sm);
  } while (point_ == 0);
  const std::array<std::uint64_t, 256>& embed = embed_table();

  // shift_: x^p * r^8 for bit p = 8k+i, stepping p by a multiply-by-x.
  std::uint64_t x_pow = gf64_pow(point_, 8);
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
  // Horner over 8-byte words. The leading L mod 8 bytes form a first word
  // padded with zeros in front, which leaves the evaluation unchanged.
  std::uint64_t acc = 0;
  const auto fold = [&](std::uint64_t w) {
    acc = apply_sliced(shift_, acc) ^ apply_sliced(word_, w);
  };
  const std::uint8_t* p = payload.data();
  if (const std::size_t head = payload.size() % 8; head != 0) {
    std::uint8_t first[8] = {};
    std::memcpy(first + 8 - head, p, head);
    fold(load_word(first));
    p += head;
  }
  for (const std::uint8_t* const end = payload.data() + payload.size(); p != end; p += 8) {
    fold(load_word(p));
  }
  return acc;
}

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
