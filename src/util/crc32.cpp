#include "util/crc32.h"

#include <array>
#include <cstddef>

#include "util/clmul.h"

#if PRLC_CLMUL_X86
#include <immintrin.h>
#endif

namespace prlc {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the classic byte table; t[k][b] is the CRC state after byte b
/// is followed by k zero bytes, so byte j of an 8-byte word indexes
/// t[7 - j].
Tables build_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advance the raw (uninverted) CRC state `c` over n bytes at p.
std::uint32_t update_sliced(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  static const Tables t = build_tables();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n != 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if PRLC_CLMUL_X86

/// Fold constant for a distance of n bits: x^n mod P (P = 0x104C11DB7,
/// the unreflected polynomial), bit-reflected into the reflected domain
/// and shifted left by one for the reflected product's extra low bit.
constexpr std::uint64_t fold_constant(unsigned n) {
  std::uint32_t r = 1;
  for (unsigned i = 0; i < n; ++i) r = (r << 1) ^ ((r >> 31) != 0 ? 0x04C11DB7u : 0u);
  std::uint64_t reflected = 0;
  for (unsigned i = 0; i < 32; ++i) reflected |= std::uint64_t{(r >> i) & 1u} << (31 - i);
  return reflected << 1;
}

// Lane halves: the low qword of a reflected lane holds the higher powers
// of x, so it travels the longer distance (n + 32 rather than n - 32).
constexpr std::uint64_t kFold4Lo = fold_constant(4 * 128 + 32);
constexpr std::uint64_t kFold4Hi = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kFold1Lo = fold_constant(128 + 32);
constexpr std::uint64_t kFold1Hi = fold_constant(128 - 32);
// The values published with Intel's paper (and used by zlib and Linux).
static_assert(kFold4Lo == 0x154442bd4 && kFold4Hi == 0x1c6e41596);
static_assert(kFold1Lo == 0x1751997d0 && kFold1Hi == 0x0ccaa009e);

/// lane * x^distance, folded onto the 128 bits that follow it.
PRLC_CLMUL_TARGET inline __m128i fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

PRLC_CLMUL_TARGET inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

#endif

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return util::clmul_supported() ? util::detail::crc32_clmul(data, seed)
                                 : util::detail::crc32_portable(data, seed);
}

namespace util::detail {

std::uint32_t crc32_portable(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return update_sliced(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

#if PRLC_CLMUL_X86

PRLC_CLMUL_TARGET std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n >= 64) {
    // The state enters as the first four message bytes XOR c; from there
    // each lane only ever carries the message polynomial modulo P.
    __m128i x0 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load16(p + 16);
    __m128i x2 = load16(p + 32);
    __m128i x3 = load16(p + 48);
    const __m128i k4 = _mm_set_epi64x(static_cast<long long>(kFold4Hi),
                                      static_cast<long long>(kFold4Lo));
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
      x0 = fold(x0, k4, load16(p));
      x1 = fold(x1, k4, load16(p + 16));
      x2 = fold(x2, k4, load16(p + 32));
      x3 = fold(x3, k4, load16(p + 48));
    }
    const __m128i k1 = _mm_set_epi64x(static_cast<long long>(kFold1Hi),
                                      static_cast<long long>(kFold1Lo));
    x0 = fold(fold(fold(x0, k1, x1), k1, x2), k1, x3);
    for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k1, load16(p));
    alignas(16) std::uint8_t lane[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(lane), x0);
    c = update_sliced(0, lane, sizeof lane);
  }
  return update_sliced(c, p, n) ^ 0xFFFFFFFFu;
}

#else

std::uint32_t crc32_clmul(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return crc32_portable(data, seed);  // never dispatched: clmul_supported() is false
}

#endif

}  // namespace util::detail

}  // namespace prlc
