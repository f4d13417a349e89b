// Vectorized GF(2^8) span kernels with one-time runtime dispatch.
//
// Every hot path of the library — encoding, progressive decoding, batch
// RREF — reduces to a handful of span operations over GF(2^8): axpy
// (y ^= a*x), mul_region (dst = a*src), scale (x *= a), dot and lincomb
// (dst = sum of a_s*src_s, the whole-block combination a storage node or
// a decoder builds). This module provides several implementations of
// those kernels and picks the fastest one the running CPU supports, once,
// at first use:
//
//   kReference — byte-at-a-time lookups in the 64 KiB product table; the
//                seed implementation, kept as the correctness baseline.
//   kScalar64  — portable split-nibble kernel: two 16-entry tables per
//                multiplier (products of the low and high nibble), eight
//                bytes per iteration through 64-bit loads/stores. Touches
//                32 bytes of table per multiplier instead of 256, so it
//                stays fast when many distinct multipliers are in flight.
//   kSsse3     — the classic pshufb kernel: both nibble tables live in
//                XMM registers and _mm_shuffle_epi8 performs 16 table
//                lookups per instruction (32 bytes of state, 16 B/iter).
//   kAvx2      — same split-nibble trick on 32-byte vectors, unrolled to
//                64 bytes per iteration.
//   kGfni      — GFNI + AVX-512BW: multiplying by a constant is an 8x8
//                bit-matrix over GF(2), so one vgf2p8affineqb with the
//                multiplier's matrix (built for poly 0x11D) handles 64
//                bytes; tails use masked loads and stores.
//
// lincomb is where the tiers differ in shape, not just width: the
// reference tier sums per byte, scalar64/ssse3/avx2 run one mul_region
// plus one axpy per further source (the same instruction sequence as
// per-source axpy calls), and kGfni folds up to eight sources per pass
// into one zmm accumulator, so the destination is written once per pass
// instead of once per source.
//
// SIMD variants are compiled behind __x86_64__/__i386__ guards using GCC/
// Clang `target` attributes (no special -m flags needed) and selected at
// runtime via __builtin_cpu_supports, so one binary runs everywhere and
// still uses the widest unit available. Set PRLC_GF_KERNEL=reference|
// scalar64|ssse3|avx2|gfni|auto (read once, at first dispatch) to force a
// variant when debugging; an unsupported request falls back to auto with
// a one-time warning on stderr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace prlc::gf {

enum class Gf256Kernel {
  kReference = 0,  ///< byte-wise 64 KiB-table loop (seed behaviour)
  kScalar64,       ///< portable split-nibble, 8 bytes per iteration
  kSsse3,          ///< pshufb split-nibble, 16 bytes per iteration
  kAvx2,           ///< vpshufb split-nibble, 64 bytes per iteration
  kGfni,           ///< vgf2p8affineqb bit-matrix multiply, 64 bytes per instruction
};

/// Function-pointer table for one kernel variant. All pointers are always
/// non-null. Spans may be empty (n == 0); `a` may be 0 or 1 — variants
/// must handle every multiplier correctly, callers need not special-case.
struct Gf256KernelOps {
  const char* name;
  /// y[i] ^= a * x[i] for i in [0, n). y and x must not overlap.
  void (*axpy)(std::uint8_t* y, const std::uint8_t* x, std::uint8_t a, std::size_t n);
  /// dst[i] = a * src[i] for i in [0, n). dst == src is allowed (scale);
  /// partial overlap is not.
  void (*mul_region)(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t a,
                     std::size_t n);
  /// sum_i a[i] * b[i].
  std::uint8_t (*dot)(const std::uint8_t* a, const std::uint8_t* b, std::size_t n);
  /// dst[i] = sum_s coeffs[s] * srcs[s][i] for i in [0, n), s in [0, k).
  /// k == 0 zeroes dst. dst must not overlap any source; sources may repeat.
  void (*lincomb)(std::uint8_t* dst, const std::uint8_t* const* srcs,
                  const std::uint8_t* coeffs, std::size_t k, std::size_t n);
};

/// Human-readable variant name ("reference", "scalar64", ...).
const char* gf256_kernel_name(Gf256Kernel k);

/// True when the variant was compiled into this binary.
bool gf256_kernel_compiled(Gf256Kernel k);

/// True when the variant is compiled AND the running CPU can execute it.
bool gf256_kernel_runtime_ok(Gf256Kernel k);

/// Every variant compiled into this binary, in ascending preference order.
std::vector<Gf256Kernel> gf256_compiled_kernels();

/// Ops table of a specific variant. Requires gf256_kernel_runtime_ok(k)
/// for the SIMD variants — calling an unsupported kernel is undefined.
const Gf256KernelOps& gf256_kernel_ops(Gf256Kernel k);

/// Ops table selected by the one-time runtime dispatch (best supported
/// variant, or the PRLC_GF_KERNEL override). Stable for process lifetime
/// unless gf256_force_active_kernel intervenes.
const Gf256KernelOps& gf256_active_ops();

/// Variant behind gf256_active_ops().
Gf256Kernel gf256_active_kernel();

/// Override the dispatched variant (tests, benchmarks, debugging).
/// Requires gf256_kernel_runtime_ok(k).
void gf256_force_active_kernel(Gf256Kernel k);

/// Batched multi-row axpy: ys[r] ^= coeffs[r] * x for r in [0, rows),
/// all rows n bytes long. Tiles x so one cache-resident chunk of the
/// source row is applied to every target before moving on — the decoder's
/// back-elimination step, where one new pivot row updates many stored
/// rows, is exactly this shape. Rows with coeffs[r] == 0 are skipped.
/// The tile size is kGf256TileBytes.
void gf256_axpy_batch(std::uint8_t* const* ys, const std::uint8_t* coeffs,
                      const std::uint8_t* x, std::size_t rows, std::size_t n);

/// Cache-tile size (bytes) used by gf256_axpy_batch: 8 KiB leaves room
/// in L1 for the target chunk.
inline constexpr std::size_t kGf256TileBytes = 8192;

}  // namespace prlc::gf
