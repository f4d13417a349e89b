// CRC-32 (IEEE 802.3 polynomial, reflected) for wire-format integrity.
//
// Two paths with identical results, picked once per process (util/clmul.h):
//
//   * portable — slicing-by-8: eight 256-entry tables (8 KiB, built once)
//     fold 8 input bytes per step with 8 independent lookups, so a frame
//     costs about one table lookup per byte with no serial byte-to-byte
//     dependency; only the final L mod 8 bytes take the one-table path.
//   * clmul — PCLMULQDQ folding (Intel, "Fast CRC Computation for Generic
//     Polynomials Using PCLMULQDQ"): inputs of 64 bytes or more are folded
//     as four 128-bit lanes per 64 bytes, then down to one lane, then one
//     16-byte block at a time. The last lane and the L mod 16 tail finish
//     through the sliced table loop from a zero state, so there is no
//     Barrett step. Shorter inputs take the table loop directly.
#pragma once

#include <cstdint>
#include <span>

namespace prlc {

/// CRC-32 of `data`, optionally continuing from a previous value
/// (pass the previous return value as `seed` to chain).
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

}  // namespace prlc

namespace prlc::util::detail {

/// The two crc32() implementations, callable directly so tests can hold
/// them against each other on any host. crc32_clmul requires
/// util::clmul_supported().
std::uint32_t crc32_portable(std::span<const std::uint8_t> data, std::uint32_t seed);
std::uint32_t crc32_clmul(std::span<const std::uint8_t> data, std::uint32_t seed);

}  // namespace prlc::util::detail
