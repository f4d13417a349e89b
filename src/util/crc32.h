// CRC-32 (IEEE 802.3 polynomial, reflected) for wire-format integrity.
//
// Slicing-by-8: eight 256-entry tables (8 KiB, built once) fold 8 input
// bytes per step with 8 independent lookups, so a frame costs about one
// table lookup per byte with no serial byte-to-byte dependency; only the
// final L mod 8 bytes take the one-table path.
#pragma once

#include <cstdint>
#include <span>

namespace prlc {

/// CRC-32 of `data`, optionally continuing from a previous value
/// (pass the previous return value as `seed` to chain).
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

}  // namespace prlc
