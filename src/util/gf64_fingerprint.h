// Homomorphic block fingerprints over GF(2^64).
//
// A payload is read as a polynomial over GF(2^64) — one field element per
// byte, through the embedding below — and evaluated at a secret point r
// (Rabin fingerprinting, but over a binary field so that the algebra of
// the codes carries through). Two properties make this the right
// integrity primitive for random linear codes:
//
//   * Linearity under coding. GF(2^8) embeds in GF(2^64) (8 divides 64):
//     fix a root alpha of the code's own modulus x^8+x^4+x^3+x^2+1
//     (gf::Gf256's 0x11D) inside GF(2^64); then byte -> sum of alpha^i
//     over its set bits is a FIELD homomorphism, so for equal-length
//     payloads   fp(sum_j gamma_j * s_j) = sum_j embed(gamma_j) * fp(s_j).
//     Any coded block is verifiable against the SOURCE-block fingerprint
//     manifest — per block, with no decoding and no leave-one-out search.
//
//   * Schwartz–Zippel soundness. Distinct equal-length payloads agree at
//     a random r with probability <= (L-1)/2^64 for L-byte payloads: a
//     forged frame (bit rot behind a recomputed CRC, a Byzantine node
//     serving payload inconsistent with its claimed coefficients) slips
//     through with probability ~2^-50 even at 16 KiB blocks.
//
// GF(2^64) is GF(2)[x]/(x^64+x^4+x^3+x+1). The payload is read a 64-bit
// word at a time; word_ maps word w (bytes b_0..b_7) to its Horner term
// M(w) = sum_j embed(b_j)*r^(7-j) with 8 table lookups. Two Horner
// schedules with identical results, picked once per process (util/clmul.h):
//
//   * portable — acc = acc*r^8 + M(w) per word, the multiply by r^8 being
//     8 more byte-sliced lookups (shift_): 16 lookups per 8 bytes, 32 KiB
//     of tables per Fingerprinter.
//   * clmul — groups of 8 words (64 bytes):
//       acc = reduce(acc*r^64 + sum_{j<7} M(w_j)*r^(8(7-j))) + M(w_7),
//     eight PCLMULQDQ products XORed unreduced into 128 bits and one
//     two-fold reduction by x^64 = x^4+x^3+x+1 per group, so the serial
//     dependency is one multiply and one reduction per 64 bytes. The
//     zero-padded head word and the first (L/8) mod 8 whole words take
//     single steps, acc = reduce(acc*r^8) + M(w).
//
// The tables are built from their single-bit entries by XOR, so a
// Fingerprinter costs about 80 field multiplies to construct. combine() is
// bit-plane accumulation: 8 masked XORs per coefficient and 7 field
// multiplies in total, independent of the coefficient count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace prlc::util {

/// Multiply in GF(2^64): one PCLMULQDQ plus the two-fold reduction on the
/// clmul path, 64 branch-free shift-and-XOR steps on the portable one.
/// Table construction, combine()'s 7 final multiplies and tests only — the
/// fingerprint path never calls it per byte.
std::uint64_t gf64_mul(std::uint64_t a, std::uint64_t b);

/// a^e in GF(2^64) by square-and-multiply.
std::uint64_t gf64_pow(std::uint64_t a, std::uint64_t e);

/// The field embedding GF(2^8) -> GF(2^64): evaluation of the byte's
/// polynomial at a root of 0x11D. embed(a*b) = embed(a)*embed(b) and
/// embed(a^b) = embed(a)^embed(b) (GF(2^8) products per gf::Gf256).
/// embed(0) = 0, embed(1) = 1. The root is found once at startup.
std::uint64_t gf64_embed(std::uint8_t value);

class Fingerprinter;

namespace detail {

/// The two implementations behind gf64_mul() and
/// Fingerprinter::fingerprint(), callable directly so tests can hold them
/// against each other on any host. The _clmul ones require
/// util::clmul_supported().
std::uint64_t gf64_mul_portable(std::uint64_t a, std::uint64_t b);
std::uint64_t gf64_mul_clmul(std::uint64_t a, std::uint64_t b);
std::uint64_t fingerprint_portable(const Fingerprinter& fp, std::span<const std::uint8_t> payload);
std::uint64_t fingerprint_clmul(const Fingerprinter& fp, std::span<const std::uint8_t> payload);

}  // namespace detail

/// Seeded fingerprinting context: derives a nonzero evaluation point from
/// `seed` and precomputes the multiply-by-point tables. The same seed
/// always yields the same point — a manifest records its seed so any
/// collector can re-derive the verifier.
class Fingerprinter {
 public:
  explicit Fingerprinter(std::uint64_t seed);

  std::uint64_t seed() const { return seed_; }
  std::uint64_t point() const { return point_; }

  /// Horner evaluation: fp = sum_i embed(payload[i]) * r^(L-1-i).
  /// Linear in the payload for a fixed length L; fp(empty) = 0.
  std::uint64_t fingerprint(std::span<const std::uint8_t> payload) const;

  /// Predicted fingerprint of a coded block: sum_j embed(coeffs[j]) *
  /// fingerprints[j]. Equals fingerprint(coded payload) whenever the
  /// payload really is that linear combination of the source blocks.
  std::uint64_t combine(std::span<const std::uint8_t> coeffs,
                        std::span<const std::uint64_t> fingerprints) const;

  /// Support-only combine for sparse coefficient vectors:
  /// sum_k embed(values[k]) * fingerprints[indices[k]].
  std::uint64_t combine_sparse(std::span<const std::uint32_t> indices,
                               std::span<const std::uint8_t> values,
                               std::span<const std::uint64_t> fingerprints) const;

 private:
  friend std::uint64_t detail::fingerprint_portable(const Fingerprinter&,
                                                    std::span<const std::uint8_t>);
  friend std::uint64_t detail::fingerprint_clmul(const Fingerprinter&,
                                                 std::span<const std::uint8_t>);

  using Table = std::array<std::uint64_t, 256>;

  std::uint64_t seed_ = 0;
  std::uint64_t point_ = 0;
  /// shift_[k][b] = (b << 8k) * point_^8: acc * r^8, one accumulator byte
  /// per table.
  std::array<Table, 8> shift_{};
  /// word_[j][b] = embed(b) * point_^(7-j): payload byte j of an 8-byte
  /// word at its Horner weight.
  std::array<Table, 8> word_{};
  /// stride_[j] = point_^(8(7-j)) for j < 7 and stride_[7] = point_^64:
  /// the clmul path's Horner weights within a 64-byte group.
  std::array<std::uint64_t, 8> stride_{};
};

/// The per-source-block fingerprint manifest a collection verifies
/// against. Computed by whoever holds the source data (the disseminating
/// node), shipped beside the coded blocks (codes/wire_format.h gives it a
/// CRC-framed wire encoding), and valid for any number of coded blocks.
struct FingerprintManifest {
  std::uint64_t seed = 0;                     ///< Fingerprinter seed
  std::size_t block_size = 0;                 ///< payload bytes per block
  std::vector<std::uint64_t> fingerprints;    ///< one per source block

  bool operator==(const FingerprintManifest&) const = default;
};

/// Fingerprint every `block_size`-byte block of `source` (laid out
/// back-to-back, as codes::SourceData stores them).
FingerprintManifest build_manifest(std::uint64_t seed,
                                   std::span<const std::uint8_t> source,
                                   std::size_t block_size);

}  // namespace prlc::util
