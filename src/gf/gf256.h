// GF(2^8) arithmetic — the field the paper's simulations use.
//
// Implementation: exponential/logarithm tables over the primitive
// polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D, the classic Rijndael-
// adjacent choice used by most RLNC implementations), plus a full
// 256x256 product table for scalar lookups. The span operations (axpy,
// scale, dot, mul_region, lincomb) route through the vectorized kernel table in
// gf256_kernels.h, which is dispatched once at runtime to the widest
// SIMD unit the CPU offers. Tables are built once at first use and are
// immutable afterwards.
#pragma once

#include <cstdint>
#include <span>

#include "util/check.h"

namespace prlc::gf {

/// Field policy for GF(2^8). All operations are total except division by
/// zero / inversion of zero, which throw PreconditionError.
class Gf256 {
 public:
  using Symbol = std::uint8_t;

  static constexpr std::size_t order() { return 256; }
  static constexpr const char* name() { return "GF(2^8)"; }
  /// The primitive (irreducible) polynomial, including the x^8 term.
  static constexpr std::uint16_t modulus() { return 0x11D; }

  static Symbol add(Symbol a, Symbol b) { return a ^ b; }
  /// Subtraction equals addition in characteristic 2.
  static Symbol sub(Symbol a, Symbol b) { return a ^ b; }

  static Symbol mul(Symbol a, Symbol b) { return tables().mul[a][b]; }

  static Symbol inv(Symbol a) {
    PRLC_REQUIRE(a != 0, "inverse of zero in GF(2^8)");
    return tables().inv[a];
  }

  static Symbol div(Symbol a, Symbol b) {
    PRLC_REQUIRE(b != 0, "division by zero in GF(2^8)");
    if (a == 0) return 0;
    return tables().mul[a][tables().inv[b]];
  }

  /// a^e by log/exp lookup; 0^0 == 1 by convention.
  static Symbol pow(Symbol a, std::uint32_t e);

  /// Row of the multiplication table for a fixed left factor — the basis
  /// of the vectorized axpy kernel (y[i] ^= row[x[i]]).
  static const Symbol* mul_row(Symbol a) { return tables().mul[a]; }

  /// y ^= a * x element-wise over equal-length spans.
  static void axpy(std::span<Symbol> y, Symbol a, std::span<const Symbol> x);

  /// x *= a element-wise.
  static void scale(std::span<Symbol> x, Symbol a);

  /// dst = a * src element-wise; dst may equal src (then this is scale).
  static void mul_region(std::span<Symbol> dst, Symbol a, std::span<const Symbol> src);

  /// dst = sum_s coeffs[s] * srcs[s], each source dst.size() symbols long
  /// and none overlapping dst; no sources zeroes dst. The whole-block
  /// combination a storage node stores or a decoder builds for a new
  /// pivot row, in one kernel call instead of one axpy per source.
  static void lincomb(std::span<Symbol> dst, std::span<const Symbol* const> srcs,
                      std::span<const Symbol> coeffs);

  /// Dot product sum_i a[i]*b[i].
  static Symbol dot(std::span<const Symbol> a, std::span<const Symbol> b);

  /// Batched multi-row axpy: ys[r] ^= coeffs[r] * x for every r, all rows
  /// x.size() symbols long. One cache-tiled pass over the shared source —
  /// the shape of Gauss-Jordan back-elimination, where a new pivot row
  /// updates many stored rows at once.
  static void axpy_batch(std::span<Symbol* const> ys, std::span<const Symbol> coeffs,
                         std::span<const Symbol> x);

 private:
  struct Tables {
    Symbol exp[512];       // exp[i] = g^i, doubled so mul avoids a mod
    Symbol log[256];       // log[0] unused
    Symbol inv[256];       // inv[0] unused
    Symbol mul[256][256];  // full product table (64 KiB)
    Tables();
  };
  static const Tables& tables();
};

}  // namespace prlc::gf
