// Compile-time interface for finite fields of characteristic 2.
//
// All coding/linear-algebra code in this library is generic over a field
// policy type so that the field-size ablation (GF(2), GF(16), GF(256)) can
// exercise identical code paths. A field policy exposes static arithmetic
// on an unsigned Symbol type; addition is XOR in every GF(2^m).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>

namespace prlc::gf {

/// Field policy concept: static arithmetic over an unsigned symbol type,
/// plus the bulk span operations every decoder hot path reduces to. The
/// span operations are part of the concept (not derived from mul) so a
/// policy can back them with vectorized kernels — see gf256_kernels.h.
template <typename F>
concept FieldPolicy = requires(typename F::Symbol a, typename F::Symbol b,
                               std::span<typename F::Symbol> y,
                               std::span<const typename F::Symbol> x) {
  requires std::unsigned_integral<typename F::Symbol>;
  { F::add(a, b) } -> std::same_as<typename F::Symbol>;
  { F::sub(a, b) } -> std::same_as<typename F::Symbol>;
  { F::mul(a, b) } -> std::same_as<typename F::Symbol>;
  { F::div(a, b) } -> std::same_as<typename F::Symbol>;
  { F::inv(a) } -> std::same_as<typename F::Symbol>;
  { F::order() } -> std::convertible_to<std::size_t>;
  { F::name() } -> std::convertible_to<const char*>;
  { F::axpy(y, a, x) } -> std::same_as<void>;
  { F::scale(y, a) } -> std::same_as<void>;
  { F::dot(x, x) } -> std::same_as<typename F::Symbol>;
};

/// Extension of FieldPolicy for fields that also provide a batched
/// multi-row axpy (ys[r] ^= coeffs[r] * x). Decoders use it for the
/// back-elimination step when available and fall back to per-row axpy
/// otherwise; Gf256 routes it through the cache-tiled kernel dispatch.
template <typename F>
concept BatchedFieldPolicy =
    FieldPolicy<F> &&
    requires(std::span<typename F::Symbol* const> ys,
             std::span<const typename F::Symbol> coeffs,
             std::span<const typename F::Symbol> x) {
      { F::axpy_batch(ys, coeffs, x) } -> std::same_as<void>;
    };

/// Extension of FieldPolicy for fields with a whole-block linear
/// combination (dst = sum_s coeffs[s] * srcs[s]); see field_lincomb.
template <typename F>
concept LincombFieldPolicy =
    FieldPolicy<F> &&
    requires(std::span<typename F::Symbol> dst,
             std::span<const typename F::Symbol* const> srcs,
             std::span<const typename F::Symbol> coeffs) {
      { F::lincomb(dst, srcs, coeffs) } -> std::same_as<void>;
    };

/// dst = sum_s coeffs[s] * srcs[s] over any field: the field's own
/// lincomb when it has one (Gf256's dispatched kernel), else a zero fill
/// plus one axpy per source. Every source is dst.size() symbols long.
template <FieldPolicy F>
void field_lincomb(std::span<typename F::Symbol> dst,
                   std::span<const typename F::Symbol* const> srcs,
                   std::span<const typename F::Symbol> coeffs) {
  if constexpr (LincombFieldPolicy<F>) {
    F::lincomb(dst, srcs, coeffs);
  } else {
    std::fill(dst.begin(), dst.end(), typename F::Symbol{0});
    for (std::size_t s = 0; s < srcs.size(); ++s) {
      F::axpy(dst, coeffs[s], std::span<const typename F::Symbol>(srcs[s], dst.size()));
    }
  }
}

}  // namespace prlc::gf
