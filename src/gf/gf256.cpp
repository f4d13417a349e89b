#include "gf/gf256.h"

#include "gf/gf256_kernels.h"
#include "obs/metrics.h"

namespace prlc::gf {

Gf256::Tables::Tables() {
  // Build exp/log from the generator g = 2 over modulus 0x11D.
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[i] = static_cast<Symbol>(x);
    log[x] = static_cast<Symbol>(i);
    x <<= 1;
    if (x & 0x100) x ^= modulus();
  }
  for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never read; defined for determinism

  inv[0] = 0;  // never read
  for (int a = 1; a < 256; ++a) {
    inv[a] = exp[255 - log[a]];
  }

  for (int a = 0; a < 256; ++a) {
    mul[0][a] = 0;
    mul[a][0] = 0;
  }
  for (int a = 1; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      mul[a][b] = exp[log[a] + log[b]];
    }
  }
}

const Gf256::Tables& Gf256::tables() {
  static const Tables t;
  return t;
}

Gf256::Symbol Gf256::pow(Symbol a, std::uint32_t e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = tables();
  // Widen before the product: log[a] * e can reach 254 * (2^32 - 1),
  // which wraps uint32_t for e > UINT32_MAX / 254 (~16.9M).
  const auto le =
      static_cast<std::size_t>((static_cast<std::uint64_t>(t.log[a]) * e) % 255u);
  return t.exp[le];
}

void Gf256::axpy(std::span<Symbol> y, Symbol a, std::span<const Symbol> x) {
  PRLC_REQUIRE(y.size() == x.size(), "axpy spans must have equal length");
  if (a == 0 || y.empty()) return;
  static obs::Counter& calls = obs::counter("gf256.axpy_calls");
  static obs::Counter& bytes = obs::counter("gf256.axpy_bytes");
  calls.add();
  bytes.add(y.size());
  gf256_active_ops().axpy(y.data(), x.data(), a, y.size());
}

void Gf256::scale(std::span<Symbol> x, Symbol a) {
  if (a == 1 || x.empty()) return;
  static obs::Counter& bytes = obs::counter("gf256.scale_bytes");
  bytes.add(x.size());
  gf256_active_ops().mul_region(x.data(), x.data(), a, x.size());
}

void Gf256::mul_region(std::span<Symbol> dst, Symbol a, std::span<const Symbol> src) {
  PRLC_REQUIRE(dst.size() == src.size(), "mul_region spans must have equal length");
  if (dst.empty()) return;
  static obs::Counter& bytes = obs::counter("gf256.mul_region_bytes");
  bytes.add(dst.size());
  gf256_active_ops().mul_region(dst.data(), src.data(), a, dst.size());
}

void Gf256::lincomb(std::span<Symbol> dst, std::span<const Symbol* const> srcs,
                    std::span<const Symbol> coeffs) {
  PRLC_REQUIRE(srcs.size() == coeffs.size(), "lincomb needs one coefficient per source");
  if (dst.empty()) return;
  static obs::Counter& calls = obs::counter("gf256.lincomb_calls");
  static obs::Counter& bytes = obs::counter("gf256.lincomb_bytes");
  calls.add();
  bytes.add(dst.size() * srcs.size());
  gf256_active_ops().lincomb(dst.data(), srcs.data(), coeffs.data(), srcs.size(), dst.size());
}

Gf256::Symbol Gf256::dot(std::span<const Symbol> a, std::span<const Symbol> b) {
  PRLC_REQUIRE(a.size() == b.size(), "dot spans must have equal length");
  if (a.empty()) return 0;
  static obs::Counter& bytes = obs::counter("gf256.dot_bytes");
  bytes.add(a.size());
  return gf256_active_ops().dot(a.data(), b.data(), a.size());
}

void Gf256::axpy_batch(std::span<Symbol* const> ys, std::span<const Symbol> coeffs,
                       std::span<const Symbol> x) {
  PRLC_REQUIRE(ys.size() == coeffs.size(), "axpy_batch needs one coefficient per row");
  if (ys.empty() || x.empty()) return;
  gf256_axpy_batch(ys.data(), coeffs.data(), x.data(), ys.size(), x.size());
}

}  // namespace prlc::gf
