// Scheme-aware priority decoder with partial recovery (Sec. 3.2).
//
// Every scheme feeds one progressive Gauss-Jordan decoder over all N
// unknowns; the decoded *prefix* of source blocks determines how many
// whole priority levels are recovered. SLC needs no decoder of its own:
// each SLC level is an independent RLC, so SLC's equations form a
// block-diagonal system, and since the RREF of a row space is unique the
// joint elimination solves exactly what n per-level decoders would. Its
// telemetry (peel pivots, densified rows, the prefix watermark) is
// therefore in global column ids for every scheme. Only two questions
// differ for SLC: a level counts as decoded when all of its own blocks
// are (independent of earlier levels), and its block prefix is reported
// rounded down to whole levels, b_X.
#pragma once

#include <algorithm>
#include <span>

#include "codes/coded_block.h"
#include "codes/priority_spec.h"
#include "codes/scheme.h"
#include "gf/field_concept.h"
#include "linalg/progressive_decoder.h"
#include "util/check.h"

namespace prlc::codes {

template <gf::FieldPolicy F>
class PriorityDecoder {
 public:
  using Symbol = typename F::Symbol;

  /// `payload_size` 0 = coefficient-only decoding.
  PriorityDecoder(Scheme scheme, PrioritySpec spec, std::size_t payload_size = 0)
      : scheme_(scheme), spec_(std::move(spec)), decoder_(spec_.total(), payload_size) {}

  const PrioritySpec& spec() const { return spec_; }
  Scheme scheme() const { return scheme_; }
  /// Payload symbols every coded block must carry (0 = coefficient-only).
  std::size_t payload_size() const { return decoder_.payload_size(); }

  /// Whether a block of `level` with these spec().total() coefficients
  /// belongs to this decoder's frame: always for RLC/PLC; for SLC the level
  /// must exist and every coefficient outside it must be zero. Never
  /// throws, so the collector can reject a misfit frame as a wire error.
  bool fits(std::size_t level, std::span<const Symbol> coeffs) const {
    if (scheme_ != Scheme::kSlc) return true;
    if (level >= spec_.levels() || coeffs.size() != spec_.total()) return false;
    const auto nonzero = [](Symbol c) { return c != 0; };
    const auto begin = static_cast<std::ptrdiff_t>(spec_.level_begin(level));
    const auto end = static_cast<std::ptrdiff_t>(spec_.level_end(level));
    return std::none_of(coeffs.begin(), coeffs.begin() + begin, nonzero) &&
           std::none_of(coeffs.begin() + end, coeffs.end(), nonzero);
  }

  /// Feed one coded block; returns true when it was innovative.
  bool add(const CodedBlock<F>& block) {
    return add(block.level, block.coeffs, block.payload);
  }

  /// Span-based twin of add(): feeds coefficient/payload views without
  /// materializing an owning CodedBlock (the zero-copy wire path — the
  /// decoder copies into its own work buffers, so the views only need to
  /// live for the call).
  bool add(std::size_t level, std::span<const Symbol> coeffs,
           std::span<const Symbol> payload) {
    PRLC_REQUIRE(coeffs.size() == spec_.total(), "coded block width mismatch");
    PRLC_REQUIRE(payload.size() == payload_size(), "coded block payload mismatch");
    PRLC_REQUIRE(fits(level, coeffs), "SLC coded block does not fit its level");
    return decoder_.add(coeffs, payload);
  }

  /// Feed one sparse coded block; returns true when it was innovative.
  bool add(const SparseCodedBlock<F>& block) {
    return add_sparse(block.level, block.indices, block.values, block.payload);
  }

  /// Sparse twin of add(): the equation arrives as sorted (index, value)
  /// pairs and is routed straight into the hybrid peeling/GE path without
  /// ever materializing a dense coefficient vector — the only O(nnz) entry
  /// point, which is what makes N = 10^5 runs practical.
  bool add_sparse(std::size_t level, std::span<const std::uint32_t> indices,
                  std::span<const Symbol> values, std::span<const Symbol> payload) {
    PRLC_REQUIRE(payload.size() == payload_size(), "coded block payload mismatch");
    if (scheme_ == Scheme::kSlc) {
      // An SLC block must not reference blocks outside its level.
      PRLC_REQUIRE(level < spec_.levels(), "coded block level out of range");
      const std::size_t begin = spec_.level_begin(level);
      const std::size_t end = spec_.level_end(level);
      for (const std::uint32_t j : indices) {
        PRLC_REQUIRE(j >= begin && j < end, "SLC coded block has support outside its level");
      }
    }
    return decoder_.add_sparse(indices, values, payload);
  }

  /// Coded blocks fed so far, innovative or not.
  std::size_t blocks_seen() const { return decoder_.equations_seen(); }

  /// Total rank accumulated.
  std::size_t rank() const { return decoder_.rank(); }

  /// Whether level i is completely recovered. For SLC every block of the
  /// level must be decoded, independent of other levels; for RLC/PLC the
  /// decoded prefix must cover the level.
  bool is_level_decoded(std::size_t i) const {
    PRLC_REQUIRE(i < spec_.levels(), "level out of range");
    if (decoder_.decoded_prefix() >= spec_.prefix_size(i)) return true;
    if (scheme_ != Scheme::kSlc) return false;
    for (std::size_t j = spec_.level_begin(i); j < spec_.level_end(i); ++j) {
      if (!decoder_.is_decoded(j)) return false;
    }
    return true;
  }

  /// X in the paper's analysis: the number of *leading* priority levels
  /// recovered (strict priority model). Levels 0..k-1 are all decoded
  /// exactly when unknowns 0..b_k-1 are, for every scheme.
  std::size_t decoded_levels() const {
    return spec_.levels_covered_by_prefix(decoder_.decoded_prefix());
  }

  /// Number of source blocks recovered in priority order: the raw decoded
  /// prefix for RLC/PLC, rounded down to b_X (whole levels) for SLC.
  std::size_t decoded_prefix_blocks() const {
    if (scheme_ != Scheme::kSlc) return decoder_.decoded_prefix();
    const std::size_t k = decoded_levels();
    return k == 0 ? 0 : spec_.prefix_size(k - 1);
  }

  /// Whether an individual source block is recovered (not restricted to
  /// the priority prefix — SLC can decode a later level while an earlier
  /// one is still missing).
  bool is_block_decoded(std::size_t j) const { return decoder_.is_decoded(j); }

  /// Recovered payload of a decoded source block (requires payloads).
  std::span<const Symbol> recovered(std::size_t j) const { return decoder_.solution(j); }

 private:
  Scheme scheme_;
  PrioritySpec spec_;
  linalg::ProgressiveDecoder<F> decoder_;
};

}  // namespace prlc::codes
