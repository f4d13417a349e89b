// Scheme-aware priority decoder with partial recovery (Sec. 3.2).
//
// RLC/PLC blocks feed one progressive Gauss-Jordan decoder over all N
// unknowns; the decoded *prefix* of source blocks determines how many
// whole priority levels are recovered. SLC blocks feed n independent
// per-level decoders (each level is its own RLC), and under the strict
// priority model the decoder reports the longest prefix of fully-decoded
// levels.
#pragma once

#include <memory>
#include <vector>

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
      : scheme_(scheme), spec_(std::move(spec)), payload_size_(payload_size) {
    if (scheme_ == Scheme::kSlc) {
      level_decoders_.reserve(spec_.levels());
      for (std::size_t i = 0; i < spec_.levels(); ++i) {
        level_decoders_.push_back(std::make_unique<linalg::ProgressiveDecoder<F>>(
            spec_.level_size(i), payload_size_));
      }
    } else {
      joint_decoder_ =
          std::make_unique<linalg::ProgressiveDecoder<F>>(spec_.total(), payload_size_);
    }
  }

  const PrioritySpec& spec() const { return spec_; }
  Scheme scheme() const { return scheme_; }
  /// Payload symbols every coded block must carry (0 = coefficient-only).
  std::size_t payload_size() const { return payload_size_; }

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
    PRLC_REQUIRE(payload.size() == payload_size_, "coded block payload mismatch");
    ++blocks_seen_;
    if (scheme_ != Scheme::kSlc) {
      return joint_decoder_->add(coeffs, payload);
    }
    PRLC_REQUIRE(level < spec_.levels(), "coded block level out of range");
    const std::size_t begin = spec_.level_begin(level);
    const std::size_t len = spec_.level_size(level);
    // An SLC block must not reference blocks outside its level.
    for (std::size_t j = 0; j < spec_.total(); ++j) {
      const bool inside = j >= begin && j < begin + len;
      PRLC_REQUIRE(inside || coeffs[j] == 0,
                   "SLC coded block has support outside its level");
    }
    return level_decoders_[level]->add(coeffs.subspan(begin, len), payload);
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
    PRLC_REQUIRE(payload.size() == payload_size_, "coded block payload mismatch");
    ++blocks_seen_;
    if (scheme_ != Scheme::kSlc) {
      return joint_decoder_->add_sparse(indices, values, payload);
    }
    PRLC_REQUIRE(level < spec_.levels(), "coded block level out of range");
    const std::size_t begin = spec_.level_begin(level);
    const std::size_t len = spec_.level_size(level);
    // An SLC block must not reference blocks outside its level; translate
    // indices into the per-level decoder's coordinate frame.
    slc_idx_.clear();
    slc_idx_.reserve(indices.size());
    for (const std::uint32_t j : indices) {
      PRLC_REQUIRE(j >= begin && j < begin + len,
                   "SLC coded block has support outside its level");
      slc_idx_.push_back(j - static_cast<std::uint32_t>(begin));
    }
    return level_decoders_[level]->add_sparse(slc_idx_, values, payload);
  }

  std::size_t blocks_seen() const { return blocks_seen_; }

  /// Total rank accumulated (across per-level decoders for SLC).
  std::size_t rank() const {
    if (scheme_ != Scheme::kSlc) return joint_decoder_->rank();
    std::size_t r = 0;
    for (const auto& d : level_decoders_) r += d->rank();
    return r;
  }

  /// Whether level i is completely recovered. For SLC this is the
  /// per-level decoder's completion, independent of other levels; for
  /// RLC/PLC it requires the decoded prefix to cover the level.
  bool is_level_decoded(std::size_t i) const {
    PRLC_REQUIRE(i < spec_.levels(), "level out of range");
    if (scheme_ == Scheme::kSlc) {
      return level_decoders_[i]->decoded_prefix() == spec_.level_size(i);
    }
    return joint_decoder_->decoded_prefix() >= spec_.prefix_size(i);
  }

  /// X in the paper's analysis: the number of *leading* priority levels
  /// recovered (strict priority model).
  std::size_t decoded_levels() const {
    if (scheme_ != Scheme::kSlc) {
      return spec_.levels_covered_by_prefix(joint_decoder_->decoded_prefix());
    }
    std::size_t k = 0;
    while (k < spec_.levels() && is_level_decoded(k)) ++k;
    return k;
  }

  /// Number of source blocks recovered in priority order (b_k for SLC's
  /// decoded level prefix; the raw decoded prefix for RLC/PLC).
  std::size_t decoded_prefix_blocks() const {
    if (scheme_ != Scheme::kSlc) return joint_decoder_->decoded_prefix();
    const std::size_t k = decoded_levels();
    return k == 0 ? 0 : spec_.prefix_size(k - 1);
  }

  /// Whether an individual source block is recovered (not restricted to
  /// the priority prefix — SLC can decode a later level while an earlier
  /// one is still missing).
  bool is_block_decoded(std::size_t j) const {
    PRLC_REQUIRE(j < spec_.total(), "source block index out of range");
    if (scheme_ != Scheme::kSlc) return joint_decoder_->is_decoded(j);
    const std::size_t level = spec_.level_of_block(j);
    return level_decoders_[level]->is_decoded(j - spec_.level_begin(level));
  }

  /// Recovered payload of a decoded source block.
  std::span<const Symbol> recovered(std::size_t j) const {
    PRLC_REQUIRE(payload_size_ > 0, "decoder was built without payloads");
    PRLC_REQUIRE(is_block_decoded(j), "source block is not decoded yet");
    if (scheme_ != Scheme::kSlc) return joint_decoder_->solution(j);
    const std::size_t level = spec_.level_of_block(j);
    return level_decoders_[level]->solution(j - spec_.level_begin(level));
  }

 private:
  Scheme scheme_;
  PrioritySpec spec_;
  std::size_t payload_size_;
  std::unique_ptr<linalg::ProgressiveDecoder<F>> joint_decoder_;
  std::vector<std::unique_ptr<linalg::ProgressiveDecoder<F>>> level_decoders_;
  std::vector<std::uint32_t> slc_idx_;  ///< add_sparse level-translation scratch
  std::size_t blocks_seen_ = 0;
};

}  // namespace prlc::codes
