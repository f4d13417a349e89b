// Source-block payload storage.
//
// The measured data of Sec. 2: N source blocks of `block_size` field
// symbols each. Encoders read payloads from here; tests compare decoder
// output against it.
#pragma once

#include <span>
#include <vector>

#include "gf/field_concept.h"
#include "util/check.h"
#include "util/random.h"

namespace prlc::codes {

template <gf::FieldPolicy F>
class SourceData {
 public:
  using Symbol = typename F::Symbol;

  /// `blocks` payloads of `block_size` symbols each, zero-initialized.
  SourceData(std::size_t blocks, std::size_t block_size)
      : blocks_(blocks), block_size_(block_size), data_(blocks * block_size, Symbol{0}) {
    PRLC_REQUIRE(blocks > 0, "need at least one source block");
  }

  /// Random payloads — the usual test/benchmark workload.
  static SourceData random(std::size_t blocks, std::size_t block_size, Rng& rng) {
    SourceData d(blocks, block_size);
    for (auto& v : d.data_) v = static_cast<Symbol>(rng.uniform(F::order()));
    return d;
  }

  std::size_t blocks() const { return blocks_; }
  std::size_t block_size() const { return block_size_; }

  std::span<const Symbol> block(std::size_t i) const {
    PRLC_REQUIRE(i < blocks_, "source block index out of range");
    return {data_.data() + i * block_size_, block_size_};
  }

  std::span<Symbol> block(std::size_t i) {
    PRLC_REQUIRE(i < blocks_, "source block index out of range");
    return {data_.data() + i * block_size_, block_size_};
  }

  /// Every payload back to back (block i at offset i * block_size) — the
  /// layout util::build_manifest fingerprints, with no copy.
  std::span<const Symbol> data() const { return data_; }

 private:
  std::size_t blocks_;
  std::size_t block_size_;
  std::vector<Symbol> data_;
};

}  // namespace prlc::codes
