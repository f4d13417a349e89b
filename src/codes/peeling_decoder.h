// Iterative XOR peeling decoder for Growth Codes (the index-only
// coverage baseline of bench/abl_baselines).
//
// Growth Codes (Kamra et al., SIGCOMM 2006 — the related work the paper
// contrasts against in Sec. 6) XOR small sets of source blocks. Decoding
// peels: any symbol whose unknowns reduce to one decodes that unknown,
// which may unlock buffered symbols, cascading. Unlike Gauss-Jordan this
// never solves coupled systems — degree-2 symbols over undecoded blocks
// just wait — which is exactly the behaviour the Growth-Codes degree
// schedule is designed around.
//
// The decoder tracks only *which* blocks decode, never payload bytes:
// payload peeling over GF(2^q) is the singleton elimination of the
// hybrid linalg::ProgressiveDecoder, which every payload decode runs.
//
// A buffered symbol is two words — its undecoded degree and the XOR of
// its undecoded indices — so when its degree drops to one, the XOR *is*
// the last unknown. Resident memory is bounded by symbols seen, and a
// retired symbol costs nothing to skip.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace prlc::codes {

class PeelingDecoder {
 public:
  explicit PeelingDecoder(std::size_t unknowns);

  /// Add an XOR symbol: the XOR of the source blocks listed in `indices`
  /// (nonempty, distinct, in range — duplicates are rejected even when
  /// the duplicated block is already decoded). Returns the number of
  /// source blocks newly decoded by the resulting cascade (0 if none).
  std::size_t add(std::span<const std::size_t> indices);

  std::size_t decoded_count() const { return decoded_count_; }
  bool is_decoded(std::size_t i) const {
    PRLC_REQUIRE(i < decoded_.size(), "unknown index out of range");
    return decoded_[i];
  }

  /// Longest decoded prefix (for priority comparisons).
  std::size_t decoded_prefix() const;

  std::size_t symbols_seen() const { return symbols_seen_; }
  /// Symbols currently buffered undecoded (memory the sink holds).
  std::size_t buffered_symbols() const { return buffered_; }

 private:
  struct Symbol {
    std::size_t degree = 0;     ///< undecoded indices left; 0 = retired
    std::size_t index_xor = 0;  ///< XOR of the undecoded indices
  };

  /// Mark unknown `i` decoded; cascade through the symbols waiting on it.
  std::size_t resolve(std::size_t i);

  std::vector<bool> decoded_;
  std::vector<Symbol> symbols_;
  std::vector<std::vector<std::size_t>> waiters_;  ///< unknown -> symbol ids
  std::vector<std::size_t> scratch_;               ///< add-time dup check
  std::vector<std::size_t> queue_;                 ///< cascade work list
  std::size_t decoded_count_ = 0;
  std::size_t symbols_seen_ = 0;
  std::size_t buffered_ = 0;
};

}  // namespace prlc::codes
