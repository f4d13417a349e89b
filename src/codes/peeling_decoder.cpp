#include "codes/peeling_decoder.h"

#include <algorithm>

namespace prlc::codes {

PeelingDecoder::PeelingDecoder(std::size_t unknowns)
    : decoded_(unknowns, false), waiters_(unknowns) {
  PRLC_REQUIRE(unknowns > 0, "decoder needs at least one unknown");
}

std::size_t PeelingDecoder::add(std::span<const std::size_t> indices) {
  PRLC_REQUIRE(!indices.empty(), "a symbol must cover at least one source block");
  // Validate the *raw* index span before splitting into decoded/pending:
  // a duplicated index whose block is already decoded would otherwise
  // cancel silently and corrupt the symbol.
  for (std::size_t i : indices) {
    PRLC_REQUIRE(i < decoded_.size(), "symbol index out of range");
  }
  scratch_.assign(indices.begin(), indices.end());
  std::sort(scratch_.begin(), scratch_.end());
  PRLC_REQUIRE(std::adjacent_find(scratch_.begin(), scratch_.end()) == scratch_.end(),
               "symbol indices must be distinct");
  ++symbols_seen_;

  Symbol sym;
  for (std::size_t i : indices) {
    if (decoded_[i]) continue;  // a known block XORs out immediately
    ++sym.degree;
    sym.index_xor ^= i;
  }
  if (sym.degree == 0) return 0;                      // fully redundant
  if (sym.degree == 1) return resolve(sym.index_xor);  // degree one decodes directly
  const std::size_t id = symbols_.size();
  for (std::size_t i : indices) {
    if (!decoded_[i]) waiters_[i].push_back(id);
  }
  symbols_.push_back(sym);
  ++buffered_;
  return 0;
}

std::size_t PeelingDecoder::resolve(std::size_t first) {
  std::size_t newly = 0;
  queue_.assign(1, first);
  while (!queue_.empty()) {
    const std::size_t i = queue_.back();
    queue_.pop_back();
    if (decoded_[i]) continue;
    decoded_[i] = true;
    ++decoded_count_;
    ++newly;
    // Reduce every buffered symbol waiting on i; one left over decodes.
    for (std::size_t id : waiters_[i]) {
      Symbol& sym = symbols_[id];
      if (sym.degree == 0) continue;  // retired
      --sym.degree;
      sym.index_xor ^= i;
      if (sym.degree == 1) {
        queue_.push_back(sym.index_xor);
        sym.degree = 0;
        --buffered_;
      }
    }
    std::vector<std::size_t>().swap(waiters_[i]);
  }
  return newly;
}

std::size_t PeelingDecoder::decoded_prefix() const {
  std::size_t k = 0;
  while (k < decoded_.size() && decoded_[k]) ++k;
  return k;
}

}  // namespace prlc::codes
