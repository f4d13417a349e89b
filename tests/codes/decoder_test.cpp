#include "codes/decoder.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "codes/encoder.h"
#include "gf/gf2m.h"
#include "gf/gf256.h"
#include "linalg/progressive_decoder.h"
#include "obs/events.h"
#include "util/check.h"
#include "util/json.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

PrioritySpec small_spec() { return PrioritySpec({2, 3, 4}); }

/// Feed random blocks of the given levels until `count` of them are in.
template <gf::FieldPolicy Field>
void feed(PriorityDecoder<Field>& dec, const PriorityEncoder<Field>& enc, std::size_t level,
          std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) dec.add(enc.encode(level, rng));
}

TEST(PriorityDecoder, RlcIsAllOrNothing) {
  Rng rng(111);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kRlc, spec);
  PriorityDecoder<F> dec(Scheme::kRlc, spec);
  feed(dec, enc, 0, spec.total() - 1, rng);
  EXPECT_EQ(dec.decoded_levels(), 0u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 0u);
  // One more independent block completes everything (whp over GF(256)).
  feed(dec, enc, 0, 3, rng);
  EXPECT_EQ(dec.decoded_levels(), 3u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), spec.total());
}

TEST(PriorityDecoder, PlcDecodesLevelsProgressively) {
  Rng rng(112);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // Two level-0 blocks decode level 0 (b_1 = 2).
  feed(dec, enc, 0, 2, rng);
  EXPECT_EQ(dec.decoded_levels(), 1u);
  EXPECT_TRUE(dec.is_level_decoded(0));
  EXPECT_FALSE(dec.is_level_decoded(1));
  // Three level-1 blocks extend the prefix to b_2 = 5.
  feed(dec, enc, 1, 3, rng);
  EXPECT_EQ(dec.decoded_levels(), 2u);
  // Four level-2 blocks finish everything.
  feed(dec, enc, 2, 4, rng);
  EXPECT_EQ(dec.decoded_levels(), 3u);
  EXPECT_EQ(dec.rank(), spec.total());
}

TEST(PriorityDecoder, PlcHigherLevelBlocksAloneDecodeEverything) {
  Rng rng(113);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // Level-2 PLC blocks span all 9 unknowns; 9 of them decode all levels.
  feed(dec, enc, 2, 9, rng);
  EXPECT_EQ(dec.decoded_levels(), 3u);
}

TEST(PriorityDecoder, PlcMixedBlocksFollowTheorem1Counts) {
  Rng rng(114);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // D = (1, 4, 0): D_{1,2} = 5 >= b_2 = 5 and D_{2,2} = 4 >= b_2-b_1 = 3,
  // so exactly two levels decode (Theorem 1).
  feed(dec, enc, 0, 1, rng);
  feed(dec, enc, 1, 4, rng);
  EXPECT_EQ(dec.decoded_levels(), 2u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 5u);
}

TEST(PriorityDecoder, SlcLevelsAreIndependent) {
  Rng rng(115);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  PriorityDecoder<F> dec(Scheme::kSlc, spec);
  // Decode level 1 (3 blocks) without level 0: strict-priority X stays 0.
  feed(dec, enc, 1, 3, rng);
  EXPECT_TRUE(dec.is_level_decoded(1));
  EXPECT_FALSE(dec.is_level_decoded(0));
  EXPECT_EQ(dec.decoded_levels(), 0u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 0u);
  // Blocks 2..4 are individually decoded though.
  EXPECT_TRUE(dec.is_block_decoded(2));
  EXPECT_FALSE(dec.is_block_decoded(0));
  // Now decode level 0: prefix jumps to 2 levels.
  feed(dec, enc, 0, 2, rng);
  EXPECT_EQ(dec.decoded_levels(), 2u);
  EXPECT_EQ(dec.decoded_prefix_blocks(), 5u);
}

/// SLC as the paper states it: n independent per-level RLC decoders, each
/// over its own level's unknowns in level-local coordinates. The joint
/// PriorityDecoder must agree with it on everything observable.
template <gf::FieldPolicy Field>
class PerLevelReference {
 public:
  using Symbol = typename Field::Symbol;

  PerLevelReference(const PrioritySpec& spec, std::size_t payload_size) : spec_(spec) {
    levels_.reserve(spec.levels());
    for (std::size_t i = 0; i < spec.levels(); ++i) {
      levels_.emplace_back(spec.level_size(i), payload_size);
    }
  }

  bool add(const CodedBlock<Field>& b) {
    return levels_[b.level].add(std::span<const Symbol>(b.coeffs).subspan(
                                    spec_.level_begin(b.level), spec_.level_size(b.level)),
                                b.payload);
  }

  bool add(const SparseCodedBlock<Field>& b) {
    std::vector<std::uint32_t> local;
    for (const std::uint32_t j : b.indices) {
      local.push_back(j - static_cast<std::uint32_t>(spec_.level_begin(b.level)));
    }
    return levels_[b.level].add_sparse(local, b.values, b.payload);
  }

  std::size_t rank() const {
    std::size_t r = 0;
    for (const auto& d : levels_) r += d.rank();
    return r;
  }
  bool is_block_decoded(std::size_t j) const {
    const std::size_t level = spec_.level_of_block(j);
    return levels_[level].is_decoded(j - spec_.level_begin(level));
  }
  bool is_level_decoded(std::size_t i) const {
    return levels_[i].decoded_prefix() == spec_.level_size(i);
  }
  std::size_t decoded_levels() const {
    std::size_t k = 0;
    while (k < spec_.levels() && is_level_decoded(k)) ++k;
    return k;
  }
  std::size_t decoded_prefix_blocks() const {
    const std::size_t k = decoded_levels();
    return k == 0 ? 0 : spec_.prefix_size(k - 1);
  }
  std::span<const Symbol> recovered(std::size_t j) const {
    const std::size_t level = spec_.level_of_block(j);
    return levels_[level].solution(j - spec_.level_begin(level));
  }

 private:
  const PrioritySpec& spec_;
  std::vector<linalg::ProgressiveDecoder<Field>> levels_;
};

/// Stream random SLC blocks into the joint decoder and the per-level
/// reference, comparing every observable after each add.
template <gf::FieldPolicy Field>
void expect_slc_matches_per_level_reference(bool sparse, std::size_t payload_size,
                                            std::uint64_t seed) {
  SCOPED_TRACE("order " + std::to_string(Field::order()) + (sparse ? " sparse" : " dense") +
               " payload " + std::to_string(payload_size) + " seed " + std::to_string(seed));
  Rng rng(seed);
  const PrioritySpec spec({3, 5, 8});  // N = 16, uneven levels
  const auto dist = PriorityDistribution::uniform(3);
  const auto source = SourceData<Field>::random(spec.total(), payload_size, rng);
  EncoderOptions opt;
  if (sparse) {
    opt.model = CoefficientModel::kSparse;
    opt.sparsity_factor = 1.5;
  }
  const PriorityEncoder<Field> enc(Scheme::kSlc, spec, opt, &source);
  PriorityDecoder<Field> dec(Scheme::kSlc, spec, payload_size);
  PerLevelReference<Field> ref(spec, payload_size);
  for (std::size_t m = 0; m < 6 * spec.total(); ++m) {
    bool innovative = false;
    bool ref_innovative = false;
    if (sparse) {
      const auto block = enc.encode_sparse_random(dist, rng);
      innovative = dec.add(block);
      ref_innovative = ref.add(block);
    } else {
      const auto block = enc.encode_random(dist, rng);
      innovative = dec.add(block);
      ref_innovative = ref.add(block);
    }
    ASSERT_EQ(innovative, ref_innovative) << "block " << m;
    ASSERT_EQ(dec.rank(), ref.rank()) << "block " << m;
    ASSERT_EQ(dec.decoded_levels(), ref.decoded_levels()) << "block " << m;
    ASSERT_EQ(dec.decoded_prefix_blocks(), ref.decoded_prefix_blocks()) << "block " << m;
    for (std::size_t i = 0; i < spec.levels(); ++i) {
      ASSERT_EQ(dec.is_level_decoded(i), ref.is_level_decoded(i)) << "block " << m;
    }
    for (std::size_t j = 0; j < spec.total(); ++j) {
      ASSERT_EQ(dec.is_block_decoded(j), ref.is_block_decoded(j)) << "block " << m;
      if (!ref.is_block_decoded(j)) continue;
      const auto got = dec.recovered(j);
      const auto want = ref.recovered(j);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "block " << m << " source " << j;
    }
  }
  // Over GF(256) six blocks per unknown decode everything, so the byte
  // comparison above covered every source block.
  if (Field::order() > 2) {
    EXPECT_EQ(dec.decoded_levels(), spec.levels());
  }
}

TEST(PriorityDecoder, SlcJointDecoderMatchesPerLevelDecoders) {
  for (const bool sparse : {false, true}) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{33}}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        expect_slc_matches_per_level_reference<gf::Gf256>(sparse, width, seed);
        expect_slc_matches_per_level_reference<gf::Gf2>(sparse, width, seed);
      }
    }
  }
}

TEST(PriorityDecoder, SlcJournalUsesGlobalColumnIds) {
  // Decode SLC level 1 before level 0. The journal must speak in global
  // source-block ids: level 1's peels name its own columns, and the
  // prefix watermark cannot move until level 0 is complete.
  obs::reset_telemetry();
  obs::set_events_enabled(true);
  Rng rng(121);
  const auto spec = PrioritySpec({4, 6, 10});
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  PriorityDecoder<F> dec(Scheme::kSlc, spec);
  std::uint64_t t = 0;
  std::uint64_t level1_end = 0;
  std::uint64_t level0_done = 0;
  {
    obs::TrialScope scope(obs::begin_telemetry_run(), 0);
    const auto feed_level = [&](std::size_t level, std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        obs::set_logical_time(++t);
        dec.add(enc.encode(level, rng));
      }
    };
    // Past level 1's size, so redundant blocks peel against decoded columns.
    feed_level(1, spec.level_size(1) + 4);
    level1_end = t;
    ASSERT_TRUE(dec.is_level_decoded(1));
    while (!dec.is_level_decoded(0)) feed_level(0, 1);
    level0_done = t;
    while (dec.decoded_levels() < spec.levels()) feed_level(2, 1);
  }
  obs::set_events_enabled(false);

  std::size_t level1_peels = 0;
  std::size_t watermarks = 0;
  double last_prefix = -1;
  std::istringstream lines(obs::EventJournal::global().to_jsonl());
  for (std::string line; std::getline(lines, line);) {
    const json::Value ev = json::Value::parse(line);
    const auto at = static_cast<std::uint64_t>(ev.at("t").as_double());
    const std::string& type = ev.at("event").as_string();
    if (type == "peel" && at <= level1_end) {
      ++level1_peels;
      EXPECT_GE(ev.at("pivot").as_double(), static_cast<double>(spec.level_begin(1)));
      EXPECT_LT(ev.at("pivot").as_double(), static_cast<double>(spec.level_end(1)));
    } else if (type == "watermark_advance") {
      ++watermarks;
      EXPECT_GE(at, level0_done);
      last_prefix = ev.at("prefix_blocks").as_double();
    }
  }
  obs::reset_telemetry();
  EXPECT_GT(level1_peels, 0u);
  EXPECT_GT(watermarks, 0u);
  EXPECT_EQ(last_prefix, static_cast<double>(spec.total()));
}

TEST(PriorityDecoder, FitsChecksSlcFramesWithoutThrowing) {
  const auto spec = small_spec();  // levels [0,2) [2,5) [5,9)
  std::vector<F::Symbol> coeffs(spec.total(), 0);
  coeffs[2] = 1;
  coeffs[4] = 9;
  const PriorityDecoder<F> slc(Scheme::kSlc, spec);
  EXPECT_TRUE(slc.fits(1, coeffs));
  EXPECT_FALSE(slc.fits(0, coeffs));  // support outside level 0
  EXPECT_FALSE(slc.fits(2, coeffs));
  EXPECT_FALSE(slc.fits(3, coeffs));  // no such level
  for (const Scheme scheme : {Scheme::kRlc, Scheme::kPlc}) {
    const PriorityDecoder<F> dec(scheme, spec);
    EXPECT_TRUE(dec.fits(0, coeffs)) << to_string(scheme);
  }
}

TEST(PriorityDecoder, SlcRejectsOutOfLevelSupport) {
  const auto spec = small_spec();
  PriorityDecoder<F> dec(Scheme::kSlc, spec);
  CodedBlock<F> bad;
  bad.level = 0;
  bad.coeffs.assign(spec.total(), 0);
  bad.coeffs[0] = 1;
  bad.coeffs[5] = 2;  // outside level 0
  EXPECT_THROW(dec.add(bad), PreconditionError);
}

TEST(PriorityDecoder, PayloadRoundTripAllSchemes) {
  Rng rng(116);
  const auto spec = small_spec();
  for (Scheme scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    const auto source = SourceData<F>::random(spec.total(), 6, rng);
    const PriorityEncoder<F> enc(scheme, spec, {}, &source);
    PriorityDecoder<F> dec(scheme, spec, 6);
    // Saturate every level with blocks.
    for (std::size_t level = 0; level < spec.levels(); ++level) {
      feed(dec, enc, level, spec.total() + 2, rng);
    }
    ASSERT_EQ(dec.decoded_levels(), spec.levels()) << to_string(scheme);
    for (std::size_t j = 0; j < spec.total(); ++j) {
      ASSERT_TRUE(dec.is_block_decoded(j));
      const auto got = dec.recovered(j);
      const auto want = source.block(j);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << to_string(scheme) << " block " << j;
    }
  }
}

TEST(PriorityDecoder, SparsePlcStillDecodes) {
  Rng rng(117);
  const auto spec = PrioritySpec::uniform(4, 25);  // N = 100
  EncoderOptions opt;
  opt.model = CoefficientModel::kSparse;
  opt.sparsity_factor = 4.0;
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, opt);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  // Half again as many blocks as unknowns, all at the last level.
  feed(dec, enc, 3, 150, rng);
  EXPECT_EQ(dec.decoded_levels(), 4u);
}

TEST(PriorityDecoder, MismatchedBlockRejected) {
  const auto spec = small_spec();
  PriorityDecoder<F> dec(Scheme::kPlc, spec, 4);
  CodedBlock<F> b;
  b.level = 0;
  b.coeffs.assign(spec.total() + 1, 0);
  b.payload.assign(4, 0);
  EXPECT_THROW(dec.add(b), PreconditionError);
  b.coeffs.assign(spec.total(), 0);
  b.payload.assign(3, 0);
  EXPECT_THROW(dec.add(b), PreconditionError);
}

TEST(PriorityDecoder, BlocksSeenCountsEverything) {
  Rng rng(118);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  feed(dec, enc, 0, 10, rng);  // only 2 can be innovative
  EXPECT_EQ(dec.blocks_seen(), 10u);
  EXPECT_EQ(dec.rank(), 2u);
}

TEST(PriorityDecoder, WorksOverGf2) {
  // Small fields lose rank more often but the machinery must still work.
  using F2 = gf::Gf2;
  Rng rng(119);
  const auto spec = PrioritySpec({3, 3});
  const PriorityEncoder<F2> enc(Scheme::kPlc, spec);
  PriorityDecoder<F2> dec(Scheme::kPlc, spec);
  feed(dec, enc, 1, 60, rng);  // heavy overprovisioning beats GF(2) defects
  EXPECT_EQ(dec.decoded_levels(), 2u);
}

TEST(PriorityDecoder, RecoveredRequiresPayloadMode) {
  Rng rng(120);
  const auto spec = small_spec();
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  PriorityDecoder<F> dec(Scheme::kPlc, spec);
  feed(dec, enc, 0, 2, rng);
  EXPECT_THROW(dec.recovered(0), PreconditionError);
}

}  // namespace
}  // namespace prlc::codes
