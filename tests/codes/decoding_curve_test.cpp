#include "codes/decoding_curve.h"

#include <gtest/gtest.h>

#include "gf/gf256.h"
#include "util/check.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

TEST(MakeBlockCounts, EvenSpacingAndDedup) {
  const auto counts = make_block_counts(10, 100, 10);
  EXPECT_EQ(counts.front(), 10u);
  EXPECT_EQ(counts.back(), 100u);
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_LT(counts[i - 1], counts[i]);
  const auto tight = make_block_counts(5, 7, 10);  // more points than range
  EXPECT_EQ(tight, (std::vector<std::size_t>{5, 6, 7}));
}

TEST(MakeBlockCounts, SinglePoint) {
  EXPECT_EQ(make_block_counts(42, 42, 1), (std::vector<std::size_t>{42}));
  EXPECT_EQ(make_block_counts(10, 50, 1), (std::vector<std::size_t>{50}));
}

TEST(MakeBlockCounts, RejectsBadRanges) {
  EXPECT_THROW(make_block_counts(0, 10, 3), PreconditionError);
  EXPECT_THROW(make_block_counts(10, 9, 3), PreconditionError);
  EXPECT_THROW(make_block_counts(1, 10, 0), PreconditionError);
}

TEST(DecodingCurve, MonotoneAndBounded) {
  const auto spec = PrioritySpec::uniform(4, 10);  // N = 40
  const auto dist = PriorityDistribution::uniform(4);
  CurveOptions opt;
  opt.block_counts = make_block_counts(5, 100, 8);
  opt.trials = 20;
  opt.seed = 3;
  const auto curve = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  ASSERT_EQ(curve.size(), 8u);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].mean_levels, 0.0);
    EXPECT_LE(curve[i].mean_levels, 4.0);
    EXPECT_LE(curve[i].mean_blocks, 40.0);
    if (i > 0) {
      // Decoded prefix is monotone within each trial, hence in the mean.
      EXPECT_GE(curve[i].mean_levels, curve[i - 1].mean_levels - 1e-12);
      EXPECT_GE(curve[i].mean_blocks, curve[i - 1].mean_blocks - 1e-12);
    }
  }
  // With 100 blocks for 40 unknowns everything decodes.
  EXPECT_NEAR(curve.back().mean_levels, 4.0, 1e-9);
  EXPECT_NEAR(curve.back().mean_blocks, 40.0, 1e-9);
}

TEST(DecodingCurve, RlcIsAllOrNothingAroundN) {
  const auto spec = PrioritySpec::uniform(2, 15);  // N = 30
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.block_counts = {15, 29, 31, 60};
  opt.trials = 15;
  opt.seed = 4;
  const auto curve = simulate_decoding_curve<F>(Scheme::kRlc, spec, dist, opt);
  EXPECT_DOUBLE_EQ(curve[0].mean_levels, 0.0);
  EXPECT_DOUBLE_EQ(curve[1].mean_levels, 0.0);
  EXPECT_GT(curve[2].mean_levels, 1.5);   // 31 blocks: usually both levels
  EXPECT_NEAR(curve[3].mean_levels, 2.0, 1e-9);
}

TEST(DecodingCurve, PlcBeatsRlcOnFirstLevel) {
  const auto spec = PrioritySpec({5, 35});
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.block_counts = {12};
  opt.trials = 30;
  opt.seed = 5;
  const auto plc = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  const auto rlc = simulate_decoding_curve<F>(Scheme::kRlc, spec, dist, opt);
  EXPECT_GT(plc[0].mean_levels, 0.3);
  EXPECT_DOUBLE_EQ(rlc[0].mean_levels, 0.0);
}

TEST(DecodingCurve, DeterministicPerSeed) {
  const auto spec = PrioritySpec::uniform(3, 5);
  const auto dist = PriorityDistribution::uniform(3);
  CurveOptions opt;
  opt.block_counts = {5, 15, 25};
  opt.trials = 10;
  opt.seed = 77;
  const auto a = simulate_decoding_curve<F>(Scheme::kSlc, spec, dist, opt);
  const auto b = simulate_decoding_curve<F>(Scheme::kSlc, spec, dist, opt);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].mean_levels, b[i].mean_levels);
    EXPECT_DOUBLE_EQ(a[i].ci95_levels, b[i].ci95_levels);
  }
}

TEST(DecodingCurve, ThreadCountDoesNotChangeResults) {
  const auto spec = PrioritySpec({5, 10, 25});
  const auto dist = PriorityDistribution::uniform(3);
  CurveOptions opt;
  opt.block_counts = {10, 25, 45, 80};
  opt.trials = 16;
  opt.seed = 91;
  opt.threads = 1;
  const auto serial = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  opt.threads = 4;
  const auto wide = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].mean_levels, wide[i].mean_levels);
    EXPECT_EQ(serial[i].ci95_levels, wide[i].ci95_levels);
    EXPECT_EQ(serial[i].mean_blocks, wide[i].mean_blocks);
    EXPECT_EQ(serial[i].ci95_blocks, wide[i].ci95_blocks);
  }
}

/// The decoding curve of `opt` with every block expanded to a dense
/// coefficient vector before it reaches the decoder — the reference the
/// driver's sparse feeding must reproduce. Same trial seeds and merge as
/// simulate_decoding_curve.
std::vector<CurvePoint> dense_fed_curve(Scheme scheme, const PrioritySpec& spec,
                                        const PriorityDistribution& dist,
                                        const CurveOptions& opt) {
  const PriorityEncoder<F> encoder(scheme, spec, opt.encoder, nullptr);
  static constexpr runtime::PointStat<CurvePoint> kStats[] = {
      {&CurvePoint::mean_levels, &CurvePoint::ci95_levels},
      {&CurvePoint::mean_blocks, &CurvePoint::ci95_blocks},
  };
  runtime::TrialRunner runner(1);
  return runner.run_merged<CurvePoint>(opt.trials, opt.seed, kStats, [&](std::size_t, Rng& rng) {
    PriorityDecoder<F> decoder(scheme, spec, 0);
    std::vector<CurvePoint> rows;
    for (std::size_t m = 1; m <= opt.block_counts.back(); ++m) {
      decoder.add(encoder.encode_random(dist, rng));
      if (m == opt.block_counts[rows.size()]) {
        CurvePoint row;
        row.coded_blocks = m;
        row.mean_levels = static_cast<double>(decoder.decoded_levels());
        row.mean_blocks = static_cast<double>(decoder.decoded_prefix_blocks());
        rows.push_back(row);
      }
    }
    return rows;
  });
}

TEST(DecodingCurve, SparseBlocksMatchDenseBlocksAcrossThreads) {
  // A sparse coefficient model streams (index, value) blocks through the
  // decoder's O(nnz) path; the curve must equal the dense-fed one bit for
  // bit (same RNG consumption in the encoder, exactly equivalent decoder
  // arithmetic), at every thread count.
  const auto spec = PrioritySpec::uniform(4, 12);  // N = 48
  const auto dist = PriorityDistribution::uniform(4);
  for (const auto scheme : {Scheme::kRlc, Scheme::kSlc, Scheme::kPlc}) {
    CurveOptions opt;
    opt.block_counts = make_block_counts(10, 120, 6);
    opt.trials = 12;
    opt.seed = 77;
    opt.encoder.model = CoefficientModel::kSparse;
    opt.encoder.sparsity_factor = 2.0;
    const auto dense = dense_fed_curve(scheme, spec, dist, opt);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      opt.threads = threads;
      const auto sparse = simulate_decoding_curve<F>(scheme, spec, dist, opt);
      ASSERT_EQ(dense.size(), sparse.size());
      for (std::size_t i = 0; i < dense.size(); ++i) {
        EXPECT_EQ(dense[i].coded_blocks, sparse[i].coded_blocks);
        EXPECT_EQ(dense[i].mean_levels, sparse[i].mean_levels)
            << "scheme " << static_cast<int>(scheme) << " threads " << threads;
        EXPECT_EQ(dense[i].ci95_levels, sparse[i].ci95_levels);
        EXPECT_EQ(dense[i].mean_blocks, sparse[i].mean_blocks);
        EXPECT_EQ(dense[i].ci95_blocks, sparse[i].ci95_blocks);
      }
    }
  }
}

TEST(DecodingCurve, ChunkedSparsityStillDecodesEverything) {
  // Chunked supports cover every chunk with enough blocks, so the curve
  // still saturates — with far less decoder fill-in (the N = 1e5 regime's
  // enabling structure, asserted here at test scale).
  const auto spec = PrioritySpec::uniform(2, 32);  // N = 64
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.block_counts = {400};
  opt.trials = 6;
  opt.seed = 11;
  opt.threads = 1;
  opt.encoder.model = CoefficientModel::kSparse;
  opt.encoder.sparsity_factor = 3.0;
  opt.encoder.chunk_size = 16;
  const auto curve = simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt);
  EXPECT_NEAR(curve.back().mean_levels, 2.0, 1e-9);
  EXPECT_NEAR(curve.back().mean_blocks, 64.0, 1e-9);
}

TEST(DecodingCurve, ValidatesOptions) {
  const auto spec = PrioritySpec::uniform(2, 5);
  const auto dist = PriorityDistribution::uniform(2);
  CurveOptions opt;
  opt.trials = 5;
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt), PreconditionError);
  opt.block_counts = {10, 10};
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt), PreconditionError);
  opt.block_counts = {10};
  opt.trials = 0;
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, dist, opt), PreconditionError);
  opt.trials = 1;
  const auto wrong_dist = PriorityDistribution::uniform(3);
  EXPECT_THROW(simulate_decoding_curve<F>(Scheme::kPlc, spec, wrong_dist, opt),
               PreconditionError);
}

}  // namespace
}  // namespace prlc::codes
