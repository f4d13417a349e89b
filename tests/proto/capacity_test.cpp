// Capacity-aware placement: the paper's "each node can store d coded
// blocks, M < W d" storage constraint.
#include <gtest/gtest.h>

#include "codes/decoder.h"
#include "net/chord_network.h"
#include "net/sensor_network.h"
#include "proto/collector.h"
#include "proto/experiment_trial.h"
#include "proto/predistribution.h"

namespace prlc::proto {
namespace {

using codes::PriorityDistribution;
using codes::PrioritySpec;

struct World {
  PrioritySpec spec{std::vector<std::size_t>{3, 5}};  // N = 8
  PriorityDistribution dist{PriorityDistribution::uniform(2)};
  net::ChordNetwork overlay;
  Rng rng{111};

  explicit World(std::size_t nodes, std::size_t locations) : overlay(make_net(nodes, locations)) {}

  static net::ChordParams make_net(std::size_t nodes, std::size_t locations) {
    net::ChordParams p;
    p.nodes = nodes;
    p.locations = locations;
    p.seed = 77;
    return p;
  }
};

TEST(Capacity, EnforcesPerNodeLimit) {
  World w(50, 100);  // 100 locations over 50 nodes: loads of 2 on average
  ProtocolParams params;
  params.block_size = 4;
  params.node_capacity = 2;
  Predistribution pd(w.overlay, w.spec, w.dist, params);
  const auto source = codes::SourceData<Field>::random(8, 4, w.rng);
  const auto stats = pd.disseminate(source, w.rng);
  EXPECT_LE(stats.max_node_load, 2u);
  EXPECT_EQ(stats.capacity_overflows, 0u);  // M = W * d exactly
  EXPECT_GT(stats.capacity_spills, 0u);     // random placement must spill
  EXPECT_EQ(pd.surviving_locations().size(), 100u);
}

TEST(Capacity, UnlimitedByDefault) {
  World w(20, 200);
  ProtocolParams params;
  params.block_size = 4;
  Predistribution pd(w.overlay, w.spec, w.dist, params);
  const auto source = codes::SourceData<Field>::random(8, 4, w.rng);
  const auto stats = pd.disseminate(source, w.rng);
  EXPECT_EQ(stats.capacity_spills, 0u);
  EXPECT_EQ(stats.capacity_overflows, 0u);
  EXPECT_GT(stats.max_node_load, 10u);  // 200/20 = 10 mean: max above it
}

TEST(Capacity, OverflowWhenBudgetExceeded) {
  World w(10, 40);  // M = 40 > W*d = 20
  ProtocolParams params;
  params.block_size = 4;
  params.node_capacity = 2;
  Predistribution pd(w.overlay, w.spec, w.dist, params);
  const auto source = codes::SourceData<Field>::random(8, 4, w.rng);
  const auto stats = pd.disseminate(source, w.rng);
  EXPECT_EQ(stats.capacity_overflows, 20u);
  EXPECT_LE(stats.max_node_load, 2u);
  EXPECT_EQ(pd.surviving_locations().size(), 20u);
}

TEST(Capacity, DataStillDecodesWithTightCapacity) {
  World w(60, 48);
  ProtocolParams params;
  params.block_size = 4;
  params.node_capacity = 1;  // one block per node, 48 blocks on 60 nodes
  Predistribution pd(w.overlay, w.spec, w.dist, params);
  const auto source = codes::SourceData<Field>::random(8, 4, w.rng);
  const auto stats = pd.disseminate(source, w.rng);
  EXPECT_LE(stats.max_node_load, 1u);
  FaultyChannel channel(pd);
  const CheckedCollection checked = collect_checked(channel, source, {}, w.rng);
  const CollectionResult& result = checked.outcome.result;
  EXPECT_EQ(result.decoded_levels, 2u);
  EXPECT_EQ(checked.bytes.wrong_blocks, 0u);
}

TEST(Capacity, SensorOverlaySpillsToNeighbors) {
  net::SensorParams sp;
  sp.nodes = 60;
  sp.locations = 60;
  sp.seed = 13;
  net::SensorNetwork overlay(sp);
  const PrioritySpec spec({3, 5});
  ProtocolParams params;
  params.block_size = 4;
  params.node_capacity = 1;
  Predistribution pd(overlay, spec, PriorityDistribution::uniform(2), params);
  Rng rng(112);
  const auto source = codes::SourceData<Field>::random(8, 4, rng);
  const auto stats = pd.disseminate(source, rng);
  EXPECT_LE(stats.max_node_load, 1u);
  EXPECT_EQ(stats.capacity_overflows, 0u);
}

TEST(Capacity, CandidateListsAreOrderedAndAlive) {
  World w(30, 10);
  for (net::LocationId loc = 0; loc < 10; ++loc) {
    const auto cands = w.overlay.owner_candidates(loc, 5);
    ASSERT_EQ(cands.size(), 5u);
    EXPECT_EQ(cands[0], w.overlay.owner_of(loc));
    for (net::NodeId v : cands) EXPECT_TRUE(w.overlay.alive(v));
    // Distinct candidates.
    std::set<net::NodeId> unique(cands.begin(), cands.end());
    EXPECT_EQ(unique.size(), cands.size());
  }
  // Request more candidates than alive nodes: get all of them.
  EXPECT_EQ(w.overlay.owner_candidates(0, 100).size(), 30u);
}

}  // namespace
}  // namespace prlc::proto
