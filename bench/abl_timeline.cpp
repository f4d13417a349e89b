// Ablation — temporal retention policies for periodic measurements.
//
// Ten measurement rounds are ingested into a fixed storage budget while
// the network churns between rounds; afterwards every retained round is
// queried. Compared: sliding-window (equal shares, hard eviction) vs
// exponential-decay (newest-heavy shares, graceful aging). Expected
// shape: the window policy keeps a flat recovery profile across retained
// ages and forgets everything older; the decay policy keeps the newest
// rounds at full recovery and sheds *low-priority levels first* as
// snapshots age — partial recovery turning shrinking redundancy into
// graceful degradation instead of cliff-edge loss.
#include <iostream>

#include "bench_common.h"
#include "net/chord_network.h"
#include "net/churn.h"
#include "proto/timeline.h"
#include "runtime/trial_runner.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

constexpr std::size_t kRounds = 10;
constexpr std::size_t kWindow = 5;

/// One round age of one policy's query results; a trial's row holds its
/// samples, the merged row their means over trials.
struct AgePoint {
  double allotted = 0;
  double blocks = 0;
  double levels = 0;
  double ci95_levels = 0;
};

constexpr runtime::PointStat<AgePoint> kStats[] = {
    {&AgePoint::levels, &AgePoint::ci95_levels},
    {&AgePoint::blocks},
    {&AgePoint::allotted},
};

std::vector<AgePoint> run_trial(proto::RetentionPolicy policy, const codes::PrioritySpec& spec,
                                const codes::PriorityDistribution& dist, Rng& rng) {
  net::ChordParams np;
  np.nodes = 300;
  np.locations = 480;
  np.seed = rng();
  net::ChordNetwork overlay(np);
  proto::TimelineParams params;
  params.block_size = 8;
  params.window = kWindow;
  params.policy = policy;
  proto::TimelineStore store(overlay, spec, dist, params);
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto snap = codes::SourceData<proto::Field>::random(spec.total(), 8, rng);
    store.ingest(snap, rng);
    net::kill_uniform_fraction(overlay, 0.12, rng);
  }

  // kRounds > kWindow, so the window is full and every retained round
  // answers its query.
  const auto retained = store.retained_rounds();
  PRLC_ASSERT(retained.size() == kWindow, "the retention window is not full");
  std::vector<AgePoint> rows(kWindow);
  for (std::size_t age = 0; age < kWindow; ++age) {
    const auto q = store.query(retained[age], rng).value();
    rows[age].allotted = static_cast<double>(q.locations_allotted);
    rows[age].blocks = static_cast<double>(q.blocks_retrievable);
    rows[age].levels = static_cast<double>(q.decoded_levels);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("Ablation — timeline retention policies",
                "10 rounds, churn 12%/round, budget 480 locations, window 5.");
  const std::size_t trials = bench::options().trials_or(12, 3);
  const std::uint64_t seed = bench::options().seed_or(0x71EE);
  const auto spec = codes::PrioritySpec({10, 20, 30});  // N = 60 per round
  const auto dist = codes::PriorityDistribution({0.4, 0.3, 0.3});

  const proto::RetentionPolicy policies[] = {proto::RetentionPolicy::kSlidingWindow,
                                             proto::RetentionPolicy::kExponentialDecay};

  // [policy][round age]
  std::vector<std::vector<AgePoint>> ages;
  runtime::TrialRunner runner(bench::options().threads);
  for (const proto::RetentionPolicy policy : policies) {
    ages.push_back(runner.run_merged<AgePoint>(trials, seed, kStats, [&](std::size_t, Rng& rng) {
      return run_trial(policy, spec, dist, rng);
    }));
  }

  bench::BenchReport report("abl_timeline");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  const char* policy_names[] = {"sliding_window", "exponential_decay"};
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t age = 0; age < kWindow; ++age) {
      const AgePoint& a = ages[p][age];
      report.add_point(policy_names[p], {{"round_age", static_cast<double>(age)},
                                         {"locations_allotted", a.allotted},
                                         {"blocks_retrievable", a.blocks},
                                         {"decoded_levels", a.levels}});
    }
  }

  TablePrinter table({"round age", "window: share", "window: survivors", "window: levels",
                      "decay: share", "decay: survivors", "decay: levels"});
  for (std::size_t age = 0; age < kWindow; ++age) {
    std::vector<std::string> row = {std::to_string(age)};
    for (const std::vector<AgePoint>& policy : ages) {
      const AgePoint& a = policy[age];
      row.push_back(fmt_double(a.allotted, 0));
      row.push_back(fmt_double(a.blocks, 0));
      row.push_back(fmt_mean_ci(a.levels, a.ci95_levels, 2));
    }
    table.add_row(row);
  }
  table.emit("abl_timeline");
  std::cout << "\nExpected shape: equal shares decay uniformly with age (churn eats\n"
               "survivors); exponential decay trades old rounds' depth for newer\n"
               "rounds' safety, losing raw samples before aggregates before alarms.\n";
  bench::finalize(&report);
  return 0;
}
