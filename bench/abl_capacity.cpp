// Ablation — per-node storage capacity (Sec. 2/4: "each node can store d
// coded blocks", M < W d).
//
// W = 200 nodes host M = 800 coded blocks under capacities d = 4..64 and
// unlimited. Expected shape: placement respects d exactly (max load = d
// whenever d < the unconstrained max); tighter capacity costs more
// spills (placement walks past full nodes, one extra hop each) but
// decodability is untouched as long as M <= W d; at d = 4 the system is
// exactly full (spills everywhere, still zero overflow).
#include <iostream>

#include "bench_common.h"
#include "proto/experiment_trial.h"
#include "runtime/trial_runner.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

/// One capacity's outcome; a trial's row holds its samples, the merged
/// row their means over trials.
struct CapacityPoint {
  double max_load = 0;
  double ci95_max_load = 0;
  double spills = 0;
  double overflows = 0;
  double levels = 0;
};

constexpr runtime::PointStat<CapacityPoint> kStats[] = {
    {&CapacityPoint::max_load, &CapacityPoint::ci95_max_load},
    {&CapacityPoint::spills},
    {&CapacityPoint::overflows},
    {&CapacityPoint::levels},
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("Ablation — per-node storage capacity",
                "W = 200 nodes, M = 800 locations, N = 200 source blocks.");
  const std::size_t trials = bench::options().trials_or(10, 3);
  const std::uint64_t seed = bench::options().seed_or(0xCA9);
  proto::DeploymentParams deployment;
  deployment.overlay = proto::OverlayKind::kChord;
  deployment.nodes = 200;
  deployment.locations = 800;
  deployment.experiment.level_sizes = {40, 60, 100};  // uniform distribution
  deployment.protocol.block_size = 8;
  deployment.protocol.sparse = true;  // keep dissemination cost sane

  runtime::TrialRunner runner(bench::options().threads);
  bench::BenchReport report("abl_capacity");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));

  TablePrinter table({"capacity d", "max load (95% CI)", "spills", "overflows",
                      "decoded levels", "W*d / M"});
  for (std::size_t d : {4u, 6u, 8u, 16u, 64u, 0u}) {
    deployment.protocol.node_capacity = d;
    const proto::TrialSetup setup(deployment);
    // Each capacity gets its own decorrelated stream (offset by d).
    const CapacityPoint c = runner.run_merged<CapacityPoint>(
        trials, seed + d, kStats, [&](std::size_t, Rng& rng) {
          proto::Deployment dep = setup.deploy(rng);
          proto::FaultyChannel channel(dep.predist);
          const auto result = proto::collect_checked(channel, dep.source, {}, rng).outcome.result;
          CapacityPoint row;
          row.max_load = static_cast<double>(dep.stats.max_node_load);
          row.spills = static_cast<double>(dep.stats.capacity_spills);
          row.overflows = static_cast<double>(dep.stats.capacity_overflows);
          row.levels = static_cast<double>(result.decoded_levels);
          return std::vector<CapacityPoint>{row};
        }).front();
    report.add_point("capacity", {{"d", static_cast<double>(d)},
                                  {"max_load", c.max_load},
                                  {"spills", c.spills},
                                  {"overflows", c.overflows},
                                  {"decoded_levels", c.levels}});
    table.add_row({d == 0 ? "unlimited" : std::to_string(d),
                   fmt_mean_ci(c.max_load, c.ci95_max_load, 1), fmt_double(c.spills, 0),
                   fmt_double(c.overflows, 0), fmt_double(c.levels, 2),
                   d == 0 ? "-" : fmt_double(static_cast<double>(200 * d) / 800.0, 2)});
  }
  table.emit("abl_capacity");
  std::cout << "\nExpected shape: max load pinned at d; spills explode as W*d/M -> 1;\n"
               "decodability untouched because every block still lands somewhere.\n";
  bench::finalize(&report);
  return 0;
}
