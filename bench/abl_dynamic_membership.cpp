// Ablation — long-run persistence under join/leave turnover.
//
// The paper's motivating P2P setting has peers continuously arriving and
// departing, not just a one-shot failure wave. This bench runs a Chord
// ring through many session-churn epochs (each epoch: 15% of peers leave,
// 30% of departed peers rejoin *empty*) and measures how long the
// priority-coded archive stays decodable — with and without the refresh
// maintenance round between epochs. Expected shape: without maintenance
// the archive dies within a handful of epochs even though the *population*
// stays large (rejoined peers hold nothing); with refresh it persists
// indefinitely, at a bounded repair cost per epoch.
#include <iostream>

#include "bench_common.h"
#include "net/churn.h"
#include "proto/experiment_trial.h"
#include "proto/refresh.h"
#include "runtime/trial_runner.h"
#include "util/table_printer.h"

namespace {

using namespace prlc;

constexpr std::size_t kNodes = 400;
constexpr std::size_t kEpochs = 20;

/// One epoch of one arm; a trial's row holds its samples (zeros past
/// network death), the merged row their means over trials.
struct EpochPoint {
  double alive_frac = 0;
  double levels = 0;
  double ci95_levels = 0;
  double repair_msgs = 0;
};

constexpr runtime::PointStat<EpochPoint> kStats[] = {
    {&EpochPoint::alive_frac},
    {&EpochPoint::levels, &EpochPoint::ci95_levels},
    {&EpochPoint::repair_msgs},
};

std::vector<EpochPoint> run_trial(bool use_refresh, const proto::TrialSetup& setup, Rng& rng) {
  proto::Deployment d = setup.deploy(rng);
  std::vector<EpochPoint> rows(kEpochs);
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    net::apply_session_churn(*d.overlay, 0.15, 0.30, rng);
    if (d.overlay->alive_count() == 0) break;
    std::size_t messages = 0;
    if (use_refresh) {
      messages = refresh(d.predist, d.overlay->random_alive_node(rng), rng).messages;
    }
    proto::FaultyChannel channel(d.predist);
    const auto result = proto::collect_checked(channel, d.source, {}, rng).outcome.result;
    rows[epoch].alive_frac =
        static_cast<double>(d.overlay->alive_count()) / static_cast<double>(kNodes);
    rows[epoch].levels = static_cast<double>(result.decoded_levels);
    rows[epoch].repair_msgs = static_cast<double>(messages);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("Ablation — session churn (join/leave) over many epochs",
                "15% leave / 30% rejoin per epoch; refresh on/off.");
  const std::size_t trials = bench::options().trials_or(12, 3);
  const std::uint64_t seed = bench::options().seed_or(0xD1A51C);
  proto::DeploymentParams deployment;
  deployment.overlay = proto::OverlayKind::kChord;
  deployment.nodes = kNodes;
  deployment.locations = 240;
  deployment.experiment.level_sizes = {20, 40, 60};  // N = 120, uniform distribution
  deployment.protocol.block_size = 8;
  const proto::TrialSetup setup(deployment);

  // Same root seed for both arms: trial i sees the identical ring and
  // churn schedule with and without maintenance.
  runtime::TrialRunner runner(bench::options().threads);
  const auto with = runner.run_merged<EpochPoint>(
      trials, seed, kStats, [&](std::size_t, Rng& rng) { return run_trial(true, setup, rng); });
  const auto without = runner.run_merged<EpochPoint>(
      trials, seed, kStats, [&](std::size_t, Rng& rng) { return run_trial(false, setup, rng); });

  bench::BenchReport report("abl_dynamic_membership");
  report.set_config("trials", trials);
  report.set_config("seed", static_cast<double>(seed));
  for (std::size_t e = 0; e < kEpochs; ++e) {
    report.add_point("with_refresh", {{"epoch", static_cast<double>(e + 1)},
                                      {"alive_frac", with[e].alive_frac},
                                      {"decoded_levels", with[e].levels},
                                      {"repair_messages", with[e].repair_msgs}});
    report.add_point("without_refresh", {{"epoch", static_cast<double>(e + 1)},
                                         {"decoded_levels", without[e].levels}});
  }

  TablePrinter table({"epoch", "alive frac", "levels w/ refresh", "repairs/epoch",
                      "levels w/o refresh"});
  for (std::size_t e = 0; e < kEpochs; e += 2) {
    table.add_row({std::to_string(e + 1), fmt_double(with[e].alive_frac, 2),
                   fmt_mean_ci(with[e].levels, with[e].ci95_levels, 2),
                   fmt_double(with[e].repair_msgs, 0),
                   fmt_mean_ci(without[e].levels, without[e].ci95_levels, 2)});
  }
  table.emit("abl_dynamic_membership");
  std::cout << "\nExpected shape: the population equilibrates at ~2/3 alive, yet the\n"
               "unmaintained archive decays to zero levels (rejoined peers are\n"
               "empty); with a refresh round per epoch all three levels persist\n"
               "for the whole run at a steady repair cost.\n";
  bench::finalize(&report);
  return 0;
}
