#include "proto/fault_experiment.h"

#include <memory>

#include "codes/decoder.h"
#include "net/churn.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "util/check.h"
#include "util/stats.h"

namespace prlc::proto {

namespace {

/// One trial's contribution, slotted by trial index for the ordered
/// merge (see runtime/trial_runner.h).
struct TrialOutcome {
  std::vector<double> levels;  ///< per fault-scale point
  std::vector<double> blocks;
  std::vector<double> retrieved;
  std::vector<double> lost;
  std::vector<double> retries;
  std::vector<double> hedges;
  std::vector<double> wire_errors;
  std::vector<double> timeouts;
  std::vector<double> transients;
  std::vector<double> crashes;
  std::vector<double> blacklisted;
  std::vector<double> degraded;
};

}  // namespace

std::vector<FaultPoint> run_fault_experiment(const FaultSweepParams& params) {
  params.experiment.validate();
  params.faults.validate();
  params.retry.validate();
  PRLC_REQUIRE(params.churn_fraction >= 0.0 && params.churn_fraction <= 1.0,
               "churn fraction must be in [0,1]");
  PRLC_REQUIRE(!params.fault_scales.empty(), "need at least one fault scale");
  for (std::size_t i = 0; i < params.fault_scales.size(); ++i) {
    PRLC_REQUIRE(params.fault_scales[i] >= 0.0, "fault scales must be nonnegative");
    PRLC_REQUIRE(i == 0 || params.fault_scales[i - 1] <= params.fault_scales[i],
                 "fault scales must be ascending");
  }

  const codes::PrioritySpec spec = params.experiment.spec();
  const codes::PriorityDistribution dist = params.experiment.distribution();
  const std::size_t locations =
      params.locations > 0 ? params.locations : 2 * spec.total();

  ProtocolParams proto = params.protocol;
  proto.scheme = params.experiment.scheme;

  const std::size_t points = params.fault_scales.size();

  static obs::Counter& trials_run = obs::counter("fault_experiment.trials");

  // Retry/hedge pressure and decode outcome per fault-scale step; logical
  // time is the step index of the sweep.
  struct SeriesIds {
    obs::SeriesId decoded_levels;
    obs::SeriesId blocks_lost;
    obs::SeriesId retries;
    obs::SeriesId hedges;
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::timeseries_enabled();
  if (want_timeseries) {
    ts.decoded_levels = obs::timeseries("fault.decoded_levels");
    ts.blocks_lost = obs::timeseries("fault.blocks_lost");
    ts.retries = obs::timeseries("fault.retries");
    ts.hedges = obs::timeseries("fault.hedges");
  }

  runtime::TrialRunner runner(params.experiment.threads);
  const auto outcomes = runner.run(
      params.experiment.trials, params.experiment.root_seed,
      [&](std::size_t t, Rng& rng) {
        trials_run.add();
        obs::ScopedSpan trial_span("trial", "fault_experiment",
                                   {{"trial", static_cast<double>(t)}});
        auto overlay =
            make_overlay(params.overlay, params.nodes, locations, params.two_choices, rng());
        Predistribution predist(*overlay, spec, dist, proto);
        const auto source =
            codes::SourceData<Field>::random(spec.total(), proto.block_size, rng);
        predist.disseminate(source, rng);
        if (params.churn_fraction > 0) {
          net::kill_uniform_fraction(*overlay, params.churn_fraction, rng);
        }

        TrialOutcome outcome;
        for (std::size_t point = 0; point < points; ++point) {
          const double scale = params.fault_scales[point];
          obs::set_logical_time(point);
          net::FaultPlan plan(params.faults.scaled(scale), overlay->nodes(), rng);
          FaultyChannel channel(predist, std::move(plan));
          codes::PriorityDecoder<Field> decoder(proto.scheme, spec, proto.block_size);
          CollectorOptions options;
          options.retry = params.retry;
          const CollectionOutcome c = collect(channel, decoder, options, rng);
          outcome.levels.push_back(static_cast<double>(c.result.decoded_levels));
          outcome.blocks.push_back(static_cast<double>(c.result.decoded_blocks));
          outcome.retrieved.push_back(static_cast<double>(c.result.blocks_retrieved));
          outcome.lost.push_back(static_cast<double>(c.blocks_lost));
          outcome.retries.push_back(static_cast<double>(c.retries));
          outcome.hedges.push_back(static_cast<double>(c.hedges));
          outcome.wire_errors.push_back(static_cast<double>(c.faults.wire_errors));
          outcome.timeouts.push_back(static_cast<double>(c.faults.timeouts));
          outcome.transients.push_back(static_cast<double>(c.faults.transient_errors));
          outcome.crashes.push_back(static_cast<double>(c.faults.crashes));
          outcome.blacklisted.push_back(static_cast<double>(c.blacklisted_nodes));
          outcome.degraded.push_back(c.degraded ? 1.0 : 0.0);
          if (want_timeseries) {
            obs::sample(ts.decoded_levels, static_cast<double>(c.result.decoded_levels));
            obs::sample(ts.blocks_lost, static_cast<double>(c.blocks_lost));
            obs::sample(ts.retries, static_cast<double>(c.retries));
            obs::sample(ts.hedges, static_cast<double>(c.hedges));
          }
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "fault_point", "fault_experiment",
                {{"fault_scale", scale},
                 {"decoded_levels", static_cast<double>(c.result.decoded_levels)},
                 {"blocks_lost", static_cast<double>(c.blocks_lost)}});
          }
        }
        return outcome;
      });

  // Ordered merge: accumulate in trial order so the floating-point sums
  // are identical regardless of how many threads ran the trials.
  std::vector<RunningStats> levels(points), blocks(points), retrieved(points), lost(points),
      retries(points), hedges(points), wire_errors(points), timeouts(points),
      transients(points), crashes(points), blacklisted(points), degraded(points);
  for (const TrialOutcome& outcome : outcomes) {
    for (std::size_t point = 0; point < points; ++point) {
      levels[point].add(outcome.levels[point]);
      blocks[point].add(outcome.blocks[point]);
      retrieved[point].add(outcome.retrieved[point]);
      lost[point].add(outcome.lost[point]);
      retries[point].add(outcome.retries[point]);
      hedges[point].add(outcome.hedges[point]);
      wire_errors[point].add(outcome.wire_errors[point]);
      timeouts[point].add(outcome.timeouts[point]);
      transients[point].add(outcome.transients[point]);
      crashes[point].add(outcome.crashes[point]);
      blacklisted[point].add(outcome.blacklisted[point]);
      degraded[point].add(outcome.degraded[point]);
    }
  }

  std::vector<FaultPoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    out[i].fault_scale = params.fault_scales[i];
    out[i].mean_decoded_levels = levels[i].mean();
    out[i].ci95_decoded_levels = levels[i].ci95_halfwidth();
    out[i].mean_decoded_blocks = blocks[i].mean();
    out[i].mean_blocks_retrieved = retrieved[i].mean();
    out[i].mean_blocks_lost = lost[i].mean();
    out[i].mean_retries = retries[i].mean();
    out[i].mean_hedges = hedges[i].mean();
    out[i].mean_wire_errors = wire_errors[i].mean();
    out[i].mean_timeouts = timeouts[i].mean();
    out[i].mean_transient_errors = transients[i].mean();
    out[i].mean_crashes = crashes[i].mean();
    out[i].mean_blacklisted = blacklisted[i].mean();
    out[i].degraded_fraction = degraded[i].mean();
  }
  return out;
}

}  // namespace prlc::proto
