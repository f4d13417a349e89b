#include "proto/fault_experiment.h"

#include "net/churn.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

constexpr runtime::PointStat<FaultPoint> kStats[] = {
    {&FaultPoint::mean_decoded_levels, &FaultPoint::ci95_decoded_levels},
    {&FaultPoint::mean_decoded_blocks},
    {&FaultPoint::mean_blocks_retrieved},
    {&FaultPoint::mean_blocks_lost},
    {&FaultPoint::mean_retries},
    {&FaultPoint::mean_hedges},
    {&FaultPoint::mean_wire_errors},
    {&FaultPoint::mean_timeouts},
    {&FaultPoint::mean_transient_errors},
    {&FaultPoint::mean_crashes},
    {&FaultPoint::mean_blacklisted},
    {&FaultPoint::degraded_fraction},
};

}  // namespace

std::vector<FaultPoint> run_fault_experiment(const FaultSweepParams& params) {
  params.experiment.validate();
  params.faults.validate();
  params.retry.validate();
  PRLC_REQUIRE(params.faults.bitrot_rate == 0.0 && params.faults.byzantine_fraction == 0.0,
               "silent faults (bit rot, Byzantine nodes) need a manifest: sweep them with "
               "the integrity experiment");
  PRLC_REQUIRE(params.churn_fraction >= 0.0 && params.churn_fraction <= 1.0,
               "churn fraction must be in [0,1]");
  PRLC_REQUIRE(!params.fault_scales.empty(), "need at least one fault scale");
  for (std::size_t i = 0; i < params.fault_scales.size(); ++i) {
    PRLC_REQUIRE(params.fault_scales[i] >= 0.0, "fault scales must be nonnegative");
    PRLC_REQUIRE(i == 0 || params.fault_scales[i - 1] <= params.fault_scales[i],
                 "fault scales must be ascending");
  }

  const TrialSetup setup(params);
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
  return runner.run_merged<FaultPoint>(
      params.experiment.trials, params.experiment.root_seed, kStats,
      [&](std::size_t t, Rng& rng) {
        trials_run.add();
        obs::ScopedSpan trial_span("trial", "fault_experiment",
                                   {{"trial", static_cast<double>(t)}});
        Deployment d = setup.deploy(rng);
        if (params.churn_fraction > 0) {
          net::kill_uniform_fraction(*d.overlay, params.churn_fraction, rng);
        }

        std::vector<FaultPoint> rows(points);
        for (std::size_t point = 0; point < points; ++point) {
          const double scale = params.fault_scales[point];
          obs::set_logical_time(point);
          net::FaultPlan plan(params.faults.scaled(scale), d.overlay->nodes(), rng);
          FaultyChannel channel(d.predist, std::move(plan));
          CollectorOptions options;
          options.retry = params.retry;
          const CollectionOutcome c = collect_checked(channel, d.source, options, rng).outcome;
          FaultPoint& row = rows[point];
          row.fault_scale = scale;
          row.mean_decoded_levels = static_cast<double>(c.result.decoded_levels);
          row.mean_decoded_blocks = static_cast<double>(c.result.decoded_blocks);
          row.mean_blocks_retrieved = static_cast<double>(c.result.blocks_retrieved);
          row.mean_blocks_lost = static_cast<double>(c.blocks_lost);
          row.mean_retries = static_cast<double>(c.retries);
          row.mean_hedges = static_cast<double>(c.hedges);
          row.mean_wire_errors = static_cast<double>(c.faults.wire_errors);
          row.mean_timeouts = static_cast<double>(c.faults.timeouts);
          row.mean_transient_errors = static_cast<double>(c.faults.transient_errors);
          row.mean_crashes = static_cast<double>(c.faults.crashes);
          row.mean_blacklisted = static_cast<double>(c.blacklisted_nodes);
          row.degraded_fraction = c.degraded ? 1.0 : 0.0;
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
        return rows;
      });
}

}  // namespace prlc::proto
