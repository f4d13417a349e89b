#include "proto/persistence_experiment.h"

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "sim/failure_process.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

constexpr runtime::PointStat<PersistencePoint> kStats[] = {
    {&PersistencePoint::mean_surviving_blocks},
    {&PersistencePoint::mean_decoded_levels, &PersistencePoint::ci95_decoded_levels},
    {&PersistencePoint::mean_decoded_blocks},
    {&PersistencePoint::mean_dissemination_hops},
};

}  // namespace

std::vector<PersistencePoint> run_persistence_experiment(const PersistenceParams& params) {
  params.experiment.validate();
  PRLC_REQUIRE(!params.failure_fractions.empty(), "need at least one failure fraction");
  for (std::size_t i = 1; i < params.failure_fractions.size(); ++i) {
    PRLC_REQUIRE(params.failure_fractions[i - 1] <= params.failure_fractions[i],
                 "failure fractions must be ascending");
  }

  const TrialSetup setup(params);
  const codes::PrioritySpec& spec = setup.spec;
  const std::size_t points = params.failure_fractions.size();

  // Translate the cumulative failure-fraction sweep into a wave schedule
  // on the unified failure-stream API (sim/failure_process.h): to reach
  // fraction f of the *original* nodes at point t, the wave at time t
  // kills the increment relative to what previous waves already killed.
  // The schedule is churn only — no randomness — so it is shared by every
  // trial; each trial materializes its own process over it. Points whose
  // fraction does not increase get no wave at all (not a zero-size one),
  // preserving the historical Rng draw and telemetry sequence exactly.
  std::vector<sim::WaveFailureProcess::Wave> waves;
  std::vector<bool> wave_fires(points, false);
  {
    double killed_so_far = 0.0;
    for (std::size_t point = 0; point < points; ++point) {
      const double f = params.failure_fractions[point];
      const double remaining = 1.0 - killed_so_far;
      if (f > killed_so_far && remaining > 0) {
        waves.push_back({static_cast<double>(point), (f - killed_so_far) / remaining});
        wave_fires[point] = true;
        killed_so_far = f;
      }
    }
  }

  static obs::Counter& trials_run = obs::counter("persistence.trials");
  static obs::Gauge& survivors_gauge = obs::gauge("persistence.last_survivors");
  static obs::LatencyHistogram& survivors_hist = obs::histogram("persistence.survivors");

  // Time-series handles, resolved once outside the trial loop (resolution
  // takes a mutex; sampling through the id is lock-free). Logical time is
  // the churn-point index of the failure-fraction sweep.
  struct SeriesIds {
    obs::SeriesId survivors;
    obs::SeriesId decoded_levels;
    std::vector<obs::SeriesId> level_survivors;  ///< per priority level
    std::vector<obs::SeriesId> margin;           ///< decodability margin per level
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::timeseries_enabled();
  if (want_timeseries) {
    ts.survivors = obs::timeseries("persistence.survivors");
    ts.decoded_levels = obs::timeseries("persistence.decoded_levels");
    for (std::size_t l = 0; l < spec.levels(); ++l) {
      const std::string suffix = ".l" + std::to_string(l + 1);
      ts.level_survivors.push_back(obs::timeseries("persistence.level_survivors" + suffix));
      ts.margin.push_back(obs::timeseries("persistence.margin" + suffix));
    }
  }

  runtime::TrialRunner runner(params.experiment.threads);
  return runner.run_merged<PersistencePoint>(
      params.experiment.trials, params.experiment.root_seed, kStats,
      [&](std::size_t t, Rng& rng) {
        trials_run.add();
        obs::ScopedSpan trial_span(
            "trial", "persistence",
            {{"trial", static_cast<double>(t)},
             {"scheme",
              static_cast<double>(static_cast<int>(params.experiment.scheme))}});
        Deployment d = setup.deploy(rng);
        const double hops_per_msg =
            d.stats.messages > d.stats.failed_routes
                ? static_cast<double>(d.stats.total_hops) /
                      static_cast<double>(d.stats.messages - d.stats.failed_routes)
                : 0.0;

        std::vector<PersistencePoint> rows(points);
        sim::WaveFailureProcess churn(waves);
        sim::FailureDriver churn_driver(churn, *d.overlay);
        for (std::size_t point = 0; point < points; ++point) {
          // Logical time for telemetry = churn-point index of the sweep.
          obs::set_logical_time(point);
          const double f = params.failure_fractions[point];
          if (wave_fires[point]) {
            churn_driver.advance_to(static_cast<double>(point), rng);
          }
          FaultyChannel channel(d.predist);
          const auto result = collect_checked(channel, d.source, {}, rng).outcome.result;
          survivors_gauge.set(static_cast<std::int64_t>(result.surviving_locations));
          survivors_hist.record(result.surviving_locations);
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "churn_point", "persistence",
                {{"failure_fraction", f},
                 {"survivors", static_cast<double>(result.surviving_locations)},
                 {"decoded_levels", static_cast<double>(result.decoded_levels)}});
          }
          if (want_timeseries) {
            obs::sample(ts.survivors, static_cast<double>(result.surviving_locations));
            obs::sample(ts.decoded_levels, static_cast<double>(result.decoded_levels));
            // Per-level surviving blocks and the decodability margin: the
            // priority-l prefix (level_end(l) source blocks) needs at least
            // that many surviving blocks of levels <= l to be decodable, so
            // margin = cumulative survivors - prefix size. Negative margin
            // at point t is the telemetry signature of losing level l.
            std::vector<std::size_t> per_level(spec.levels(), 0);
            for (const net::LocationId loc : d.predist.surviving_locations()) {
              ++per_level[d.predist.level_of_location(loc)];
            }
            std::size_t cumulative = 0;
            for (std::size_t l = 0; l < spec.levels(); ++l) {
              cumulative += per_level[l];
              obs::sample(ts.level_survivors[l], static_cast<double>(per_level[l]));
              obs::sample(ts.margin[l], static_cast<double>(cumulative) -
                                            static_cast<double>(spec.level_end(l)));
            }
          }
          PersistencePoint& row = rows[point];
          row.failure_fraction = f;
          row.mean_surviving_blocks = static_cast<double>(result.surviving_locations);
          row.mean_decoded_levels = static_cast<double>(result.decoded_levels);
          row.mean_decoded_blocks = static_cast<double>(result.decoded_blocks);
          row.mean_dissemination_hops = hops_per_msg;
        }
        return rows;
      });
}

}  // namespace prlc::proto
