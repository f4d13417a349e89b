#include "proto/persistence_experiment.h"

#include <memory>

#include "codes/decoder.h"
#include "net/chord_network.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "proto/collector.h"
#include "net/sensor_network.h"
#include "sim/failure_process.h"
#include "runtime/trial_runner.h"
#include "util/check.h"

namespace prlc::proto {

const char* to_string(OverlayKind kind) {
  switch (kind) {
    case OverlayKind::kSensor:
      return "sensor";
    case OverlayKind::kChord:
      return "chord";
  }
  PRLC_ASSERT(false, "unknown overlay kind");
}

std::unique_ptr<net::Overlay> make_overlay(OverlayKind kind, std::size_t nodes,
                                           std::size_t locations, bool two_choices,
                                           std::uint64_t seed) {
  switch (kind) {
    case OverlayKind::kSensor: {
      net::SensorParams sp;
      sp.nodes = nodes;
      sp.locations = locations;
      sp.seed = seed;
      sp.two_choices = two_choices;
      return std::make_unique<net::SensorNetwork>(sp);
    }
    case OverlayKind::kChord: {
      net::ChordParams cp;
      cp.nodes = nodes;
      cp.locations = locations;
      cp.seed = seed;
      cp.two_choices = two_choices;
      return std::make_unique<net::ChordNetwork>(cp);
    }
  }
  PRLC_ASSERT(false, "unknown overlay kind");
}

namespace {

/// Everything one trial contributes to the sweep, slotted by trial index
/// so aggregation can happen in trial order after the parallel section.
struct TrialOutcome {
  double hops_per_msg = 0;
  std::vector<double> survivors;  ///< per failure-fraction point
  std::vector<double> levels;
  std::vector<double> blocks;
};

}  // namespace

std::vector<PersistencePoint> run_persistence_experiment(const PersistenceParams& params) {
  params.experiment.validate();
  PRLC_REQUIRE(!params.failure_fractions.empty(), "need at least one failure fraction");
  for (std::size_t i = 1; i < params.failure_fractions.size(); ++i) {
    PRLC_REQUIRE(params.failure_fractions[i - 1] <= params.failure_fractions[i],
                 "failure fractions must be ascending");
  }

  const codes::PrioritySpec spec = params.experiment.spec();
  const codes::PriorityDistribution dist = params.experiment.distribution();
  const std::size_t locations =
      params.locations > 0 ? params.locations : 2 * spec.total();

  ProtocolParams proto = params.protocol;
  proto.scheme = params.experiment.scheme;

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
  const auto outcomes = runner.run(
      params.experiment.trials, params.experiment.root_seed,
      [&](std::size_t t, Rng& rng) {
        trials_run.add();
        obs::ScopedSpan trial_span(
            "trial", "persistence",
            {{"trial", static_cast<double>(t)},
             {"scheme",
              static_cast<double>(static_cast<int>(params.experiment.scheme))}});
        auto overlay =
            make_overlay(params.overlay, params.nodes, locations, params.two_choices, rng());
        Predistribution predist(*overlay, spec, dist, proto);
        const auto source =
            codes::SourceData<Field>::random(spec.total(), proto.block_size, rng);
        const auto stats = predist.disseminate(source, rng);

        TrialOutcome outcome;
        outcome.hops_per_msg =
            stats.messages > stats.failed_routes
                ? static_cast<double>(stats.total_hops) /
                      static_cast<double>(stats.messages - stats.failed_routes)
                : 0.0;
        outcome.survivors.reserve(points);
        outcome.levels.reserve(points);
        outcome.blocks.reserve(points);

        sim::WaveFailureProcess churn(waves);
        sim::FailureDriver churn_driver(churn, *overlay);
        for (std::size_t point = 0; point < points; ++point) {
          // Logical time for telemetry = churn-point index of the sweep.
          obs::set_logical_time(point);
          const double f = params.failure_fractions[point];
          if (wave_fires[point]) {
            churn_driver.advance_to(static_cast<double>(point), rng);
          }
          codes::PriorityDecoder<Field> decoder(proto.scheme, spec, proto.block_size);
          const auto result = collect(predist, decoder, {}, rng).result;
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
            for (const net::LocationId loc : predist.surviving_locations()) {
              ++per_level[predist.level_of_location(loc)];
            }
            std::size_t cumulative = 0;
            for (std::size_t l = 0; l < spec.levels(); ++l) {
              cumulative += per_level[l];
              obs::sample(ts.level_survivors[l], static_cast<double>(per_level[l]));
              obs::sample(ts.margin[l], static_cast<double>(cumulative) -
                                            static_cast<double>(spec.level_end(l)));
            }
          }
          outcome.survivors.push_back(static_cast<double>(result.surviving_locations));
          outcome.levels.push_back(static_cast<double>(result.decoded_levels));
          outcome.blocks.push_back(static_cast<double>(result.decoded_blocks));
        }
        return outcome;
      });

  // Ordered merge: accumulate in trial order so the floating-point sums
  // are identical regardless of how many threads ran the trials.
  std::vector<RunningStats> surviving(points);
  std::vector<RunningStats> levels(points);
  std::vector<RunningStats> blocks(points);
  std::vector<RunningStats> hops(points);
  for (const TrialOutcome& outcome : outcomes) {
    for (std::size_t point = 0; point < points; ++point) {
      surviving[point].add(outcome.survivors[point]);
      levels[point].add(outcome.levels[point]);
      blocks[point].add(outcome.blocks[point]);
      hops[point].add(outcome.hops_per_msg);
    }
  }

  std::vector<PersistencePoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    out[i].failure_fraction = params.failure_fractions[i];
    out[i].mean_surviving_blocks = surviving[i].mean();
    out[i].mean_decoded_levels = levels[i].mean();
    out[i].ci95_decoded_levels = levels[i].ci95_halfwidth();
    out[i].mean_decoded_blocks = blocks[i].mean();
    out[i].mean_dissemination_hops = hops[i].mean();
  }
  return out;
}

}  // namespace prlc::proto
