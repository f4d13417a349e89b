#include "proto/integrity_experiment.h"

#include <algorithm>
#include <memory>

#include "codes/decoder.h"
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
  std::vector<double> levels;  ///< per mix point
  std::vector<double> retrieved;
  std::vector<double> lost;
  std::vector<double> violations;
  std::vector<double> quarantined;
  std::vector<double> wire_errors;
  std::vector<double> retries;
  std::vector<double> detection;
  std::vector<double> wrong;
  std::vector<double> degraded;
};

}  // namespace

std::vector<IntegrityPoint> run_integrity_experiment(const IntegritySweepParams& params) {
  params.experiment.validate();
  params.faults.validate();
  params.retry.validate();
  PRLC_REQUIRE(!params.mixes.empty(), "need at least one silent-corruption mix");
  for (const IntegrityMix& mix : params.mixes) {
    PRLC_REQUIRE(mix.rot_rate >= 0.0 && mix.rot_rate <= 1.0,
                 "rot rate must be a probability in [0,1]");
    PRLC_REQUIRE(mix.byzantine_fraction >= 0.0 && mix.byzantine_fraction <= 1.0,
                 "byzantine fraction must be in [0,1]");
  }

  const codes::PrioritySpec spec = params.experiment.spec();
  const codes::PriorityDistribution dist = params.experiment.distribution();
  const std::size_t locations =
      params.locations > 0 ? params.locations : 2 * spec.total();

  ProtocolParams proto = params.protocol;
  proto.scheme = params.experiment.scheme;

  const std::size_t points = params.mixes.size();

  static obs::Counter& trials_run = obs::counter("integrity_experiment.trials");

  // Detection pressure and decode outcome per mix step; logical time is
  // the step index of the sweep.
  struct SeriesIds {
    obs::SeriesId decoded_levels;
    obs::SeriesId violations;
    obs::SeriesId quarantined;
  };
  SeriesIds ts{};
  const bool want_timeseries = obs::timeseries_enabled();
  if (want_timeseries) {
    ts.decoded_levels = obs::timeseries("integrity.decoded_levels");
    ts.violations = obs::timeseries("integrity.violations");
    ts.quarantined = obs::timeseries("integrity.quarantined_nodes");
  }

  runtime::TrialRunner runner(params.experiment.threads);
  const auto outcomes = runner.run(
      params.experiment.trials, params.experiment.root_seed,
      [&](std::size_t t, Rng& rng) {
        trials_run.add();
        obs::ScopedSpan trial_span("trial", "integrity_experiment",
                                   {{"trial", static_cast<double>(t)}});
        auto overlay =
            make_overlay(params.overlay, params.nodes, locations, params.two_choices, rng());
        Predistribution predist(*overlay, spec, dist, proto);
        const auto source =
            codes::SourceData<Field>::random(spec.total(), proto.block_size, rng);
        predist.disseminate(source, rng);

        // The manifest travels beside the data: 8 bytes per source block,
        // built once per deployment from a trial-seeded fingerprint point.
        std::vector<std::uint8_t> flat;
        flat.reserve(spec.total() * proto.block_size);
        for (std::size_t j = 0; j < spec.total(); ++j) {
          const auto row = source.block(j);
          flat.insert(flat.end(), row.begin(), row.end());
        }
        const util::FingerprintManifest manifest =
            util::build_manifest(rng(), flat, proto.block_size);

        TrialOutcome outcome;
        for (std::size_t point = 0; point < points; ++point) {
          const IntegrityMix& mix = params.mixes[point];
          obs::set_logical_time(point);
          net::FaultSpec faults = params.faults;
          faults.bitrot_rate = mix.rot_rate;
          faults.byzantine_fraction = mix.byzantine_fraction;
          net::FaultPlan plan(faults, overlay->nodes(), rng);
          FaultyChannel channel(predist, std::move(plan));
          codes::PriorityDecoder<Field> decoder(proto.scheme, spec, proto.block_size);
          CollectorOptions options;
          options.retry = params.retry;
          options.manifest = &manifest;
          const CollectionOutcome c = collect(channel, decoder, options, rng);

          // Silent frames the channel actually served vs violations the
          // fingerprint caught: every served forgery parses cleanly, so
          // detection below 1 means a forged frame reached the decoder.
          const std::size_t injected_silent =
              channel.injected().bitrot_frames + channel.injected().byzantine_frames;
          const double detection =
              injected_silent == 0
                  ? 1.0
                  : static_cast<double>(c.faults.integrity_violations) /
                        static_cast<double>(injected_silent);

          // Zero-wrong-bytes criterion: everything decoded must be
          // byte-identical to the source.
          std::size_t decoded = 0, wrong = 0;
          for (std::size_t j = 0; j < spec.total(); ++j) {
            if (!decoder.is_block_decoded(j)) continue;
            ++decoded;
            const auto got = decoder.recovered(j);
            const auto want = source.block(j);
            if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) ++wrong;
          }

          outcome.levels.push_back(static_cast<double>(c.result.decoded_levels));
          outcome.retrieved.push_back(static_cast<double>(c.result.blocks_retrieved));
          outcome.lost.push_back(static_cast<double>(c.blocks_lost));
          outcome.violations.push_back(static_cast<double>(c.faults.integrity_violations));
          outcome.quarantined.push_back(static_cast<double>(c.quarantined_nodes));
          outcome.wire_errors.push_back(static_cast<double>(c.faults.wire_errors));
          outcome.retries.push_back(static_cast<double>(c.retries));
          outcome.detection.push_back(detection);
          outcome.wrong.push_back(
              decoded == 0 ? 0.0
                           : static_cast<double>(wrong) / static_cast<double>(decoded));
          outcome.degraded.push_back(c.degraded ? 1.0 : 0.0);
          if (want_timeseries) {
            obs::sample(ts.decoded_levels, static_cast<double>(c.result.decoded_levels));
            obs::sample(ts.violations, static_cast<double>(c.faults.integrity_violations));
            obs::sample(ts.quarantined, static_cast<double>(c.quarantined_nodes));
          }
          if (obs::trace_enabled()) {
            obs::TraceRecorder::global().instant(
                "integrity_point", "integrity_experiment",
                {{"rot_rate", mix.rot_rate},
                 {"byzantine_fraction", mix.byzantine_fraction},
                 {"violations", static_cast<double>(c.faults.integrity_violations)}});
          }
        }
        return outcome;
      });

  // Ordered merge: accumulate in trial order so the floating-point sums
  // are identical regardless of how many threads ran the trials.
  std::vector<RunningStats> levels(points), retrieved(points), lost(points),
      violations(points), quarantined(points), wire_errors(points), retries(points),
      detection(points), wrong(points), degraded(points);
  for (const TrialOutcome& outcome : outcomes) {
    for (std::size_t point = 0; point < points; ++point) {
      levels[point].add(outcome.levels[point]);
      retrieved[point].add(outcome.retrieved[point]);
      lost[point].add(outcome.lost[point]);
      violations[point].add(outcome.violations[point]);
      quarantined[point].add(outcome.quarantined[point]);
      wire_errors[point].add(outcome.wire_errors[point]);
      retries[point].add(outcome.retries[point]);
      detection[point].add(outcome.detection[point]);
      wrong[point].add(outcome.wrong[point]);
      degraded[point].add(outcome.degraded[point]);
    }
  }

  std::vector<IntegrityPoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    out[i].rot_rate = params.mixes[i].rot_rate;
    out[i].byzantine_fraction = params.mixes[i].byzantine_fraction;
    out[i].mean_decoded_levels = levels[i].mean();
    out[i].ci95_decoded_levels = levels[i].ci95_halfwidth();
    out[i].mean_blocks_retrieved = retrieved[i].mean();
    out[i].mean_blocks_lost = lost[i].mean();
    out[i].mean_integrity_violations = violations[i].mean();
    out[i].mean_quarantined_nodes = quarantined[i].mean();
    out[i].mean_wire_errors = wire_errors[i].mean();
    out[i].mean_retries = retries[i].mean();
    out[i].detection_ratio = detection[i].mean();
    out[i].wrong_decode_fraction = wrong[i].mean();
    out[i].degraded_fraction = degraded[i].mean();
  }
  return out;
}

}  // namespace prlc::proto
