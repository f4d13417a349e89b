#include "proto/integrity_experiment.h"

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

constexpr runtime::PointStat<IntegrityPoint> kStats[] = {
    {&IntegrityPoint::mean_decoded_levels, &IntegrityPoint::ci95_decoded_levels},
    {&IntegrityPoint::mean_blocks_retrieved},
    {&IntegrityPoint::mean_blocks_lost},
    {&IntegrityPoint::mean_integrity_violations},
    {&IntegrityPoint::mean_quarantined_nodes},
    {&IntegrityPoint::mean_wire_errors},
    {&IntegrityPoint::mean_retries},
    {&IntegrityPoint::detection_ratio},
    {&IntegrityPoint::wrong_decode_fraction},
    {&IntegrityPoint::degraded_fraction},
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

  const TrialSetup setup(params);
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
  return runner.run_merged<IntegrityPoint>(
      params.experiment.trials, params.experiment.root_seed, kStats,
      [&](std::size_t t, Rng& rng) {
        trials_run.add();
        obs::ScopedSpan trial_span("trial", "integrity_experiment",
                                   {{"trial", static_cast<double>(t)}});
        Deployment d = setup.deploy(rng);

        // The manifest travels beside the data: 8 bytes per source block,
        // built once per deployment from a trial-seeded fingerprint point.
        const util::FingerprintManifest manifest =
            util::build_manifest(rng(), d.source.data(), setup.protocol.block_size);

        std::vector<IntegrityPoint> rows(points);
        for (std::size_t point = 0; point < points; ++point) {
          const IntegrityMix& mix = params.mixes[point];
          obs::set_logical_time(point);
          net::FaultSpec faults = params.faults;
          faults.bitrot_rate = mix.rot_rate;
          faults.byzantine_fraction = mix.byzantine_fraction;
          net::FaultPlan plan(faults, d.overlay->nodes(), rng);
          FaultyChannel channel(d.predist, std::move(plan));
          CollectorOptions options;
          options.retry = params.retry;
          options.manifest = &manifest;
          const auto [c, bytes] = collect_checked(channel, d.source, options, rng);

          // Silent frames the channel actually served vs violations the
          // fingerprint caught: every served forgery parses cleanly, so
          // detection below 1 means a forged frame reached the decoder.
          const std::size_t injected_silent =
              channel.injected().bitrot_frames + channel.injected().byzantine_frames;

          IntegrityPoint& row = rows[point];
          row.rot_rate = mix.rot_rate;
          row.byzantine_fraction = mix.byzantine_fraction;
          row.mean_decoded_levels = static_cast<double>(c.result.decoded_levels);
          row.mean_blocks_retrieved = static_cast<double>(c.result.blocks_retrieved);
          row.mean_blocks_lost = static_cast<double>(c.blocks_lost);
          row.mean_integrity_violations = static_cast<double>(c.faults.integrity_violations);
          row.mean_quarantined_nodes = static_cast<double>(c.quarantined_nodes);
          row.mean_wire_errors = static_cast<double>(c.faults.wire_errors);
          row.mean_retries = static_cast<double>(c.retries);
          row.detection_ratio = injected_silent == 0
                                    ? 1.0
                                    : static_cast<double>(c.faults.integrity_violations) /
                                          static_cast<double>(injected_silent);
          row.wrong_decode_fraction =
              bytes.decoded_blocks == 0 ? 0.0
                                        : static_cast<double>(bytes.wrong_blocks) /
                                              static_cast<double>(bytes.decoded_blocks);
          row.degraded_fraction = c.degraded ? 1.0 : 0.0;
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
        return rows;
      });
}

}  // namespace prlc::proto
