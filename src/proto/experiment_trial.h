// One experiment trial skeleton, shared by the persistence, fault,
// integrity and refresh experiments.
//
// Sec. 4's pre-distribution model (the decentralized erasure code model of
// Dimakis et al.) makes every Monte-Carlo trial the same three steps:
//   1. deploy — build the overlay, partition its locations, draw a random
//      source object and disseminate it (TrialSetup::deploy);
//   2. per point of the sweep, the experiment's own body (a churn wave, a
//      fault plan, a silent-fault mix, a kill + refresh round), then
//   3. collect what survives into a fresh decoder and byte-check every
//      decoded block against the source (collect_checked). A wrong decoded
//      block is an InvariantError in every experiment: zero wrong decoded
//      bytes is an invariant, not a statistic.
// A trial returns one row of the experiment's point type per sweep point,
// its statistic fields holding that trial's samples;
// runtime::TrialRunner::run_merged merges the rows in trial order, so
// results are bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/overlay.h"
#include "proto/collector.h"
#include "proto/experiment_config.h"
#include "proto/predistribution.h"
#include "util/random.h"

namespace prlc::proto {

enum class OverlayKind { kSensor, kChord };

const char* to_string(OverlayKind kind);

/// The overlay one experiment trial deploys: `nodes` nodes serving
/// `locations` storage locations, built from `seed`.
std::unique_ptr<net::Overlay> make_overlay(OverlayKind kind, std::size_t nodes,
                                           std::size_t locations, bool two_choices,
                                           std::uint64_t seed);

/// What every trial of an experiment deploys; the experiments' params
/// derive from it.
struct DeploymentParams {
  OverlayKind overlay = OverlayKind::kSensor;
  std::size_t nodes = 200;
  std::size_t locations = 0;  ///< 0 = auto: 2x the source-block count
  bool two_choices = false;
  /// Monte-Carlo execution: trials, root seed, threads, scheme, spec.
  ExperimentConfig experiment;
  ProtocolParams protocol;  ///< scheme field is overwritten from experiment.scheme
};

/// One trial's deployed network and the object it stores.
struct Deployment {
  std::unique_ptr<net::Overlay> overlay;
  Predistribution predist;  ///< refers to *overlay
  codes::SourceData<Field> source;
  DisseminationStats stats;
};

/// DeploymentParams resolved once per run.
struct TrialSetup {
  explicit TrialSetup(const DeploymentParams& params);

  /// make_overlay (one draw for its seed) → Predistribution → random
  /// source → disseminate, in that Rng order.
  Deployment deploy(Rng& rng) const;

  OverlayKind overlay;
  std::size_t nodes;
  std::size_t locations;  ///< 2N when the params said 0
  bool two_choices;
  codes::PrioritySpec spec;
  codes::PriorityDistribution dist;
  ProtocolParams protocol;  ///< scheme = experiment.scheme
};

/// One collection of a trial and its byte check.
struct CheckedCollection {
  CollectionOutcome outcome;
  ByteCheck bytes;
};

/// Collect over `channel` into a fresh decoder for its predistribution,
/// then check_decoded_bytes against `source`. Throws InvariantError when
/// any decoded block differs from its source block.
CheckedCollection collect_checked(FaultyChannel& channel, const codes::SourceData<Field>& source,
                                  const CollectorOptions& options, Rng& rng);

}  // namespace prlc::proto
