#include "proto/experiment_trial.h"

#include "codes/decoder.h"
#include "net/chord_network.h"
#include "net/sensor_network.h"
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

TrialSetup::TrialSetup(const DeploymentParams& params)
    : overlay(params.overlay),
      nodes(params.nodes),
      locations(params.locations),
      two_choices(params.two_choices),
      spec(params.experiment.spec()),
      dist(params.experiment.distribution()),
      protocol(params.protocol) {
  if (locations == 0) locations = 2 * spec.total();
  protocol.scheme = params.experiment.scheme;
}

Deployment TrialSetup::deploy(Rng& rng) const {
  auto net = make_overlay(overlay, nodes, locations, two_choices, rng());
  Predistribution predist(*net, spec, dist, protocol);
  auto source = codes::SourceData<Field>::random(spec.total(), protocol.block_size, rng);
  const DisseminationStats stats = predist.disseminate(source, rng);
  return {std::move(net), std::move(predist), std::move(source), stats};
}

CheckedCollection collect_checked(FaultyChannel& channel, const codes::SourceData<Field>& source,
                                  const CollectorOptions& options, Rng& rng) {
  const Predistribution& dist = channel.dist();
  codes::PriorityDecoder<Field> decoder(dist.params().scheme, dist.spec(),
                                        dist.params().block_size);
  CheckedCollection c{collect(channel, decoder, options, rng), {}};
  c.bytes = check_decoded_bytes(decoder, source);
  PRLC_ASSERT(c.bytes.wrong_blocks == 0, "a collection decoded wrong bytes");
  return c;
}

}  // namespace prlc::proto
