#include "proto/collector.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "codes/wire_format.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace prlc::proto {

namespace {

void validate_options(const CollectorOptions& options, const codes::PrioritySpec& spec) {
  PRLC_REQUIRE(!options.max_blocks.has_value() || *options.max_blocks > 0,
               "max_blocks must be positive when set (use nullopt for unlimited)");
  PRLC_REQUIRE(!options.target_levels.has_value() || *options.target_levels <= spec.levels(),
               "target_levels exceeds the spec's level count");
  PRLC_REQUIRE(options.manifest == nullptr ||
                   options.manifest->fingerprints.size() == spec.total(),
               "fingerprint manifest must cover exactly the spec's source blocks");
  options.retry.validate();
}

/// What deliver() decided about one delivered frame.
enum class Delivery {
  kOk,                  ///< parsed, verified, fed to the decoder
  kWireRejected,        ///< CRC/bounds rejection — retryable elsewhere
  kIntegrityRejected,   ///< fingerprint mismatch — block written off, node quarantined
};

/// What the one reply handler (book) decided about one fetch attempt.
enum class Booked {
  kDelivered,   ///< frame fed to the decoder
  kWrittenOff,  ///< the block is lost: dead/crashed/quarantined node or budget gone
  kRetry,       ///< timeout/transient fault — retry in place after backoff
  kDefer,       ///< wire-rejected frame — retry from the back of the queue
};

/// Backoff before retry `attempt` (0-based), jittered deterministically
/// from the trial Rng. Only called on the retry path, so fault-free
/// collection consumes no extra draws.
std::uint64_t backoff_us(const RetryPolicy& policy, std::size_t attempt, Rng& rng) {
  double delay = static_cast<double>(policy.base_backoff_us) *
                 std::pow(policy.backoff_multiplier, static_cast<double>(attempt));
  delay = std::min(delay, static_cast<double>(policy.max_backoff_us));
  if (policy.jitter > 0) {
    delay *= 1.0 + policy.jitter * (2.0 * rng.uniform_double() - 1.0);
  }
  return static_cast<std::uint64_t>(delay);
}

}  // namespace

void RetryPolicy::validate() const {
  PRLC_REQUIRE(max_attempts >= 1, "need at least one fetch attempt per block");
  PRLC_REQUIRE(backoff_multiplier >= 1.0, "backoff multiplier must be >= 1");
  PRLC_REQUIRE(jitter >= 0.0 && jitter < 1.0, "backoff jitter must be in [0,1)");
  PRLC_REQUIRE(node_fault_budget >= 1, "node fault budget must be >= 1");
}

CollectionOutcome collect(FaultyChannel& channel, codes::PriorityDecoder<Field>& decoder,
                          const CollectorOptions& options, Rng& rng) {
  const bool trace = options.trace;
  const Predistribution& dist = channel.dist();
  PRLC_REQUIRE(decoder.scheme() == dist.params().scheme,
               "decoder scheme must match the predistribution");
  // Only the source block count must agree: a frame whose level or support
  // does not fit the decoder's level partition is rejected per frame as a
  // wire error (see deliver), so an archive written under another spec
  // degrades the collection instead of aborting it.
  PRLC_REQUIRE(decoder.spec().total() == dist.spec().total(),
               "decoder and predistribution must agree on the source block count");
  validate_options(options, decoder.spec());
  const RetryPolicy& policy = options.retry;

  static obs::Counter& retries_ctr = obs::counter("collector.retries");
  static obs::Counter& corrupt_ctr = obs::counter("collector.corrupt_blocks");
  static obs::Counter& integrity_ctr = obs::counter("collector.integrity_violations");
  static obs::Counter& quarantine_ctr = obs::counter("collector.quarantined_nodes");
  static obs::Counter& hedges_ctr = obs::counter("collector.hedges");
  static obs::Counter& timeouts_ctr = obs::counter("collector.timeouts");
  static obs::Counter& transient_ctr = obs::counter("collector.transient_errors");
  static obs::Counter& crashes_ctr = obs::counter("collector.node_crashes");
  static obs::Counter& lost_ctr = obs::counter("collector.blocks_lost");
  static obs::Counter& blacklist_ctr = obs::counter("collector.blacklisted_nodes");
  static obs::LatencyHistogram& latency_hist = obs::histogram("collector.fetch_latency_us");

  CollectionOutcome out;
  CollectionResult& result = out.result;

  std::vector<net::LocationId> order = channel.retrievable_locations();
  result.surviving_locations = order.size();
  rng.shuffle(std::span<net::LocationId>(order));

  std::unordered_map<net::NodeId, std::size_t> node_faults;
  std::unordered_set<net::NodeId> blacklisted;
  /// Attempts already spent per location, persisted across deferrals —
  /// a wire-rejected location re-enters the queue instead of retrying
  /// in place, but its max_attempts cap still holds.
  std::unordered_map<net::LocationId, std::size_t> loc_attempts;
  std::size_t cursor = 0;

  // One fingerprinter per collection (the byte-sliced tables are built
  // from the manifest's seed); absent manifest, zero integrity overhead.
  std::optional<util::Fingerprinter> fingerprinter;
  if (options.manifest != nullptr) fingerprinter.emplace(options.manifest->seed);

  /// Remove a node that served a frame contradicting the manifest. Uses
  /// the same blacklist the fault budget feeds, so the main loop skips
  /// its remaining blocks, but is counted separately.
  const auto quarantine = [&](net::NodeId node) {
    if (blacklisted.insert(node).second) {
      ++out.quarantined_nodes;
      quarantine_ctr.add();
      obs::emit(obs::EventType::kNodeQuarantined, static_cast<double>(node));
    }
  };

  const auto done = [&] {
    if (options.max_blocks.has_value() && result.blocks_retrieved >= *options.max_blocks) {
      return true;
    }
    if (options.target_levels.has_value() &&
        decoder.decoded_levels() >= *options.target_levels) {
      result.target_met = true;
      return true;
    }
    return false;
  };

  /// Parse + feed one delivered frame; false (and a corrupt count) when
  /// the wire layer rejects it or it does not belong to this collection.
  /// The zero-copy view path hands the decoder spans straight into the
  /// reply buffer — no per-fetch payload copy; only sparse coefficient
  /// frames expand into a scratch vector reused across fetches.
  std::vector<std::uint8_t> coeff_scratch;
  const auto deliver = [&](net::LocationId loc, const FetchReply& reply) {
    try {
      const codes::WireBlockView view = codes::decode_wire_view(reply.bytes);
      // Checked before fingerprinting: a CRC-valid frame of the wrong shape
      // is a wire error, not evidence that its node forged a payload.
      if (view.scheme != decoder.scheme() || view.coeff_width != decoder.spec().total() ||
          view.payload.size() != decoder.payload_size()) {
        throw codes::WireFormatError("frame does not match this collection");
      }
      std::span<const std::uint8_t> coeffs = view.dense_coeffs;
      if (!view.dense()) {
        coeff_scratch.resize(view.coeff_width);
        view.expand_coeffs(coeff_scratch);
        coeffs = coeff_scratch;
      }
      // An SLC frame must name one of the decoder's levels and carry
      // coefficients only inside it. Checked before fingerprinting too: a
      // combination of genuine sources verifies, yet is still malformed.
      if (!decoder.fits(view.level, coeffs)) {
        throw codes::WireFormatError("SLC frame does not fit the decoder's levels");
      }
      if (fingerprinter.has_value() &&
          fingerprinter->fingerprint(view.payload) !=
              fingerprinter->combine(coeffs, options.manifest->fingerprints)) {
        // Silent corruption, localized to this exact block: the frame is
        // well-formed (CRC passed) yet its payload contradicts the
        // manifest. The lie is sticky — a refetch serves the same bytes —
        // so the block is written off and the serving node quarantined.
        ++out.faults.integrity_violations;
        integrity_ctr.add();
        obs::emit(obs::EventType::kIntegrityViolation, static_cast<double>(reply.node),
                  static_cast<double>(loc));
        quarantine(reply.node);
        return Delivery::kIntegrityRejected;
      }
      ++result.blocks_retrieved;
      if (decoder.add(view.level, coeffs, view.payload)) ++result.innovative_blocks;
      if (trace) result.level_trace.push_back(decoder.decoded_levels());
      return Delivery::kOk;
    } catch (const codes::WireFormatError&) {
      ++out.faults.wire_errors;
      corrupt_ctr.add();
      return Delivery::kWireRejected;
    }
  };

  /// Append one attempt to the fetch log (trace runs only).
  const auto log_attempt = [&](net::LocationId loc, const FetchReply& reply,
                               Delivery delivery, bool fed) {
    if (!trace) return;
    FetchAttempt a;
    a.location = loc;
    a.node = reply.node;
    a.fault = reply.fault;
    a.wire_rejected = delivery == Delivery::kWireRejected;
    a.integrity_rejected = delivery == Delivery::kIntegrityRejected;
    a.delivered = fed;
    out.fetch_log.push_back(a);
  };

  /// Charge one retryable fault to `node`; true when the node just
  /// exhausted its budget and got blacklisted.
  const auto charge_fault = [&](net::NodeId node) {
    const std::size_t faults = ++node_faults[node];
    if (faults < policy.node_fault_budget) return false;
    if (blacklisted.insert(node).second) {
      ++out.blacklisted_nodes;
      blacklist_ctr.add();
      obs::emit(obs::EventType::kBudgetExhausted, static_cast<double>(node),
                static_cast<double>(faults));
    }
    return true;
  };

  const auto write_off = [&] {
    ++out.blocks_lost;
    lost_ctr.add();
  };

  /// Write off `loc` without a fetch when its node is already known gone
  /// (blacklisted, quarantined or crashed); true when it was.
  const auto write_off_unreachable = [&](net::LocationId loc) {
    const net::NodeId node = channel.owner_of(loc);
    if (!blacklisted.contains(node) && !channel.node_crashed(node)) return false;
    write_off();
    return true;
  };

  /// One fetch attempt on the wire, timed into the latency histogram and
  /// the simulated clock.
  const auto fetch = [&](net::LocationId loc) {
    FetchReply reply = channel.fetch(loc, rng);
    latency_hist.record(reply.latency_us);
    out.sim_elapsed_us += reply.latency_us;
    return reply;
  };

  /// THE reply handler: count the reply's fault class, log the attempt,
  /// feed a delivered frame to the decoder and charge a retryable fault to
  /// the serving node. Callers keep only their policy for the verdict.
  const auto book = [&](net::LocationId loc, const FetchReply& reply) {
    Delivery d = Delivery::kOk;
    Booked booked = Booked::kWrittenOff;
    switch (reply.fault) {
      case net::FaultClass::kNone:
        d = deliver(loc, reply);
        // An integrity rejection stays written off: the node is quarantined
        // and the lie sticky, so another attempt replays the same bytes.
        if (d == Delivery::kOk) booked = Booked::kDelivered;
        if (d == Delivery::kWireRejected) booked = Booked::kDefer;
        break;
      case net::FaultClass::kDeadNode:  // nothing to retry against
        ++out.faults.dead_nodes;
        break;
      case net::FaultClass::kCrash:  // the node is gone for the rest of the collection
        ++out.faults.crashes;
        crashes_ctr.add();
        break;
      case net::FaultClass::kTimeout:
        ++out.faults.timeouts;
        timeouts_ctr.add();
        booked = Booked::kRetry;
        break;
      case net::FaultClass::kTransient:
        ++out.faults.transient_errors;
        transient_ctr.add();
        booked = Booked::kRetry;
        break;
      default:
        PRLC_ASSERT(false, "channel returned an in-band fault class");
    }
    log_attempt(loc, reply, d, booked == Booked::kDelivered);
    const bool retryable = booked == Booked::kRetry || booked == Booked::kDefer;
    if (retryable && charge_fault(reply.node)) booked = Booked::kWrittenOff;
    return booked;
  };

  /// Opportunistic single-attempt fetch of the next pending location,
  /// issued when a primary reply blows the hedge deadline. No retries, no
  /// nested hedging — a hedge is a bet, not a commitment: anything not
  /// delivered is written off.
  const auto hedge_fetch = [&] {
    while (cursor < order.size()) {
      const net::LocationId loc = order[cursor++];
      if (write_off_unreachable(loc)) continue;
      ++out.hedges;
      hedges_ctr.add();
      obs::emit(obs::EventType::kFetchHedged, static_cast<double>(channel.owner_of(loc)));
      if (book(loc, fetch(loc)) != Booked::kDelivered) write_off();
      return;
    }
  };

  /// Full self-healing fetch of one location: retry loop with capped
  /// exponential backoff, hedging on slow replies. Wire-rejected frames do
  /// NOT retry in place — the location is deferred to the back of the
  /// queue (its attempt count persists in loc_attempts), so the very next
  /// fetch goes to a different node instead of hammering the one that
  /// just served garbage.
  const auto fetch_with_retry = [&](net::LocationId loc) {
    std::size_t& attempt = loc_attempts[loc];
    while (attempt < policy.max_attempts) {
      const FetchReply reply = fetch(loc);
      // A reply slower than the deadline — delivered or not — triggers
      // one hedged fetch of the next pending location (more blocks in
      // flight is the erasure-coded answer to stragglers: any innovative
      // block is as good as the slow one).
      if (policy.hedging && reply.latency_us > policy.hedge_deadline_us && !done()) {
        hedge_fetch();
      }
      const Booked booked = book(loc, reply);
      if (booked == Booked::kDelivered) return;
      if (booked == Booked::kWrittenOff) break;
      if (++attempt == policy.max_attempts) break;
      ++out.retries;
      retries_ctr.add();
      obs::emit(obs::EventType::kFetchRetry, static_cast<double>(reply.node),
                static_cast<double>(attempt));
      if (booked == Booked::kDefer) {
        order.push_back(loc);
        return;  // no backoff — the collector moves on immediately
      }
      out.sim_elapsed_us += backoff_us(policy, attempt - 1, rng);
    }
    // Written off, attempts spent, or a deferred location whose attempts
    // ran out before it resurfaced.
    write_off();
  };

  while (cursor < order.size() && !done()) {
    const net::LocationId loc = order[cursor++];
    if (!write_off_unreachable(loc)) fetch_with_retry(loc);
  }

  result.decoded_levels = decoder.decoded_levels();
  result.decoded_blocks = decoder.decoded_prefix_blocks();
  if (options.target_levels.has_value()) {
    result.target_met = result.decoded_levels >= *options.target_levels;
  }
  out.degraded = out.blocks_lost > 0;
  return out;
}

CollectionOutcome collect(const Predistribution& dist, codes::PriorityDecoder<Field>& decoder,
                          const CollectorOptions& options, Rng& rng) {
  // Null-plan channel: pristine bytes, zero extra Rng draws — but every
  // block still round-trips encode_wire/decode_wire, so the CRC path is
  // exercised by all callers (and any wire bug is counted, not thrown).
  FaultyChannel channel(dist);
  return collect(channel, decoder, options, rng);
}

ByteCheck check_decoded_bytes(const codes::PriorityDecoder<Field>& decoder,
                              const codes::SourceData<Field>& source) {
  PRLC_REQUIRE(source.blocks() == decoder.spec().total(),
               "source data does not match the decoder's spec");
  ByteCheck check;
  for (std::size_t j = 0; j < source.blocks(); ++j) {
    if (!decoder.is_block_decoded(j)) continue;
    ++check.decoded_blocks;
    const auto got = decoder.recovered(j);
    const auto want = source.block(j);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) ++check.wrong_blocks;
  }
  return check;
}

}  // namespace prlc::proto
