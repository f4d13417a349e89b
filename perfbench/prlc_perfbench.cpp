// End-to-end benchmark of the PRLC stack, driven only through public entry
// points:
//
//   store     proto::Predistribution::disseminate + util::build_manifest
//   retrieve  proto::collect over a proto::FaultyChannel, with the manifest
//   lifetime  sim::run_cluster_trial
//
// One single-threaded client runs a closed loop: each operation starts when
// the previous one returns; there is no arrival rate. For the retrieval
// workloads one operation is a cycle of store -> retrieve_l1 (target: level
// 1) -> retrieve_all (target: every level) of a fresh object; for the
// lifetime workload it is one simulated cluster lifetime. Every input
// (object bytes, fault plans, collector and trial Rngs) is derived from
// --seed outside the timed region.
//
//   prlc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-out <file>] [--inject <kind>]
//
// --trace 0 measures with library metrics off and prints the end-to-end
// metrics. --trace 1 runs the same seed twice: an untraced pass, then a
// traced pass over the same operations with obs metrics on and
// CollectorOptions::trace set. After each collect the traced pass replays
// the collection's delivered fetches through the public layer functions,
// each wrapped in a span recorded here, and prints the per-layer metrics,
// a self-time table and the tracing overhead.
//
// Every run checks its outputs (the correctness gate below) and exits 1,
// naming each violation on stderr, when one is wrong. --inject plants one
// wrong output so that the gate can be shown to fire.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codes/decoder.h"
#include "codes/source_data.h"
#include "codes/wire_format.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "net/chord_network.h"
#include "net/fault_model.h"
#include "net/sensor_network.h"
#include "obs/metrics.h"
#include "proto/collector.h"
#include "proto/fault_channel.h"
#include "proto/predistribution.h"
#include "sim/cluster_sim.h"
#include "util/gf64_fingerprint.h"
#include "util/json.h"
#include "util/random.h"

namespace {

using namespace prlc;
using Field = proto::Field;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. The parameter sets are fixed here and printed with every run;
// BENCHMARK.json carries a summary of each beside the reason it was chosen.

enum class OverlayKind { kSensor, kChord };

struct RetrievalWorkload {
  OverlayKind overlay = OverlayKind::kSensor;
  std::size_t nodes = 0;
  std::size_t levels = 0;
  std::size_t level_size = 0;  ///< source blocks per level
  std::size_t block_size = 0;  ///< payload bytes per block
  std::size_t locations = 0;   ///< M coded blocks stored
  net::FaultSpec faults;       ///< inactive spec = null-plan channel
  bool target_required = false;  ///< gate: every retrieval meets its target
};

struct Workload {
  const char* name = "";
  std::optional<RetrievalWorkload> retrieval;
  std::optional<sim::ClusterParams> lifetime;
};

Workload bulk_archive() {
  RetrievalWorkload w;
  w.overlay = OverlayKind::kSensor;
  w.nodes = 200;
  w.levels = 4;
  w.level_size = 16;
  w.block_size = 64 * 1024;
  w.locations = 128;
  w.target_required = true;
  return {"bulk_archive", w, std::nullopt};
}

Workload wide_hostile() {
  RetrievalWorkload w;
  w.overlay = OverlayKind::kChord;
  w.nodes = 500;
  w.levels = 8;
  w.level_size = 32;
  w.block_size = 1024;
  w.locations = 512;
  w.faults.timeout_rate = 0.03;
  w.faults.transient_rate = 0.03;
  w.faults.corrupt_rate = 0.03;
  w.faults.truncate_rate = 0.015;
  w.faults.crash_rate = 0.003;
  w.faults.bitrot_rate = 0.015;
  w.faults.byzantine_fraction = 0.015;
  w.faults.slow_fraction = 0.1;
  w.faults.flaky_fraction = 0.1;
  return {"wide_hostile", w, std::nullopt};
}

Workload cluster_lifetime() {
  sim::ClusterParams p;
  p.nodes = 1000000;
  p.max_time = 10.0;
  p.experiment.trials = 1;
  p.experiment.threads = 1;
  p.experiment.scheme = codes::Scheme::kPlc;
  p.experiment.level_sizes = {8, 16, 24};
  p.experiment.failure.kind = sim::FailureModelConfig::Kind::kPoisson;
  p.experiment.failure.churn_rate = 0.05;
  p.repair.policy = sim::RepairPolicy::kPriorityAware;
  p.integrity.rot_rate = 0.05;
  p.integrity.byzantine_fraction = 0.01;
  p.integrity.scrub_interval = 1.0;
  return {"cluster_lifetime", std::nullopt, p};
}

std::optional<Workload> find_workload(const std::string& name) {
  for (const Workload& w : {bulk_archive(), wide_hostile(), cluster_lifetime()}) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

/// The workload's full parameter set, printed with every run.
json::Value describe(const Workload& w) {
  json::Value out = json::Value::object();
  out.set("name", w.name);
  out.set("scheme", "PLC");
  if (w.retrieval.has_value()) {
    const RetrievalWorkload& r = *w.retrieval;
    const net::FaultSpec& f = r.faults;
    json::Value faults = json::Value::object();
    for (const auto& [name, rate] :
         {std::pair{"timeout", f.timeout_rate}, {"transient", f.transient_rate},
          {"corrupt", f.corrupt_rate}, {"truncate", f.truncate_rate}, {"crash", f.crash_rate},
          {"bitrot", f.bitrot_rate}, {"byzantine", f.byzantine_fraction},
          {"slow", f.slow_fraction}, {"flaky", f.flaky_fraction}}) {
      faults.set(name, rate);
    }
    out.set("levels", static_cast<std::uint64_t>(r.levels));
    out.set("level_size", static_cast<std::uint64_t>(r.level_size));
    out.set("block_bytes", static_cast<std::uint64_t>(r.block_size));
    out.set("locations", static_cast<std::uint64_t>(r.locations));
    out.set("overlay", r.overlay == OverlayKind::kSensor ? "sensor" : "chord");
    out.set("nodes", static_cast<std::uint64_t>(r.nodes));
    out.set("faults", std::move(faults));
    out.set("manifest", true);
    out.set("op", "store, retrieve_l1, retrieve_all");
  } else {
    const sim::ClusterParams& p = *w.lifetime;
    json::Value levels = json::Value::array();
    for (const std::size_t size : p.experiment.level_sizes) {
      levels.push_back(static_cast<std::uint64_t>(size));
    }
    out.set("levels", std::move(levels));
    out.set("nodes", static_cast<std::uint64_t>(p.nodes));
    out.set("churn_rate", p.experiment.failure.churn_rate);
    out.set("max_time", p.max_time);
    out.set("repair", sim::to_string(p.repair.policy));
    out.set("rot_rate", p.integrity.rot_rate);
    out.set("byzantine", p.integrity.byzantine_fraction);
    out.set("scrub_interval", p.integrity.scrub_interval);
    out.set("op", "lifetime");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Seeds, clocks, statistics.

/// Independent seed for (stream, index), derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  splitmix64_next(s);
  s ^= index * 0xd1b54a32d192ed03ULL;
  return splitmix64_next(s);
}

enum Stream : std::uint64_t { kOverlay = 1, kObject, kStore, kManifest, kPlan, kCollect, kLife };

/// Op indices at and above this are warm-up operations inside set-up, so
/// the timed operations 0, 1, 2, ... have the same inputs in every pass.
constexpr std::uint64_t kWarmupIndex = 1ULL << 40;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        Clock::now().time_since_epoch())
                                        .count());
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (order statistics, type 7).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mbps(double bytes, double ns) { return ratio(bytes / 1e6, ns / 1e9); }

/// High-water resident set of this process image. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss would carry over the launching process's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, op id. Kept in memory, written at exit.

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;  ///< index into the span list, -1 for a root
  std::uint64_t op;
};

class Tracer {
 public:
  std::size_t begin(const char* name, std::uint64_t op) {
    const std::int64_t parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({name, now_ns(), 0, parent, op});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Records a span when a tracer is attached; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, op) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

struct SpanTotals {
  std::size_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Per-name count, total and self time (duration minus the children's).
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

/// One JSON object per line, times relative to the first span.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    json::Value line = json::Value::object();
    line.set("name", s.name);
    line.set("start_ns", s.start_ns - t0);
    line.set("end_ns", s.end_ns - t0);
    line.set("parent", static_cast<std::int64_t>(s.parent));
    line.set("op", s.op);
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Correctness gate.

enum class Inject { kNone, kDecodedByte, kViolationCount, kFirstLoss };

class Gate {
 public:
  explicit Gate(Inject inject) : inject_(inject) {}

  void fail(const std::string& what) {
    if (violations_.size() < 32) violations_.push_back(what);
    ++count_;
  }
  bool ok() const { return count_ == 0; }
  std::size_t count() const { return count_; }
  const std::vector<std::string>& violations() const { return violations_; }

  /// True exactly once for the planted fault `kind` (a single wrong output).
  bool take(Inject kind) {
    if (inject_ != kind || injected_) return false;
    injected_ = true;
    return true;
  }

 private:
  Inject inject_;
  bool injected_ = false;
  std::size_t count_ = 0;
  std::vector<std::string> violations_;
};

/// Every decoded block must be byte-identical to its source block.
void check_decoded(const codes::PriorityDecoder<Field>& decoder,
                   const codes::SourceData<Field>& source, const char* op, Gate& gate) {
  for (std::size_t j = 0; j < source.blocks(); ++j) {
    if (!decoder.is_block_decoded(j)) continue;
    std::span<const std::uint8_t> got = decoder.recovered(j);
    std::vector<std::uint8_t> flipped;
    if (gate.take(Inject::kDecodedByte)) {
      flipped.assign(got.begin(), got.end());
      flipped[flipped.size() / 2] ^= 0x01;
      got = flipped;
    }
    const auto want = source.block(j);
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      gate.fail(std::string("decoded_bytes: ") + op + " recovered source block " +
                std::to_string(j) + " differs from the stored object");
    }
  }
}

/// PLC prefix decoding: level k+1 can never outlive level k.
void check_first_loss(std::vector<double> first_loss, Gate& gate) {
  if (gate.take(Inject::kFirstLoss) && !first_loss.empty()) {
    first_loss.back() = first_loss.front() + 1.0;
  }
  for (std::size_t k = 1; k < first_loss.size(); ++k) {
    if (first_loss[k] > first_loss[k - 1]) {
      gate.fail("first_loss: level " + std::to_string(k + 1) + " first lost at t=" +
                std::to_string(first_loss[k]) + ", after level " + std::to_string(k) +
                " at t=" + std::to_string(first_loss[k - 1]));
    }
  }
}

// ---------------------------------------------------------------------------
// Store / retrieve workloads.

struct Deployment {
  std::unique_ptr<net::Overlay> overlay;
  std::unique_ptr<proto::Predistribution> predist;
};

/// The network an object is stored into. Every cycle gets its own overlay
/// (seeded per op, built off the clock), so a run averages over many
/// network layouts instead of inheriting one layout's routing cost.
Deployment deploy(const RetrievalWorkload& w, std::uint64_t seed, std::uint64_t op) {
  Deployment d;
  if (w.overlay == OverlayKind::kSensor) {
    net::SensorParams sp;
    sp.nodes = w.nodes;
    sp.locations = w.locations;
    // The workload is a connected deployment. On a partitioned layout (rare
    // at the default radius) a source block can reach no location, so full
    // retrieval is impossible by construction; such layouts are redrawn.
    for (std::uint64_t attempt = 0; d.overlay == nullptr; ++attempt) {
      sp.seed = derive_seed(seed, kOverlay, op + (attempt << 48));
      auto overlay = std::make_unique<net::SensorNetwork>(sp);
      if (overlay->alive_graph_connected()) d.overlay = std::move(overlay);
    }
  } else {
    net::ChordParams cp;
    cp.nodes = w.nodes;
    cp.locations = w.locations;
    cp.seed = derive_seed(seed, kOverlay, op);
    d.overlay = std::make_unique<net::ChordNetwork>(cp);
  }
  proto::ProtocolParams params;
  params.scheme = codes::Scheme::kPlc;
  params.block_size = w.block_size;
  d.predist = std::make_unique<proto::Predistribution>(
      *d.overlay, codes::PrioritySpec(std::vector<std::size_t>(w.levels, w.level_size)),
      codes::PriorityDistribution::uniform(w.levels), params);
  return d;
}

/// Everything one cycle consumes, generated from the seed before timing.
struct CycleInputs {
  CycleInputs(std::size_t blocks, std::size_t block_size) : source(blocks, block_size) {}

  std::vector<std::uint8_t> object;  ///< source blocks back to back
  codes::SourceData<Field> source;
  std::uint64_t store_seed = 0;
  std::uint64_t manifest_seed = 0;
  net::FaultPlan plan[2];
  std::uint64_t collect_seed[2] = {0, 0};
};

CycleInputs make_inputs(const RetrievalWorkload& w, const Deployment& d, std::uint64_t seed,
                        std::uint64_t op) {
  const std::size_t blocks = w.levels * w.level_size;
  CycleInputs in(blocks, w.block_size);
  in.object.resize(blocks * w.block_size);
  Rng rng(derive_seed(seed, kObject, op));
  for (std::size_t i = 0; i < in.object.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(in.object.data() + i, &word, std::min<std::size_t>(8, in.object.size() - i));
  }
  for (std::size_t j = 0; j < blocks; ++j) {
    std::copy_n(in.object.begin() + static_cast<std::ptrdiff_t>(j * w.block_size),
                w.block_size, in.source.block(j).begin());
  }
  in.store_seed = derive_seed(seed, kStore, op);
  in.manifest_seed = derive_seed(seed, kManifest, op);
  for (std::size_t r = 0; r < 2; ++r) {
    if (w.faults.active()) {
      Rng plan_rng(derive_seed(seed, kPlan, 2 * op + r));
      in.plan[r] = net::FaultPlan(w.faults, d.overlay->nodes(), plan_rng);
    }
    in.collect_seed[r] = derive_seed(seed, kCollect, 2 * op + r);
  }
  return in;
}

/// Counts and bytes the traced pass accumulates beside its spans.
struct LayerTotals {
  std::size_t stores = 0;
  double hops = 0;
  double messages = 0;
  double accumulate_bytes = 0;  ///< payload bytes folded in by disseminate
  double object_bytes = 0;
  std::size_t retrievals = 0;
  double frame_bytes = 0;
  double payload_bytes = 0;
  double attempts = 0;
  double delivered = 0;
  double retries = 0, hedges = 0, wire_errors = 0, violations = 0, quarantined = 0, lost = 0;
  double rows_received = 0, rows_innovative = 0, rows_redundant = 0, pivot_ops = 0,
         back_elim_rows = 0;
  std::size_t lifetimes = 0;
  double events = 0, peak_queue = 0, repairs = 0, scrubs = 0, rot_detected = 0;
};

struct RetrievalRecord {
  double ms = 0;
  bool target_met = false;
  std::size_t blocks_retrieved = 0;
  std::uint64_t sim_elapsed_us = 0;
};

struct CycleRecord {
  double store_ms = 0;
  RetrievalRecord l1;
  RetrievalRecord all;
  double ms() const { return store_ms + l1.ms + all.ms; }
};

/// Library decoder counters the collect() call moves (obs must be on).
struct DecoderCounters {
  std::uint64_t received, innovative, redundant, pivots, back_elim;
  static DecoderCounters read() {
    return {obs::counter("decoder.rows_received").value(),
            obs::counter("decoder.rows_innovative").value(),
            obs::counter("decoder.rows_redundant").value(),
            obs::counter("decoder.pivot_ops").value(),
            obs::counter("decoder.back_elim_rows").value()};
  }
};

/// Re-run a collection's delivered fetches through the layer functions,
/// one span each, on a fault-free channel over the same storage. The
/// replayed decoder must reach the collection's decoded level count.
void replay(const proto::Predistribution& predist, const proto::CollectionOutcome& outcome,
            const util::FingerprintManifest& manifest, Tracer& tracer, std::uint64_t op,
            LayerTotals& acc, Gate& gate) {
  ScopedSpan root(&tracer, "replay", op);
  proto::FaultyChannel channel(predist);
  Rng rng(0);  // a null-plan fetch draws nothing
  std::optional<util::Fingerprinter> fingerprinter;
  {
    ScopedSpan s(&tracer, "fingerprinter_init", op);
    fingerprinter.emplace(manifest.seed);
  }
  codes::PriorityDecoder<Field> decoder(predist.params().scheme, predist.spec(),
                                        predist.params().block_size);
  std::vector<std::uint8_t> coeffs(predist.spec().total());
  for (const proto::FetchAttempt& attempt : outcome.fetch_log) {
    if (!attempt.delivered) continue;
    proto::FetchReply reply;
    {
      ScopedSpan s(&tracer, "fetch", op);
      reply = channel.fetch(attempt.location, rng);
    }
    codes::WireBlockView view;
    {
      ScopedSpan s(&tracer, "decode_wire_view", op);
      view = codes::decode_wire_view(reply.bytes);
    }
    view.expand_coeffs(coeffs);
    std::uint64_t got = 0, want = 0;
    {
      ScopedSpan s(&tracer, "fingerprint", op);
      got = fingerprinter->fingerprint(view.payload);
    }
    {
      ScopedSpan s(&tracer, "combine", op);
      want = fingerprinter->combine(coeffs, manifest.fingerprints);
    }
    if (got != want) {
      gate.fail("replay: delivered block at location " + std::to_string(attempt.location) +
                " fails fingerprint verification");
    }
    {
      ScopedSpan s(&tracer, "decoder_add", op);
      decoder.add(view.level, coeffs, view.payload);
    }
    acc.frame_bytes += static_cast<double>(reply.bytes.size());
    acc.payload_bytes += static_cast<double>(view.payload.size());
  }
  if (decoder.decoded_levels() != outcome.result.decoded_levels) {
    gate.fail("replay: decoded " + std::to_string(decoder.decoded_levels()) +
              " levels, the collection decoded " +
              std::to_string(outcome.result.decoded_levels));
  }
}

RetrievalRecord retrieve(const RetrievalWorkload& w, const Deployment& d,
                         const CycleInputs& in, const util::FingerprintManifest& manifest,
                         std::size_t r, Tracer* tracer, std::uint64_t op, LayerTotals* acc,
                         Gate& gate) {
  const char* name = r == 0 ? "retrieve_l1" : "retrieve_all";
  proto::FaultyChannel channel(*d.predist, in.plan[r]);
  Rng rng(in.collect_seed[r]);
  proto::CollectorOptions options;
  options.target_levels = r == 0 ? 1 : w.levels;
  options.manifest = &manifest;
  options.trace = tracer != nullptr;
  const DecoderCounters before = tracer != nullptr ? DecoderCounters::read() : DecoderCounters{};

  std::optional<codes::PriorityDecoder<Field>> decoder;
  proto::CollectionOutcome outcome;
  const auto t0 = Clock::now();
  {
    ScopedSpan s(tracer, name, op);
    decoder.emplace(codes::Scheme::kPlc, d.predist->spec(), w.block_size);
    ScopedSpan c(tracer, "collect", op);
    outcome = proto::collect(channel, *decoder, options, rng);
  }
  const auto t1 = Clock::now();

  RetrievalRecord rec;
  rec.ms = ms_between(t0, t1);
  rec.target_met = outcome.result.target_met;
  rec.blocks_retrieved = outcome.result.blocks_retrieved;
  rec.sim_elapsed_us = outcome.sim_elapsed_us;

  check_decoded(*decoder, in.source, name, gate);
  const std::size_t injected =
      channel.injected().bitrot_frames + channel.injected().byzantine_frames;
  auto detected = static_cast<std::int64_t>(outcome.faults.integrity_violations);
  if (gate.take(Inject::kViolationCount)) --detected;
  if (detected != static_cast<std::int64_t>(injected)) {
    gate.fail(std::string("integrity_violations: ") + name + " detected " +
              std::to_string(detected) + " silent frames, the channel injected " +
              std::to_string(injected));
  }
  if (w.target_required && !rec.target_met) {
    gate.fail(std::string("target: ") + name + " decoded " +
              std::to_string(outcome.result.decoded_levels) + " of " +
              std::to_string(*options.target_levels) + " target levels");
  }

  if (tracer != nullptr) {
    const DecoderCounters after = DecoderCounters::read();
    ++acc->retrievals;
    acc->rows_received += static_cast<double>(after.received - before.received);
    acc->rows_innovative += static_cast<double>(after.innovative - before.innovative);
    acc->rows_redundant += static_cast<double>(after.redundant - before.redundant);
    acc->pivot_ops += static_cast<double>(after.pivots - before.pivots);
    acc->back_elim_rows += static_cast<double>(after.back_elim - before.back_elim);
    acc->attempts += static_cast<double>(outcome.fetch_log.size());
    for (const proto::FetchAttempt& a : outcome.fetch_log) acc->delivered += a.delivered;
    acc->retries += static_cast<double>(outcome.retries);
    acc->hedges += static_cast<double>(outcome.hedges);
    acc->wire_errors += static_cast<double>(outcome.faults.wire_errors);
    acc->violations += static_cast<double>(outcome.faults.integrity_violations);
    acc->quarantined += static_cast<double>(outcome.quarantined_nodes);
    acc->lost += static_cast<double>(outcome.blocks_lost);
    replay(*d.predist, outcome, manifest, *tracer, op, *acc, gate);
  }
  return rec;
}

CycleRecord run_cycle(const RetrievalWorkload& w, Deployment& d, const CycleInputs& in,
                      Tracer* tracer, std::uint64_t op, LayerTotals* acc, Gate& gate) {
  CycleRecord rec;
  Rng rng(in.store_seed);
  proto::DisseminationStats stats;
  util::FingerprintManifest manifest;
  const auto t0 = Clock::now();
  {
    ScopedSpan s(tracer, "store", op);
    {
      ScopedSpan c(tracer, "disseminate", op);
      stats = d.predist->disseminate(in.source, rng);
    }
    ScopedSpan c(tracer, "build_manifest", op);
    manifest = util::build_manifest(in.manifest_seed, in.object, w.block_size);
  }
  rec.store_ms = ms_between(t0, Clock::now());
  if (tracer != nullptr) {
    ++acc->stores;
    acc->hops += static_cast<double>(stats.total_hops);
    acc->messages += static_cast<double>(stats.messages);
    acc->accumulate_bytes += static_cast<double>(stats.messages - stats.failed_routes) *
                             static_cast<double>(w.block_size);
    acc->object_bytes += static_cast<double>(in.object.size());
  }
  rec.l1 = retrieve(w, d, in, manifest, 0, tracer, op, acc, gate);
  rec.all = retrieve(w, d, in, manifest, 1, tracer, op, acc, gate);
  return rec;
}

// ---------------------------------------------------------------------------
// Lifetime workload.

struct LifetimeRecord {
  double ms = 0;
  std::size_t events = 0;
};

LifetimeRecord run_lifetime(const sim::ClusterParams& params, std::uint64_t seed,
                            std::uint64_t op, Tracer* tracer, LayerTotals* acc, Gate& gate) {
  Rng rng(derive_seed(seed, kLife, op));
  sim::LifetimeOutcome out;
  const auto t0 = Clock::now();
  {
    ScopedSpan s(tracer, "lifetime", op);
    out = sim::run_cluster_trial(params, rng);
  }
  LifetimeRecord rec{ms_between(t0, Clock::now()), out.events};
  check_first_loss(out.first_loss, gate);
  if (tracer != nullptr) {
    ++acc->lifetimes;
    acc->events += static_cast<double>(out.events);
    acc->peak_queue += static_cast<double>(out.peak_queue);
    acc->repairs += static_cast<double>(out.repairs_completed);
    acc->scrubs += static_cast<double>(out.scrub_scans);
    acc->rot_detected += static_cast<double>(out.rot_detected);
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Passes.

constexpr int kSetupRepeats = 3;

/// The runnable state a workload's set-up produces.
struct Bench {
  const Workload& workload;
  std::uint64_t seed;
  Gate& gate;
  std::vector<double> setup_s;
  std::vector<double> overlay_build_ms;
};

/// Set-up, repeated: build the deployment (overlay + predistribution, or
/// validated cluster parameters) and run one warm-up operation, which is
/// where lazy initialisation (kernel dispatch, tables, allocator growth)
/// happens.
void set_up(Bench& b) {
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::uint64_t warm = kWarmupIndex + static_cast<std::uint64_t>(k);
    if (b.workload.retrieval.has_value()) {
      const RetrievalWorkload& w = *b.workload.retrieval;
      const auto t0 = Clock::now();
      Deployment d = deploy(w, b.seed, warm);
      const auto t1 = Clock::now();
      // Warm-up inputs are generated off the clock, like all inputs.
      const CycleInputs in = make_inputs(w, d, b.seed, warm);
      const auto t2 = Clock::now();
      run_cycle(w, d, in, nullptr, warm, nullptr, b.gate);
      const auto t3 = Clock::now();
      b.overlay_build_ms.push_back(ms_between(t0, t1));
      b.setup_s.push_back((ms_between(t0, t1) + ms_between(t2, t3)) / 1e3);
    } else {
      const auto t0 = Clock::now();
      b.workload.lifetime->validate();
      run_lifetime(*b.workload.lifetime, b.seed, warm, nullptr, nullptr, b.gate);
      b.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    }
  }
}

struct PassResult {
  std::vector<double> op_ms;
  std::vector<CycleRecord> cycles;
  std::vector<LifetimeRecord> lifetimes;
  double busy_s = 0;  ///< sum of op times
};

/// Closed loop over ops 0, 1, 2, ...: until `seconds` have passed, or for
/// exactly `ops` operations when it is set.
PassResult run_pass(Bench& b, double seconds, std::optional<std::size_t> ops, Tracer* tracer,
                    LayerTotals* acc) {
  PassResult r;
  const auto start = Clock::now();
  for (std::uint64_t op = 0;; ++op) {
    const bool done = ops.has_value()
                          ? op >= *ops
                          : op > 0 && ms_between(start, Clock::now()) >= seconds * 1e3;
    if (done) break;
    if (b.workload.retrieval.has_value()) {
      const RetrievalWorkload& w = *b.workload.retrieval;
      Deployment d = deploy(w, b.seed, op);
      const CycleInputs in = make_inputs(w, d, b.seed, op);
      const CycleRecord c = run_cycle(w, d, in, tracer, op, acc, b.gate);
      r.cycles.push_back(c);
      r.op_ms.push_back(c.ms());
    } else {
      const LifetimeRecord l = run_lifetime(*b.workload.lifetime, b.seed, op, tracer, acc, b.gate);
      r.lifetimes.push_back(l);
      r.op_ms.push_back(l.ms);
    }
    r.busy_s += r.op_ms.back() / 1e3;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Probes and host record.

/// Probe results are read through this so the timed work is never elided.
volatile std::uint8_t g_sink = 0;

/// Gf256::axpy rate at `bytes` per call, median of five timed batches.
double probe_axpy_mbps(std::size_t bytes) {
  std::vector<std::uint8_t> x(bytes), y(bytes);
  Rng rng(42);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng());
  const std::size_t calls = std::max<std::size_t>(1, (64u << 20) / bytes);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) {
      gf::Gf256::axpy(y, static_cast<std::uint8_t>(2 + (i % 250)), x);
    }
    rates.push_back(mbps(static_cast<double>(calls * bytes), static_cast<double>(now_ns() - t0)));
  }
  g_sink = y[bytes / 2];
  return quantile(rates, 0.5);
}

/// memcpy rate over a 32 MiB buffer (beyond the caches): the memory
/// bandwidth roofline for the CRC and fingerprint passes.
double probe_memcpy_mbps() {
  const std::size_t bytes = 32u << 20;
  std::vector<std::uint8_t> src(bytes, 1), dst(bytes, 0);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    src[static_cast<std::size_t>(rep)] = static_cast<std::uint8_t>(rep);
    const std::uint64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), bytes);
    rates.push_back(mbps(static_cast<double>(bytes), static_cast<double>(now_ns() - t0)));
  }
  g_sink = dst[bytes / 2];
  return quantile(rates, 0.5);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

json::Value host_record() {
  json::Value host = json::Value::object();
  host.set("cpu", cpu_model());
  host.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  host.set("gf256_kernel", gf::gf256_kernel_name(gf::gf256_active_kernel()));
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("compiler", PERFBENCH_COMPILER);
  return host;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  json::Value values = json::Value::object();
  for (const Metric& m : metrics) {
    json::Value metric = json::Value::object();
    metric.set("value", m.value);
    metric.set("unit", m.unit);
    values.set(m.name, std::move(metric));
  }
  json::Value result = json::Value::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<std::uint64_t>(attempted));
  result.set("failed", static_cast<std::uint64_t>(failed));
  result.set("metrics", std::move(values));
  std::printf("%s\n", result.dump().c_str());
}

/// The operation-kind figures of one pass (store, retrievals, lifetimes),
/// printed for reading; the gated end-to-end set is generic per operation.
std::vector<Metric> operation_report(const Workload& w, const PassResult& r) {
  std::vector<Metric> m;
  if (w.retrieval.has_value()) {
    const RetrievalWorkload& rw = *w.retrieval;
    const double object_mb = static_cast<double>(rw.levels * rw.level_size * rw.block_size) / 1e6;
    std::vector<double> store, l1, all, l1_fetches, l1_sim;
    std::size_t missed = 0;
    for (const CycleRecord& c : r.cycles) {
      store.push_back(c.store_ms);
      l1.push_back(c.l1.ms);
      all.push_back(c.all.ms);
      l1_fetches.push_back(static_cast<double>(c.l1.blocks_retrieved));
      l1_sim.push_back(static_cast<double>(c.l1.sim_elapsed_us) / 1e3);
      missed += !c.l1.target_met;
      missed += !c.all.target_met;
    }
    m = {{"store_ms_p50", quantile(store, 0.5), "ms"},
         {"store_ms_p90", quantile(store, 0.9), "ms"},
         {"store_mbps", ratio(object_mb, quantile(store, 0.5) / 1e3), "MB/s"},
         {"retrieve_l1_ms_p50", quantile(l1, 0.5), "ms"},
         {"retrieve_l1_ms_p90", quantile(l1, 0.9), "ms"},
         {"retrieve_all_ms_p50", quantile(all, 0.5), "ms"},
         {"retrieve_all_ms_p90", quantile(all, 0.9), "ms"},
         {"retrieve_mbps", ratio(object_mb, quantile(all, 0.5) / 1e3), "MB/s"},
         {"l1_fetches_mean", mean(l1_fetches), "count"},
         {"l1_sim_ms_mean", mean(l1_sim), "ms"},
         {"ops_failed_frac",
          ratio(static_cast<double>(missed), 2.0 * static_cast<double>(r.cycles.size())),
          "ratio"}};
  } else {
    std::vector<double> life;
    double events = 0, seconds = 0;
    for (const LifetimeRecord& l : r.lifetimes) {
      life.push_back(l.ms);
      events += static_cast<double>(l.events);
      seconds += l.ms / 1e3;
    }
    m = {{"lifetime_ms_p50", quantile(life, 0.5), "ms"},
         {"lifetime_ms_p90", quantile(life, 0.9), "ms"},
         {"sim_events_per_s", ratio(events, seconds), "1/s"}};
  }
  return m;
}

std::size_t failed_ops(const PassResult& r) {
  std::size_t failed = 0;
  for (const CycleRecord& c : r.cycles) failed += !(c.l1.target_met && c.all.target_met);
  return failed;
}

std::vector<Metric> end_to_end(const Bench& b, const PassResult& r) {
  return {{"setup_s", quantile(b.setup_s, 0.5), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"op_ms_p50", quantile(r.op_ms, 0.5), "ms"},
          {"op_ms_p90", quantile(r.op_ms, 0.9), "ms"}};
}

std::vector<Metric> per_layer(const Bench& b, const LayerTotals& a,
                              const std::map<std::string, SpanTotals>& spans,
                              double axpy_mbps, double memcpy_mbps, double overhead_pct) {
  const auto ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ns;
  };
  const auto count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double stores = static_cast<double>(a.stores);
  const double retrievals = static_cast<double>(a.retrievals);
  const double lifetimes = static_cast<double>(a.lifetimes);
  const double replayed_ns = ns("fingerprinter_init") + ns("fetch") + ns("decode_wire_view") +
                             ns("fingerprint") + ns("combine") + ns("decoder_add");
  const double fingerprint_mbps = mbps(a.payload_bytes, ns("fingerprint"));
  const double decode_mbps = mbps(a.frame_bytes, ns("decode_wire_view"));
  const double overlay_ms =
      b.workload.retrieval.has_value() ? quantile(b.overlay_build_ms, 0.5) : 0.0;
  return {
      {"net.overlay_build_ms", overlay_ms, "ms"},
      {"net.route_hops", ratio(a.hops, stores), "count/op"},
      {"proto.disseminate_ms", ratio(ns("disseminate") / 1e6, stores), "ms"},
      {"proto.disseminate_msgs", ratio(a.messages, stores), "count/op"},
      {"gf.axpy_mbps", axpy_mbps, "MB/s"},
      {"host.memcpy_mbps", memcpy_mbps, "MB/s"},
      {"proto.disseminate_axpy_ratio",
       ratio(mbps(a.accumulate_bytes, ns("disseminate")), axpy_mbps), "ratio"},
      {"util.build_manifest_ms", ratio(ns("build_manifest") / 1e6, stores), "ms"},
      {"util.build_manifest_mbps", mbps(a.object_bytes, ns("build_manifest")), "MB/s"},
      {"util.fingerprint_mbps", fingerprint_mbps, "MB/s"},
      {"util.fingerprint_memcpy_ratio", ratio(fingerprint_mbps, memcpy_mbps), "ratio"},
      {"util.combine_ns", ratio(ns("combine"), count("combine")), "ns"},
      {"util.fingerprinter_init_us",
       ratio(ns("fingerprinter_init") / 1e3, count("fingerprinter_init")), "us"},
      {"proto.fetch_ms", ratio(ns("fetch") / 1e6, retrievals), "ms"},
      {"codes.encode_wire_mbps", mbps(a.frame_bytes, ns("fetch")), "MB/s"},
      {"codes.decode_wire_view_mbps", decode_mbps, "MB/s"},
      {"codes.decode_wire_view_memcpy_ratio", ratio(decode_mbps, memcpy_mbps), "ratio"},
      {"codes.decoder_add_ms", ratio(ns("decoder_add") / 1e6, retrievals), "ms"},
      {"linalg.rows_innovative", ratio(a.rows_innovative, retrievals), "count/op"},
      {"linalg.rows_redundant", ratio(a.rows_redundant, retrievals), "count/op"},
      {"linalg.pivot_ops", ratio(a.pivot_ops, retrievals), "count/op"},
      {"linalg.back_elim_rows", ratio(a.back_elim_rows, retrievals), "count/op"},
      {"linalg.innovative_ratio", ratio(a.rows_innovative, a.rows_received), "ratio"},
      {"proto.collect_ms", ratio(ns("collect") / 1e6, retrievals), "ms"},
      {"proto.collect_overhead_ms", ratio((ns("collect") - replayed_ns) / 1e6, retrievals), "ms"},
      {"proto.collect_coverage", ratio(replayed_ns, ns("collect")), "ratio"},
      {"proto.retries", ratio(a.retries, retrievals), "count/op"},
      {"proto.hedges", ratio(a.hedges, retrievals), "count/op"},
      {"proto.wire_errors", ratio(a.wire_errors, retrievals), "count/op"},
      {"proto.integrity_violations", ratio(a.violations, retrievals), "count/op"},
      {"proto.quarantined_nodes", ratio(a.quarantined, retrievals), "count/op"},
      {"proto.blocks_lost", ratio(a.lost, retrievals), "count/op"},
      {"proto.delivered_ratio", ratio(a.delivered, a.attempts), "ratio"},
      {"sim.ns_per_event", ratio(ns("lifetime"), a.events), "ns"},
      {"sim.events", ratio(a.events, lifetimes), "count/op"},
      {"sim.peak_queue", ratio(a.peak_queue, lifetimes), "count/op"},
      {"sim.repairs_completed", ratio(a.repairs, lifetimes), "count/op"},
      {"sim.scrub_scans", ratio(a.scrubs, lifetimes), "count/op"},
      {"sim.rot_detected", ratio(a.rot_detected, lifetimes), "count/op"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

void print_self_times(const std::map<std::string, SpanTotals>& spans) {
  double all_self = 0;
  for (const auto& [name, t] : spans) all_self += t.self_ns;
  std::printf("self time by span (traced pass)\n");
  std::printf("  %-20s %10s %14s %14s %8s\n", "span", "count", "total_ms", "self_ms", "self%");
  for (const auto& [name, t] : spans) {
    std::printf("  %-20s %10zu %14.3f %14.3f %7.2f%%\n", name.c_str(), t.count,
                t.total_ns / 1e6, t.self_ns / 1e6, 100.0 * ratio(t.self_ns, all_self));
  }
}

// ---------------------------------------------------------------------------
// Command line.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
  Inject inject = Inject::kNone;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "prlc_perfbench: %s\n"
               "usage: prlc_perfbench --workload bulk_archive|wide_hostile|cluster_lifetime "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE] "
               "[--inject decoded-byte|violation-count|first-loss]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = o.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else if (flag == "--inject") {
        if (value == "decoded-byte") {
          o.inject = Inject::kDecodedByte;
        } else if (value == "violation-count") {
          o.inject = Inject::kViolationCount;
        } else if (value == "first-loss") {
          o.inject = Inject::kFirstLoss;
        } else {
          usage("unknown --inject kind " + value);
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::optional<Workload> workload = find_workload(opt.workload);
  if (!workload.has_value()) usage("unknown workload " + opt.workload);
  const bool lifetime_inject = opt.inject == Inject::kFirstLoss;
  if (opt.inject != Inject::kNone && lifetime_inject == workload->retrieval.has_value()) {
    usage("that --inject kind does not apply to workload " + opt.workload);
  }

  obs::set_enabled(false);  // end-to-end figures are measured with metrics off
  json::Value header = json::Value::object();
  header.set("host", host_record());
  header.set("workload", describe(*workload));
  std::printf("%s\n", header.dump().c_str());

  Gate gate(opt.inject);
  Bench bench{*workload, opt.seed, gate, {}, {}};
  set_up(bench);

  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  if (!opt.trace) {
    const PassResult r = run_pass(bench, opt.seconds, std::nullopt, nullptr, nullptr);
    attempted = r.op_ms.size();
    failed = failed_ops(r);
    print_table("operations", operation_report(*workload, r));
    metrics = end_to_end(bench, r);
  } else {
    // Same seed, same operations: untraced first, then traced. The untraced
    // pass gets a third of the time: the traced pass repeats its operations
    // and replays every collection, so it runs about twice as long, and the
    // whole run stays close to --seconds.
    const PassResult plain = run_pass(bench, opt.seconds / 3, std::nullopt, nullptr, nullptr);
    Tracer tracer;
    LayerTotals totals;
    obs::set_enabled(true);
    const PassResult traced = run_pass(bench, 0, plain.op_ms.size(), &tracer, &totals);
    obs::set_enabled(false);
    attempted = traced.op_ms.size();
    failed = failed_ops(traced);
    const double overhead_pct = 100.0 * (ratio(traced.busy_s, plain.busy_s) - 1.0);
    const std::size_t probe_bytes =
        workload->retrieval.has_value() ? workload->retrieval->block_size : 64 * 1024;
    const auto spans = span_totals(tracer.spans());
    print_table("operations (untraced pass)", operation_report(*workload, plain));
    print_table("operations (traced pass)", operation_report(*workload, traced));
    print_self_times(spans);
    metrics = per_layer(bench, totals, spans, probe_axpy_mbps(probe_bytes), probe_memcpy_mbps(),
                        overhead_pct);
    std::printf("tracing overhead: %.3f%% (traced %.3f s vs untraced %.3f s over %zu ops)\n",
                overhead_pct, traced.busy_s, plain.busy_s, attempted);
    if (!opt.spans_out.empty() && !write_spans(opt.spans_out, tracer.spans())) {
      std::fprintf(stderr, "prlc_perfbench: cannot write spans to %s\n", opt.spans_out.c_str());
      return 2;
    }
  }

  for (const std::string& v : gate.violations()) {
    std::fprintf(stderr, "correctness violation: %s\n", v.c_str());
  }
  if (!gate.ok()) {
    std::fprintf(stderr, "correctness gate: %zu violation(s)\n", gate.count());
  }
  print_table(opt.trace ? "per-layer metrics" : "end-to-end metrics", metrics);
  print_result(gate.ok(), attempted, failed, metrics);
  return gate.ok() ? 0 : 1;
}
