// Microbenchmarks — throughput of the coding substrate (google-benchmark).
//
// Not a paper figure; engineering numbers for the library itself: field
// kernels, encoder throughput, progressive-decoder cost at the paper's
// scales, batch RREF — and the payload sweep: PriorityEncoder encode and
// PriorityDecoder decode of real multi-MB objects, the numbers behind
// BENCH_codec.json. The sweep runs first (a custom timed loop, not
// google-benchmark) so its series is series[0] of --json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "codes/decoder.h"
#include "codes/encoder.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "linalg/gauss_jordan.h"
#include "linalg/progressive_decoder.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/check.h"
#include "util/clmul.h"
#include "util/crc32.h"
#include "util/gf64_fingerprint.h"
#include "util/random.h"

namespace {

using namespace prlc;
using F = gf::Gf256;

// --- payload sweep ---------------------------------------------------------

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::ScopedTimer::now_ns() - start_ns) * 1e-9;
}

struct SweepPass {
  double encode_s = 0;
  double decode_s = 0;
};

/// One timed encode + decode pass through the production payload path:
/// N lowest-priority PLC blocks (full-support rows, the worst-case and
/// steady-state payload workload) from an encoder with the source attached,
/// then a payload-carrying PriorityDecoder over them. Requires every
/// recovered block to equal its source bytes.
SweepPass run_payload_pass(const codes::PriorityEncoder<F>& enc,
                           const codes::SourceData<F>& source, Rng& rng) {
  const codes::PrioritySpec& spec = enc.spec();
  const std::size_t n = spec.total();
  const std::size_t deepest = spec.levels() - 1;
  SweepPass pass;

  std::vector<codes::CodedBlock<F>> coded;
  coded.reserve(n);
  const std::uint64_t t0 = obs::ScopedTimer::now_ns();
  for (std::size_t i = 0; i < n; ++i) coded.push_back(enc.encode(deepest, rng));
  pass.encode_s = seconds_since(t0);

  codes::PriorityDecoder<F> dec(codes::Scheme::kPlc, spec, source.block_size());
  const std::uint64_t t1 = obs::ScopedTimer::now_ns();
  for (const auto& block : coded) dec.add(block);
  pass.decode_s = seconds_since(t1);

  // N random rows are singular with probability about 1/255; top up
  // outside the timed region so the check below covers every block.
  while (dec.rank() < n) dec.add(enc.encode(deepest, rng));
  for (std::size_t j = 0; j < n; ++j) {
    PRLC_REQUIRE(std::ranges::equal(dec.recovered(j), source.block(j)),
                 "recovered payload differs from its source block");
  }
  return pass;
}

/// Encoder/decoder throughput over real multi-MB objects, PLC over 4
/// uniform levels: object bytes per wall second for each phase, the median
/// of 3 passes (1 under PRLC_BENCH_FAST); every pass checks recovered ==
/// source.
void run_payload_sweep(bench::BenchReport& report) {
  const bench::Options& opt = bench::options();
  const bool fast = bench::fast_mode();

  std::vector<std::size_t> payload_sizes;
  if (opt.payload_bytes) {
    payload_sizes = {*opt.payload_bytes};
  } else if (fast) {
    payload_sizes = {std::size_t{1} << 20};
  } else {
    payload_sizes = {std::size_t{4} << 20, std::size_t{64} << 20};
  }

  const std::size_t levels = 4;
  const std::size_t n = fast ? 16 : 64;  // source blocks (levels x n/levels)
  const std::size_t passes = fast ? 1 : 3;
  Rng rng(opt.seed_or(0x5eedc0dec));

  std::printf("payload sweep: PLC, %zu levels, N=%zu, median of %zu passes\n", levels, n,
              passes);
  for (const std::size_t requested : payload_sizes) {
    const std::size_t block_size = std::max<std::size_t>(1, requested / n);
    const std::size_t object_bytes = block_size * n;
    const auto spec = codes::PrioritySpec::uniform(levels, n / levels);
    const auto source = codes::SourceData<F>::random(n, block_size, rng);
    const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec, {}, &source);

    std::vector<double> encode_s;
    std::vector<double> decode_s;
    for (std::size_t p = 0; p < passes; ++p) {
      const SweepPass pass = run_payload_pass(enc, source, rng);
      encode_s.push_back(pass.encode_s);
      decode_s.push_back(pass.decode_s);
    }
    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                       v.end());
      return v[v.size() / 2];
    };
    const double enc_bps = static_cast<double>(object_bytes) / median(encode_s);
    const double dec_bps = static_cast<double>(object_bytes) / median(decode_s);
    report.add_point("payload_sweep",
                     {{"payload_bytes", json::Value(static_cast<std::int64_t>(object_bytes))},
                      {"encode_bytes_per_s", json::Value(enc_bps)},
                      {"decode_bytes_per_s", json::Value(dec_bps)}});
    std::printf("  payload %9zu  encode %8.1f MB/s  decode %8.1f MB/s\n", object_bytes,
                enc_bps * 1e-6, dec_bps * 1e-6);
  }
}

/// "model name" of the first CPU in /proc/cpuinfo ("unknown" elsewhere).
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t value = line.find_first_not_of(" \t", colon + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

void BM_GfMul(benchmark::State& state) {
  Rng rng(1);
  std::uint8_t a = static_cast<std::uint8_t>(1 + rng.uniform(255));
  std::uint8_t x = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    x = F::mul(a, x ^ 1);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_GfMul);

void BM_GfAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::uint8_t> x(n);
  std::vector<std::uint8_t> y(n);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    F::axpy(std::span<std::uint8_t>(y), 0x1D, std::span<const std::uint8_t>(x));
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfAxpy)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

// Per-variant kernel throughput (MB/s in the "bytes_per_second" counter).
// One row per compiled + runtime-supported variant, so BENCH output
// records both the dispatch decision and the speedup over the seed's
// byte-wise reference loop.
void BM_GfKernelAxpy(benchmark::State& state, gf::Gf256Kernel kernel) {
  const auto& ops = gf::gf256_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::uint8_t> x(n);
  std::vector<std::uint8_t> y(n);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    ops.axpy(y.data(), x.data(), 0x1D, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GfKernelMulRegion(benchmark::State& state, gf::Gf256Kernel kernel) {
  const auto& ops = gf::gf256_kernel_ops(kernel);
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  std::vector<std::uint8_t> src(n);
  std::vector<std::uint8_t> dst(n);
  for (auto& v : src) v = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto _ : state) {
    ops.mul_region(dst.data(), src.data(), 0x8F, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Whole-block linear combination dst = sum_s c_s * src_s over k sources of
// 64 KiB each: the shape of one stored block in dissemination and of one
// innovative row's payload in the decoder. Bytes processed count every
// source byte read, so MB/s compares directly with the axpy rows.
void BM_GfKernelLincomb(benchmark::State& state, gf::Gf256Kernel kernel) {
  const auto& ops = gf::gf256_kernel_ops(kernel);
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t n = 65536;
  Rng rng(10);
  std::vector<std::vector<std::uint8_t>> sources(k, std::vector<std::uint8_t>(n));
  std::vector<const std::uint8_t*> ptrs;
  std::vector<std::uint8_t> coeffs;
  for (auto& src : sources) {
    for (auto& v : src) v = static_cast<std::uint8_t>(rng.uniform(256));
    ptrs.push_back(src.data());
    coeffs.push_back(static_cast<std::uint8_t>(1 + rng.uniform(255)));
  }
  std::vector<std::uint8_t> dst(n);
  for (auto _ : state) {
    ops.lincomb(dst.data(), ptrs.data(), coeffs.data(), k, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * k));
}

void BM_GfAxpyBatch(benchmark::State& state) {
  // The decoder back-elimination shape: one source row applied to many
  // target rows through the cache-tiled batch entry point.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = 32;
  Rng rng(9);
  std::vector<std::uint8_t> x(n);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform(256));
  std::vector<std::vector<std::uint8_t>> targets(rows, std::vector<std::uint8_t>(n));
  std::vector<std::uint8_t*> ptrs;
  std::vector<std::uint8_t> coeffs;
  for (auto& t : targets) ptrs.push_back(t.data());
  for (std::size_t r = 0; r < rows; ++r) {
    coeffs.push_back(static_cast<std::uint8_t>(1 + rng.uniform(255)));
  }
  using F = gf::Gf256;
  for (auto _ : state) {
    F::axpy_batch(std::span<std::uint8_t* const>(ptrs),
                  std::span<const std::uint8_t>(coeffs), std::span<const std::uint8_t>(x));
    benchmark::DoNotOptimize(targets.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * rows));
}
BENCHMARK(BM_GfAxpyBatch)->Arg(4096)->Arg(65536);

void register_kernel_benchmarks() {
  for (gf::Gf256Kernel k : gf::gf256_compiled_kernels()) {
    if (!gf256_kernel_runtime_ok(k)) continue;
    const std::string suffix = gf::gf256_kernel_name(k);
    for (long n : {4096L, 65536L}) {
      benchmark::RegisterBenchmark(("BM_GfKernelAxpy/" + suffix).c_str(), BM_GfKernelAxpy, k)
          ->Arg(n);
      benchmark::RegisterBenchmark(("BM_GfKernelMulRegion/" + suffix).c_str(),
                                   BM_GfKernelMulRegion, k)
          ->Arg(n);
    }
    for (long sources : {8L, 16L, 64L}) {
      benchmark::RegisterBenchmark(("BM_GfKernelLincomb/" + suffix).c_str(),
                                   BM_GfKernelLincomb, k)
          ->Arg(sources);
    }
  }
}

void BM_EncodeBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto spec = codes::PrioritySpec::uniform(4, n / 4);
  const auto source = codes::SourceData<F>::random(n, 64, rng);
  const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec, {}, &source);
  for (auto _ : state) {
    auto block = enc.encode(3, rng);
    benchmark::DoNotOptimize(block.payload.data());
  }
}
BENCHMARK(BM_EncodeBlock)->Arg(256)->Arg(1024);

void BM_ProgressiveDecodeFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const auto spec = codes::PrioritySpec::uniform(4, n / 4);
  const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec);
  const auto dist = codes::PriorityDistribution::uniform(4);
  // Pre-generate blocks outside the timed region.
  std::vector<codes::CodedBlock<F>> blocks;
  for (std::size_t i = 0; i < n + 16; ++i) blocks.push_back(enc.encode_random(dist, rng));
  for (auto _ : state) {
    codes::PriorityDecoder<F> dec(codes::Scheme::kPlc, spec);
    for (const auto& b : blocks) {
      if (dec.rank() == n) break;
      dec.add(b);
    }
    benchmark::DoNotOptimize(dec.decoded_levels());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ProgressiveDecodeFull)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_BatchRref(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const auto m = linalg::Matrix<F>::random(n, n, rng);
  for (auto _ : state) {
    auto copy = m;
    const auto info = linalg::rref(copy);
    benchmark::DoNotOptimize(info.rank);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BatchRref)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SparseEncode(benchmark::State& state) {
  Rng rng(6);
  const auto spec = codes::PrioritySpec::uniform(4, 256);  // N = 1024
  codes::EncoderOptions opt;
  opt.model = codes::CoefficientModel::kSparse;
  const codes::PriorityEncoder<F> enc(codes::Scheme::kPlc, spec, opt);
  for (auto _ : state) {
    auto block = enc.encode(3, rng);
    benchmark::DoNotOptimize(block.coeffs.data());
  }
}
BENCHMARK(BM_SparseEncode);

// --- integrity kernels -----------------------------------------------------
//
// The per-frame checks of the receive path: the wire CRC over a whole
// frame, the GF(2^64) Horner fingerprint over a payload, and the manifest
// combine that predicts it from N coefficients. Roofline for the first two
// is memory bandwidth.

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

void BM_Crc32(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) benchmark::DoNotOptimize(crc32(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(64 << 10);

void BM_Fingerprint(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 12);
  const util::Fingerprinter fp(12);
  for (auto _ : state) benchmark::DoNotOptimize(fp.fingerprint(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Fingerprint)->Arg(1 << 10)->Arg(64 << 10);

void BM_FingerprintCombine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto coeffs = random_bytes(n, 13);
  Rng rng(13);
  std::vector<std::uint64_t> fps(n);
  for (auto& f : fps) f = rng();
  const util::Fingerprinter fp(13);
  for (auto _ : state) benchmark::DoNotOptimize(fp.combine(coeffs, fps));
}
BENCHMARK(BM_FingerprintCombine)->Arg(64)->Arg(256);

// Per-path rows (BM_Crc32/<path>/<bytes>, BM_Fingerprint/<path>/<bytes>):
// the portable tables on every host, the carry-less path where the CPU
// has it; the rows above time whichever path crc32() dispatched to.
void BM_Crc32Path(benchmark::State& state, std::uint32_t (*crc)(std::span<const std::uint8_t>,
                                                                std::uint32_t)) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) benchmark::DoNotOptimize(crc(data, 0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void BM_FingerprintPath(benchmark::State& state,
                        std::uint64_t (*path)(const util::Fingerprinter&,
                                              std::span<const std::uint8_t>)) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 12);
  const util::Fingerprinter fp(12);
  for (auto _ : state) benchmark::DoNotOptimize(path(fp, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void register_integrity_benchmarks() {
  const auto add = [](const char* path, auto crc, auto fingerprint) {
    benchmark::RegisterBenchmark((std::string("BM_Crc32/") + path).c_str(), BM_Crc32Path, crc)
        ->Arg(1 << 10)
        ->Arg(64 << 10);
    benchmark::RegisterBenchmark((std::string("BM_Fingerprint/") + path).c_str(),
                                 BM_FingerprintPath, fingerprint)
        ->Arg(1 << 10)
        ->Arg(64 << 10);
  };
  add("portable", util::detail::crc32_portable, util::detail::fingerprint_portable);
  if (util::clmul_supported()) {
    add("clmul", util::detail::crc32_clmul, util::detail::fingerprint_clmul);
  }
}

// --- telemetry probe overhead ----------------------------------------------
//
// The disabled-path contract (obs/events.h): a metrics counter add, an
// event emit and a time-series sample each cost a relaxed load plus a
// predictable branch when the subsystem is off. The Disabled/Enabled pair
// is the regression row for that claim; tests/obs/noalloc_guard_test
// asserts the allocation half of it.

void BM_TelemetryProbesDisabled(benchmark::State& state) {
  const bool metrics_before = obs::enabled();
  const bool events_before = obs::events_enabled();
  const bool timeseries_before = obs::timeseries_enabled();
  obs::set_enabled(false);
  obs::set_events_enabled(false);
  obs::set_timeseries_enabled(false);
  static obs::Counter& ctr = obs::counter("perf.telemetry_probe");
  const obs::SeriesId series = obs::timeseries("perf.telemetry_probe");
  for (auto _ : state) {
    ctr.add();
    obs::emit(obs::EventType::kPeel, 1.0);
    obs::sample(series, 1.0);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  obs::set_enabled(metrics_before);
  obs::set_events_enabled(events_before);
  obs::set_timeseries_enabled(timeseries_before);
}
BENCHMARK(BM_TelemetryProbesDisabled);

void BM_TelemetryProbesEnabled(benchmark::State& state) {
  const bool metrics_before = obs::enabled();
  const bool events_before = obs::events_enabled();
  const bool timeseries_before = obs::timeseries_enabled();
  obs::set_enabled(true);
  obs::set_events_enabled(true);
  obs::set_timeseries_enabled(true);
  static obs::Counter& ctr = obs::counter("perf.telemetry_probe");
  const obs::SeriesId series = obs::timeseries("perf.telemetry_probe");
  {
    obs::TrialScope scope(obs::begin_telemetry_run(), 0);
    for (auto _ : state) {
      ctr.add();
      obs::emit(obs::EventType::kPeel, 1.0);
      obs::sample(series, 1.0);
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  obs::set_enabled(metrics_before);
  obs::set_events_enabled(events_before);
  obs::set_timeseries_enabled(timeseries_before);
  // Drop the rings this loop filled so a --events-jsonl run of the other
  // benches is not polluted with benchmark probes.
  obs::EventJournal::global().clear();
  obs::TimeSeriesRecorder::global().clear();
}
BENCHMARK(BM_TelemetryProbesEnabled);

// Console output as usual, plus every finished run mirrored into the
// BenchReport for --json (name, adjusted times, user counters such as
// bytes_per_second).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::vector<std::pair<std::string, json::Value>> fields;
      fields.emplace_back("name", json::Value(run.benchmark_name()));
      fields.emplace_back("iterations", json::Value(static_cast<std::int64_t>(run.iterations)));
      fields.emplace_back("real_time", json::Value(run.GetAdjustedRealTime()));
      fields.emplace_back("cpu_time", json::Value(run.GetAdjustedCPUTime()));
      fields.emplace_back("time_unit",
                          json::Value(benchmark::GetTimeUnitString(run.time_unit)));
      for (const auto& [name, counter] : run.counters) {
        fields.emplace_back(name, json::Value(counter.value));
      }
      report_.add_point("benchmarks", std::move(fields));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --json/--metrics-json/--trace-json (and arm obs) before the
  // first field op below resolves kernel dispatch, so the dispatch-
  // decision gauges land in the metrics dump. Leftover --benchmark_*
  // flags belong to google-benchmark, so keep them.
  bench::parse_args(argc, argv, bench::UnknownArgs::kKeep);
  std::printf("gf256 kernel dispatch: %s (compiled:", gf::gf256_active_ops().name);
  for (gf::Gf256Kernel k : gf::gf256_compiled_kernels()) {
    std::printf(" %s%s", gf::gf256_kernel_name(k),
                gf::gf256_kernel_runtime_ok(k) ? "" : "[no-cpu]");
  }
  std::printf(")\n");
  std::printf("integrity path: %s\n", util::integrity_path());
  register_kernel_benchmarks();
  register_integrity_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchReport report("perf_codec");
  report.set_config("dispatch", json::Value(gf::gf256_active_ops().name));
  report.set_config("integrity_path", json::Value(util::integrity_path()));
  report.set_config("cpu_model", json::Value(cpu_model()));
  report.set_config("logical_cores",
                    json::Value(static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  report.set_config("gf_tile_bytes",
                    json::Value(static_cast<std::int64_t>(gf::kGf256TileBytes)));
  // The payload sweep goes first so its series lands at series[0] of the
  // --json report (smoke_codec's prlc_json_check paths rely on that).
  run_payload_sweep(report);
  CaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  bench::finalize(&report);
  benchmark::Shutdown();
  return 0;
}
