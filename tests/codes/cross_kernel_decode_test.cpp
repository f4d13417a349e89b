// Every runtime-supported GF(256) kernel must decode the same coded stream
// to the same bytes through the same elimination: the encoder and decoder
// reach the kernels through Gf256's dispatch, so forcing each variant in
// turn and decoding one PLC, SLC and RLC stream must give byte-identical
// recovered blocks and identical decoder.* metrics.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "codes/decoder.h"
#include "codes/encoder.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

struct DecodeRun {
  std::vector<std::vector<std::uint8_t>> recovered;  ///< empty when not decoded
  std::map<std::string, double> decoder_metrics;
};

/// Encode a fixed-seed stream (every level gets its size plus two blocks,
/// so both innovative and redundant rows occur) and decode it under the
/// currently active kernel.
DecodeRun decode_stream(Scheme scheme, std::size_t block_size) {
  obs::Registry::global().reset_values();
  Rng rng(4242);
  const PrioritySpec spec({3, 5, 8});
  const auto source = SourceData<F>::random(spec.total(), block_size, rng);
  const PriorityEncoder<F> encoder(scheme, spec, {}, &source);
  PriorityDecoder<F> decoder(scheme, spec, block_size);
  for (std::size_t level = 0; level < spec.levels(); ++level) {
    for (std::size_t i = 0; i < spec.level_size(level) + 2; ++i) {
      decoder.add(encoder.encode(level, rng));
    }
  }
  DecodeRun run;
  for (std::size_t j = 0; j < spec.total(); ++j) {
    if (!decoder.is_block_decoded(j)) {
      run.recovered.emplace_back();
      continue;
    }
    const auto got = decoder.recovered(j);
    const auto want = source.block(j);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << gf::gf256_kernel_name(gf::gf256_active_kernel()) << " block " << j;
    run.recovered.emplace_back(got.begin(), got.end());
  }
  const obs::Registry& registry = obs::Registry::global();
  for (const std::string& name : registry.names()) {
    // decoder.add_ns is a wall-clock histogram; its sample count is the
    // deterministic part.
    if (name.rfind("decoder.", 0) == 0) {
      run.decoder_metrics[name] = registry.current_value(name).value_or(0);
    }
  }
  return run;
}

TEST(CrossKernelDecode, EveryKernelRecoversIdenticalBytesAndCounters) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const gf::Gf256Kernel before = gf::gf256_active_kernel();
  for (const Scheme scheme : {Scheme::kPlc, Scheme::kSlc, Scheme::kRlc}) {
    for (const std::size_t block_size : {std::size_t{1024}, std::size_t{65536}}) {
      gf::gf256_force_active_kernel(gf::Gf256Kernel::kReference);
      const DecodeRun expect = decode_stream(scheme, block_size);
      ASSERT_FALSE(expect.decoder_metrics.empty());
      EXPECT_GT(expect.decoder_metrics.at("decoder.rows_redundant"), 0);
      for (const gf::Gf256Kernel k : gf::gf256_compiled_kernels()) {
        if (k == gf::Gf256Kernel::kReference || !gf::gf256_kernel_runtime_ok(k)) continue;
        gf::gf256_force_active_kernel(k);
        const DecodeRun got = decode_stream(scheme, block_size);
        EXPECT_EQ(got.recovered, expect.recovered)
            << gf::gf256_kernel_name(k) << " scheme " << static_cast<int>(scheme) << " block "
            << block_size;
        EXPECT_EQ(got.decoder_metrics, expect.decoder_metrics)
            << gf::gf256_kernel_name(k) << " scheme " << static_cast<int>(scheme);
      }
    }
  }
  gf::gf256_force_active_kernel(before);
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace prlc::codes
