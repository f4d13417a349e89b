// Fuzz-style robustness battery for the wire format: arbitrary and
// mutated byte streams must either parse to a valid block or throw
// WireFormatError — never crash, hang, or return garbage silently.
// The fold-lane tests aim at the carry-less CRC-32: a bit flip in any of
// the 16-byte lanes the fold starts from or finishes on, and truncations
// that land below, at and above the 64-byte fold threshold.
#include <gtest/gtest.h>

#include "codes/encoder.h"
#include "codes/wire_format.h"
#include "util/random.h"

namespace prlc::codes {
namespace {

using F = gf::Gf256;

TEST(WireFuzz, RandomBuffersNeverCrash) {
  Rng rng(301);
  for (int t = 0; t < 3000; ++t) {
    const std::size_t len = rng.uniform(200);
    std::vector<std::uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(256));
    try {
      const auto block = decode_wire(buf);
      // A random buffer passing a CRC-32 is a ~2^-32 event per trial;
      // reaching here at all is effectively impossible, but if it ever
      // happens the result must still be structurally sound.
      EXPECT_FALSE(block.block.coeffs.empty());
    } catch (const WireFormatError&) {
      // expected
    }
  }
}

TEST(WireFuzz, MutatedValidFramesNeverCrash) {
  Rng rng(302);
  const auto spec = PrioritySpec({4, 6, 10});
  const auto source = SourceData<F>::random(spec.total(), 8, rng);
  const PriorityEncoder<F> enc(Scheme::kPlc, spec, {}, &source);
  const auto wire = encode_wire(Scheme::kPlc, enc.encode(2, rng));
  std::size_t parsed = 0;
  for (int t = 0; t < 3000; ++t) {
    auto buf = wire;
    // 1-4 random byte mutations.
    const std::size_t mutations = 1 + rng.uniform(4);
    for (std::size_t i = 0; i < mutations; ++i) {
      buf[rng.uniform(buf.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    try {
      decode_wire(buf);
      ++parsed;  // mutations that cancel out (possible when an even
                 // number hit the same byte) re-create the original
    } catch (const WireFormatError&) {
    }
  }
  EXPECT_LE(parsed, 60);  // overwhelming majority must be rejected
}

TEST(WireFuzz, RandomTruncationsNeverCrash) {
  Rng rng(303);
  const auto spec = PrioritySpec({4, 6, 10});
  const PriorityEncoder<F> enc(Scheme::kSlc, spec);
  const auto wire = encode_wire(Scheme::kSlc, enc.encode(1, rng));
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    const std::vector<std::uint8_t> cut(wire.begin(),
                                        wire.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(decode_wire(cut), WireFormatError) << keep;
  }
}

TEST(WireFuzz, ConcatenatedFramesRejected) {
  // Two frames glued together must not silently parse as one.
  Rng rng(304);
  const auto spec = PrioritySpec({4, 6, 10});
  const PriorityEncoder<F> enc(Scheme::kPlc, spec);
  auto a = encode_wire(Scheme::kPlc, enc.encode(0, rng));
  const auto b = encode_wire(Scheme::kPlc, enc.encode(1, rng));
  a.insert(a.end(), b.begin(), b.end());
  EXPECT_THROW(decode_wire(a), WireFormatError);
}

/// Every single-bit flip in the first 128 bytes (the four fold lanes and
/// the first 64-byte round) and in the last 80 bytes (the last 16-byte
/// folds, the table-finished lane and tail, and the CRC itself), then
/// every truncation to 0..200 bytes, must throw WireFormatError and
/// nothing else.
template <typename Parse>
void expect_fold_lane_damage_rejected(const std::vector<std::uint8_t>& frame, Parse parse) {
  ASSERT_GE(frame.size(), 208u);
  std::vector<std::uint8_t> buf = frame;
  for (std::size_t at = 0; at < buf.size(); ++at) {
    if (at == 128) at = buf.size() - 80;
    for (int bit = 0; bit < 8; ++bit) {
      buf[at] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_THROW(parse(buf), WireFormatError) << "size=" << buf.size() << " byte=" << at
                                                << " bit=" << bit;
      buf[at] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
  for (std::size_t keep = 0; keep <= 200; ++keep) {
    const std::span<const std::uint8_t> cut(frame.data(), keep);
    EXPECT_THROW(parse(cut), WireFormatError) << "size=" << frame.size() << " keep=" << keep;
  }
}

TEST(WireFuzz, FoldLaneBitFlipsAndShortTruncationsAreRejected) {
  Rng rng(305);
  for (const std::size_t payload_size : {std::size_t{1024}, std::size_t{65536}}) {
    std::vector<std::uint8_t> coeffs(16);
    std::vector<std::uint8_t> payload(payload_size);
    for (auto& c : coeffs) c = static_cast<std::uint8_t>(1 + rng.uniform(255));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    const auto frame =
        encode_wire(Scheme::kPlc, CodedBlockView{.level = 1, .coeffs = coeffs, .payload = payload});
    ASSERT_EQ(decode_wire_view(frame).payload.size(), payload_size);
    expect_fold_lane_damage_rejected(
        frame, [](std::span<const std::uint8_t> bytes) { return decode_wire_view(bytes); });
  }
}

TEST(WireFuzz, ManifestFoldLaneBitFlipsAndShortTruncationsAreRejected) {
  Rng rng(306);
  util::FingerprintManifest manifest;
  manifest.seed = rng();
  manifest.block_size = 4096;
  for (int j = 0; j < 40; ++j) manifest.fingerprints.push_back(rng());
  const auto frame = encode_manifest(manifest);  // 345 bytes
  ASSERT_EQ(decode_manifest(frame), manifest);
  expect_fold_lane_damage_rejected(
      frame, [](std::span<const std::uint8_t> bytes) { return decode_manifest(bytes); });
}

}  // namespace
}  // namespace prlc::codes
