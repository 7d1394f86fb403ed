// Pinned-bytes regression for the ZFP codec: FNV-1a 64 digests of
// ZfpCompressor containers, and of the fields they decode to, over a
// seeded matrix of ranks x ragged extents x bounds, plus fixed-rate cases
// and a field whose outlier blocks take the verbatim path. Checked at both
// dispatch levels. Any change to the emitted bits (block headers, plane
// cutoff choice, significance tokens, fixed-rate padding) or to the decoded
// values shows up here as a digest mismatch; unpinned, it would silently
// change every ZFP checkpoint's wire bytes and dedup hashes.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/zfp/zfp_compressor.hpp"
#include "data/generators.hpp"
#include "support/checksum.hpp"
#include "support/dispatch.hpp"

namespace lcp::zfp {
namespace {

using compress::ErrorBound;
using simd::ScopedSimdLevel;
using simd::SimdLevel;

enum class Dataset { kHacc, kCesm2d, kNyx, kCesm3d, kHaccSpikes };

struct PinnedCase {
  Dataset dataset;
  bool fixed_rate;
  double value;                    // absolute bound, or bits per value
  std::uint64_t container_digest;  // ZfpCompressor::compress container
  std::uint64_t decoded_digest;    // decompressed float bytes
};

/// Every extent is off the 4-sample block width, so each field has
/// partial (edge-replicated) blocks on every axis.
data::Field make_field(Dataset dataset) {
  switch (dataset) {
    case Dataset::kHacc:
      return data::generate_hacc(40003, 7);
    case Dataset::kCesm2d: {
      const auto cesm = data::generate_cesm_atm(1, 61, 123, 4);
      const auto values = cesm.values();
      return data::Field{cesm.name(), data::Dims::d2(61, 123),
                         std::vector<float>(values.begin(), values.end())};
    }
    case Dataset::kNyx:
      return data::generate_nyx(30, 3);
    case Dataset::kCesm3d:
      return data::generate_cesm_atm(5, 37, 75, 4);
    case Dataset::kHaccSpikes: {
      // Outlier runs near 1e14 force needs_verbatim at 1e-4 (the fixed-point
      // grid is coarser than the bound there); zero runs take the zero-block
      // path. Runs start off the block grid so blocks mix regimes.
      const auto hacc = data::generate_hacc(4099, 11);
      std::vector<float> values(hacc.values().begin(), hacc.values().end());
      for (std::size_t i = 0; i < values.size(); ++i) {
        const std::size_t phase = i % 97;
        if (phase >= 5 && phase < 14) {
          values[i] *= 1e14F;
        } else if (phase >= 40 && phase < 53) {
          values[i] = 0.0F;
        }
      }
      return data::Field{hacc.name(), data::Dims::d1(values.size()),
                         std::move(values)};
    }
  }
  return {};
}

std::string case_name(const PinnedCase& c) {
  static const char* const kNames[] = {"hacc", "cesm2d", "nyx", "cesm3d",
                                       "hacc-spikes"};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %s=%g",
                kNames[static_cast<int>(c.dataset)],
                c.fixed_rate ? "rate" : "eb", c.value);
  return buf;
}

// clang-format off
const PinnedCase kCases[] = {
    {Dataset::kHacc, false, 1e-2, 0x0AE390532D649DE0ULL, 0x2E10EC634A00CE21ULL},
    {Dataset::kHacc, false, 1e-4, 0xB4774D4DCD02878CULL, 0xD9777A1BBD76E563ULL},
    {Dataset::kCesm2d, false, 1e-2, 0xD7080336766F23F3ULL, 0x3BA1E6F2B495C3EEULL},
    {Dataset::kCesm2d, false, 1e-4, 0x19EB6D9E2E07AD4BULL, 0x2120C8409AB0FB43ULL},
    {Dataset::kNyx, false, 1e-2, 0xD4D9C647B1FDED18ULL, 0xA9CFB0740EB3B759ULL},
    {Dataset::kNyx, false, 1e-4, 0xF7AC26839CE03544ULL, 0xCB9ABD360B060C70ULL},
    {Dataset::kCesm3d, false, 1e-2, 0x2BAC5A72ECF99490ULL, 0x680820158CC240BDULL},
    {Dataset::kCesm3d, false, 1e-4, 0x89AC3B7646C2F74DULL, 0x520968AA0569F211ULL},
    {Dataset::kHaccSpikes, false, 1e-4, 0x475376F22D3AB035ULL, 0xBC844E7765F02002ULL},
    {Dataset::kHacc, true, 12.0, 0xE6D81A673CEA6E11ULL, 0x58F4B53BCA99FEC5ULL},
    {Dataset::kNyx, true, 8.0, 0xC7599806F119D0ABULL, 0xAC3038909FE0C848ULL},
};
// clang-format on

TEST(ZfpPinnedBytesTest, ContainersAndDecodesMatchRecordedDigests) {
  const ZfpCompressor codec;
  for (const auto& c : kCases) {
    SCOPED_TRACE(case_name(c));
    const auto field = make_field(c.dataset);
    const ErrorBound bound = c.fixed_rate ? ErrorBound::fixed_rate(c.value)
                                          : ErrorBound::absolute(c.value);
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel guard{level};
      SCOPED_TRACE(simd::simd_level_name(simd::simd_level()));

      auto compressed = codec.compress(field, bound);
      ASSERT_TRUE(compressed.has_value()) << compressed.status().to_string();
      const std::uint64_t container_digest = fnv1a64(compressed->container);

      auto decoded = codec.decompress(compressed->container);
      ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
      const auto values = decoded->field.values();
      const std::uint64_t decoded_digest = fnv1a64(
          {reinterpret_cast<const std::uint8_t*>(values.data()),
           values.size() * sizeof(float)});

      EXPECT_EQ(container_digest, c.container_digest)
          << "container 0x" << std::hex << container_digest;
      EXPECT_EQ(decoded_digest, c.decoded_digest)
          << "decoded 0x" << std::hex << decoded_digest;
    }
  }
}

}  // namespace
}  // namespace lcp::zfp
