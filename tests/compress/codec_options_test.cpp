// Cross-cutting option and shape coverage: rank-4 fields (merged-axis
// path), non-default quantizer radii, option combinations, and
// checkpoint frames of fixed-rate streams.

#include <gtest/gtest.h>

#include <cmath>

#include "compress/common/checkpoint.hpp"
#include "compress/common/container.hpp"
#include "compress/common/metrics.hpp"
#include "compress/common/registry.hpp"
#include "compress/sz/sz_compressor.hpp"
#include "compress/zfp/zfp_compressor.hpp"
#include "data/generators.hpp"
#include "support/rng.hpp"

namespace lcp::compress {
namespace {

data::Field rank4_field(std::uint64_t seed) {
  // A small 4-D (time, z, y, x) series: three timesteps of a smooth field.
  Rng rng{seed};
  const data::Dims dims{{3, 6, 10, 12}};
  std::vector<float> values(dims.element_count());
  std::size_t idx = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t z = 0; z < 6; ++z) {
      for (std::size_t y = 0; y < 10; ++y) {
        for (std::size_t x = 0; x < 12; ++x) {
          values[idx++] = static_cast<float>(
              std::sin(0.3 * static_cast<double>(x + t)) +
              0.2 * static_cast<double>(z) +
              0.05 * static_cast<double>(y) + 0.01 * rng.normal());
        }
      }
    }
  }
  return data::Field{"rank4", dims, std::move(values)};
}

TEST(Rank4Test, BothCodecsRoundTripMergedAxes) {
  const auto field = rank4_field(1);
  for (CodecId id : all_codecs()) {
    const auto codec = make_compressor(id);
    const auto report =
        round_trip(*codec, field, ErrorBound::absolute(1e-3));
    ASSERT_TRUE(report.has_value()) << codec_name(id);
    EXPECT_TRUE(report->bound_respected) << codec_name(id);
  }
}

TEST(Rank4Test, DecodedDimsKeepRankFour) {
  const auto field = rank4_field(2);
  const auto codec = make_compressor(CodecId::kSz);
  auto compressed = codec->compress(field, ErrorBound::absolute(1e-2));
  ASSERT_TRUE(compressed.has_value());
  auto decoded = codec->decompress(compressed->container);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->field.dims().rank(), 4u);
  EXPECT_EQ(decoded->field.dims(), field.dims());
}

TEST(SzOptionsTest, TinyQuantizerRadiusForcesUnpredictablesButStaysBounded) {
  sz::SzOptions options;
  options.quantizer_radius = 16;  // absurdly small: most samples escape
  sz::SzCompressor codec{options};
  const auto field = data::generate_cesm_atm(3, 20, 20, 3);
  const auto report = round_trip(codec, field, ErrorBound::absolute(1e-4));
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->bound_respected);
  // Ratio near (or below) 1: nearly everything stored exactly.
  EXPECT_LT(report->compression_ratio, 2.0);
}

TEST(SzOptionsTest, AllOptionCombinationsRoundTrip) {
  const auto field = data::generate_nyx(16, 4);
  for (bool backend : {false, true}) {
    for (auto predictor :
         {sz::SzPredictor::kFirstOrder, sz::SzPredictor::kSecondOrder}) {
      sz::SzOptions options;
      options.use_lossless_backend = backend;
      options.predictor = predictor;
      sz::SzCompressor codec{options};
      const auto report =
          round_trip(codec, field, ErrorBound::absolute(1e-3));
      ASSERT_TRUE(report.has_value())
          << backend << static_cast<int>(predictor);
      EXPECT_TRUE(report->bound_respected);
    }
  }
}

TEST(ParallelFixedRateTest, ChunkedFixedRateFrameRoundTrips) {
  // ZFP fixed-rate streams framed as 1024-element checkpoint slabs.
  const auto field = data::generate_cesm_atm(8, 16, 16, 5);
  CheckpointOptions options;
  options.codec = "zfp";
  options.bound = ErrorBound::fixed_rate(12.0);
  options.chunk_elements = 1024;
  auto frame = write_checkpoint(field, options);
  ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
  auto decoded = read_checkpoint(*frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  EXPECT_EQ(decoded->dims(), field.dims());
  EXPECT_EQ(decoded->name(), field.name());
}

TEST(BoundedRegimeTest, CloudFractionFieldHonoursBoundsInBothCodecs) {
  // Hard-clamped [0,1] data with exact-0/exact-1 plateaus: constant runs
  // for SZ's predictor and all-equal blocks for ZFP.
  const auto field =
      data::generate_cesm_field(data::CesmField::kCloudFraction, 6, 32, 32, 9);
  for (CodecId id : all_codecs()) {
    const auto codec = make_compressor(id);
    const auto report = round_trip(*codec, field, ErrorBound::absolute(1e-3));
    ASSERT_TRUE(report.has_value()) << codec_name(id);
    EXPECT_TRUE(report->bound_respected) << codec_name(id);
    // SZ's run-friendly pipeline does very well here; ZFP's per-block
    // headers cap it lower.
    const double floor = id == CodecId::kSz ? 3.0 : 1.8;
    EXPECT_GT(report->compression_ratio, floor) << codec_name(id);
  }
}

TEST(BoundModeTest, FactoriesSetModeAndValue) {
  const auto abs = ErrorBound::absolute(1e-3);
  EXPECT_EQ(abs.mode, BoundMode::kAbsolute);
  EXPECT_DOUBLE_EQ(abs.value, 1e-3);
  const auto rate = ErrorBound::fixed_rate(8.0);
  EXPECT_EQ(rate.mode, BoundMode::kFixedRate);
  EXPECT_DOUBLE_EQ(rate.value, 8.0);
}

TEST(BoundModeTest, FixedRateSurvivesContainerRoundTrip) {
  const auto field = data::generate_nyx(8, 6);
  zfp::ZfpCompressor codec;
  auto compressed = codec.compress(field, ErrorBound::fixed_rate(10.0));
  ASSERT_TRUE(compressed.has_value());
  const auto view = parse_container(compressed->container);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bound.mode, BoundMode::kFixedRate);
  EXPECT_DOUBLE_EQ(view->bound.value, 10.0);
}

}  // namespace
}  // namespace lcp::compress
