// Frame-layer transparency: for every codec x rank x bound x chunk size,
// framing an undamaged container cut into chunks of that size and
// strict-reading it back must be byte-for-byte lossless, and the
// decompressed field must be bit-identical to decompressing the unframed
// container.

#include <gtest/gtest.h>

#include "compress/common/framing.hpp"
#include "compress/common/registry.hpp"
#include "data/generators.hpp"
#include "frame_chunks.hpp"

namespace lcp::compress {
namespace {

struct RoundTripCase {
  std::string codec;
  std::size_t rank = 1;
  double bound = 1e-3;
  std::size_t chunk_bytes = 4096;
};

std::string case_name(const ::testing::TestParamInfo<RoundTripCase>& info) {
  const auto& p = info.param;
  std::string bound =
      p.bound == 1e-2 ? "b1em2" : "b1em3";
  return p.codec + "_r" + std::to_string(p.rank) + "_" + bound + "_c" +
         std::to_string(p.chunk_bytes);
}

data::Field field_of_rank(std::size_t rank) {
  switch (rank) {
    case 1:
      return data::generate_hacc(4096, 77);
    case 2: {
      // 2-D slice: reshape an Isabel layer.
      auto f = data::generate_isabel(data::IsabelKind::kTemperature, 1, 48, 64,
                                     5);
      return data::Field{"isabel_slice", data::Dims::d2(48, 64),
                         std::vector<float>(f.values().begin(),
                                            f.values().end())};
    }
    default:
      return data::generate_cesm_atm(4, 16, 24, 9);
  }
}

class FramingRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(FramingRoundTripTest, FrameLayerIsTransparent) {
  const auto& p = GetParam();
  const auto field = field_of_rank(p.rank);
  auto codec = make_compressor(p.codec);
  ASSERT_TRUE(codec.has_value());
  auto compressed = (*codec)->compress(field, ErrorBound::absolute(p.bound));
  ASSERT_TRUE(compressed.has_value()) << compressed.status().to_string();
  const auto& container = compressed->container;

  const auto framed = frame_in_chunks(container, p.chunk_bytes);

  // Layer transparency: strict read returns the container bit-for-bit.
  auto walked = read_framed(framed);
  ASSERT_TRUE(walked.has_value()) << walked.status().to_string();
  const auto unframed = joined_payload(*walked);
  ASSERT_EQ(unframed, container);

  // And decode-after-frame equals decode-without-frame bit-for-bit.
  auto direct = decompress_any(container);
  auto via_frame = decompress_any(unframed);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(via_frame.has_value());
  const auto a = direct->field.values();
  const auto b = via_frame->field.values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

std::vector<RoundTripCase> all_cases() {
  std::vector<RoundTripCase> cases;
  for (const auto& codec : registered_codec_names()) {
    for (std::size_t rank : {1u, 2u, 3u}) {
      for (double bound : {1e-2, 1e-3}) {
        for (std::size_t chunk : {256u, 4096u, 65536u}) {
          cases.push_back({codec, rank, bound, chunk});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, FramingRoundTripTest,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace lcp::compress
