// Pinned-bytes regression for the SZ entropy stage: FNV-1a 64 digests of
// huffman_encode blobs and SzCompressor containers over a seeded matrix of
// datasets x bounds x shapes, checked at both dispatch levels. Any change
// to the emitted bytes (code lengths, canonical order, RLE layout, stream
// bit order) shows up here as a digest mismatch; unpinned, it would
// silently change every checkpoint's wire bytes and dedup hashes.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/sz/huffman.hpp"
#include "compress/sz/pipeline.hpp"
#include "compress/sz/quantizer.hpp"
#include "compress/sz/sz_compressor.hpp"
#include "data/generators.hpp"
#include "support/checksum.hpp"
#include "support/dispatch.hpp"

namespace lcp::sz {
namespace {

using simd::ScopedSimdLevel;
using simd::SimdLevel;

/// The element count of one checkpoint slab (CheckpointOptions default).
constexpr std::size_t kSlabElements = std::size_t{1} << 15;

enum class Dataset { kNyx, kCesm, kIsabel };

struct PinnedCase {
  Dataset dataset;
  double bound;
  bool slab;                     // first 32 Ki elements as a 1-D slab
  std::uint64_t huffman_digest;  // huffman_encode of the quantizer codes
  std::uint64_t sz_digest;       // SzCompressor::compress container
};

data::Field make_field(Dataset dataset, bool slab) {
  data::Field field;
  switch (dataset) {
    case Dataset::kNyx:
      field = data::generate_nyx(48, 3);
      break;
    case Dataset::kCesm:
      field = data::generate_cesm_atm(6, 60, 120, 4);
      break;
    case Dataset::kIsabel:
      field = data::generate_isabel(data::IsabelKind::kPressure, 10, 64, 64,
                                    5);
      break;
  }
  if (!slab) {
    return field;
  }
  const auto values = field.values();
  return data::Field{field.name(), data::Dims::d1(kSlabElements),
                     std::vector<float>(values.begin(),
                                        values.begin() + kSlabElements)};
}

std::string case_name(const PinnedCase& c) {
  static const char* const kNames[] = {"nyx", "cesm", "isabel"};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s eb=%g %s",
                kNames[static_cast<int>(c.dataset)], c.bound,
                c.slab ? "slab" : "whole");
  return buf;
}

// clang-format off
const PinnedCase kCases[] = {
    {Dataset::kNyx, 1e-2, false, 0xA4B31ED2D331A43FULL, 0xB9EA514F79B1FD9DULL},
    {Dataset::kNyx, 1e-2, true, 0x1E070E8674D0E954ULL, 0x30FC1837C24F2E6DULL},
    {Dataset::kNyx, 1e-4, false, 0x2B92374808C9CD36ULL, 0x29CF3E8AB812A7B4ULL},
    {Dataset::kNyx, 1e-4, true, 0x1D275ACAD965D20FULL, 0xD90F13A112723CA7ULL},
    {Dataset::kCesm, 1e-2, false, 0xE51E32D58277A80DULL, 0x7DC6516613A0D3D5ULL},
    {Dataset::kCesm, 1e-2, true, 0x345223864852639EULL, 0xC4492ADE9FDD34DCULL},
    {Dataset::kCesm, 1e-4, false, 0xE1139CA0500BECA4ULL, 0xBD270E772AA55765ULL},
    {Dataset::kCesm, 1e-4, true, 0x26B70417F880F7B0ULL, 0x04D336D09F5DED6AULL},
    {Dataset::kIsabel, 1e-2, false, 0x27D67C8835903BF1ULL, 0x73E1E7DD59986809ULL},
    {Dataset::kIsabel, 1e-2, true, 0x629B1ADF960465D2ULL, 0xDE53F105DB4B7F85ULL},
    {Dataset::kIsabel, 1e-4, false, 0x3B7C8B80DFEFC2D6ULL, 0x3291D74F41F5EECFULL},
    {Dataset::kIsabel, 1e-4, true, 0x0FCD5776258E96B8ULL, 0x1FA436FE171DE7C6ULL},
};
// clang-format on

TEST(SzPinnedBytesTest, EncoderBytesMatchRecordedDigests) {
  const SzCompressor codec;
  for (const auto& c : kCases) {
    SCOPED_TRACE(case_name(c));
    const auto field = make_field(c.dataset, c.slab);
    const LinearQuantizer quantizer{c.bound};
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel guard{level};
      SCOPED_TRACE(simd::simd_level_name(simd::simd_level()));

      std::vector<std::uint32_t> codes;
      std::vector<std::uint32_t> exact;
      predict_quantize_fused(field.values(), field.dims().extents(),
                             SzPredictor::kFirstOrder, quantizer, codes,
                             exact);
      const auto blob = huffman_encode(codes, quantizer.alphabet_size());
      const std::uint64_t huffman_digest = fnv1a64(blob);

      auto result =
          codec.compress(field, compress::ErrorBound::absolute(c.bound));
      ASSERT_TRUE(result.has_value()) << result.status().to_string();
      const std::uint64_t sz_digest = fnv1a64(result->container);

      EXPECT_EQ(huffman_digest, c.huffman_digest)
          << "huffman 0x" << std::hex << huffman_digest;
      EXPECT_EQ(sz_digest, c.sz_digest) << "sz 0x" << std::hex << sz_digest;
    }
  }
}

}  // namespace
}  // namespace lcp::sz
