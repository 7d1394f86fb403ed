// Scalar/AVX2 dispatch identity: every vectorized kernel must produce
// bit-identical bytes and bit-identical reconstructions under either
// dispatch level. This is the contract that keeps container framing,
// checkpoint dedup and replica verification independent of the host's
// instruction set (see docs/simd_kernels.md). Kernel tests skip on hosts
// (or under LCP_FORCE_SCALAR=1) where only one level is reachable — there
// is nothing to compare. The Huffman tests compare against the reference
// decoder instead, so they run everywhere.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/common/codec.hpp"
#include "compress/common/registry.hpp"
#include "compress/lossless/shuffle_codec.hpp"
#include "compress/sz/huffman.hpp"
#include "compress/sz/pipeline.hpp"
#include "compress/sz/quantizer.hpp"
#include "compress/sz/sz_compressor.hpp"
#include "compress/sz/zlite.hpp"
#include "data/field.hpp"
#include "support/bitstream.hpp"
#include "support/dispatch.hpp"
#include "support/rng.hpp"

#include "huffman_reference.hpp"

namespace {

using lcp::simd::ScopedSimdLevel;
using lcp::simd::SimdLevel;

bool both_levels_available() {
  return lcp::simd::hardware_simd_level() >= SimdLevel::kAvx2;
}

#define SKIP_WITHOUT_AVX2()                                              \
  if (!both_levels_available()) {                                        \
    GTEST_SKIP() << "host/build reaches only scalar dispatch; nothing "  \
                    "to compare";                                        \
  }

/// A smooth field with scattered hostile values: denormals, exact zeros,
/// and magnitudes large enough to saturate the prequantization grid and
/// fall onto the exact-value side stream.
lcp::data::Field make_field(const std::vector<std::size_t>& extents,
                            unsigned seed) {
  std::size_t n = 1;
  for (auto e : extents) {
    n *= e;
  }
  lcp::Rng rng{seed};
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n);
    values[i] = static_cast<float>(std::sin(40.0 * x) +
                                   0.05 * rng.uniform());
  }
  for (std::size_t i = 3; i < n; i += 97) {
    values[i] = 1e-42F;  // denormal
  }
  for (std::size_t i = 11; i < n; i += 131) {
    values[i] = 0.0F;
  }
  for (std::size_t i = 29; i < n; i += 211) {
    values[i] = (i % 2 == 0) ? 1e30F : -1e30F;  // saturates the grid
  }
  return lcp::data::Field{"identity", lcp::data::Dims{extents},
                          std::move(values)};
}

/// Compresses under both levels (bytes must match), then decompresses the
/// container under both levels (floats must match bit for bit).
void expect_codec_identity(const std::string& codec_name,
                           const lcp::data::Field& field, double eb) {
  auto codec = lcp::compress::make_compressor(codec_name);
  ASSERT_TRUE(codec.has_value()) << codec_name;
  const auto bound = lcp::compress::ErrorBound::absolute(eb);

  std::vector<std::uint8_t> container_s;
  std::vector<std::uint8_t> container_v;
  {
    ScopedSimdLevel guard{SimdLevel::kScalar};
    auto result = (*codec)->compress(field, bound);
    ASSERT_TRUE(result.has_value()) << result.status().message();
    container_s = std::move(result->container);
  }
  {
    ScopedSimdLevel guard{SimdLevel::kAvx2};
    auto result = (*codec)->compress(field, bound);
    ASSERT_TRUE(result.has_value()) << result.status().message();
    container_v = std::move(result->container);
  }
  ASSERT_EQ(container_s, container_v)
      << codec_name << ": compressed bytes differ between dispatch levels";

  // Cross-decode: the scalar-built container through the AVX2 decoder and
  // vice versa, plus same-level, all bit-identical.
  std::vector<float> decoded_s;
  std::vector<float> decoded_v;
  {
    ScopedSimdLevel guard{SimdLevel::kScalar};
    auto result = (*codec)->decompress(container_v);
    ASSERT_TRUE(result.has_value()) << result.status().message();
    decoded_s.assign(result->field.values().begin(),
                     result->field.values().end());
  }
  {
    ScopedSimdLevel guard{SimdLevel::kAvx2};
    auto result = (*codec)->decompress(container_s);
    ASSERT_TRUE(result.has_value()) << result.status().message();
    decoded_v.assign(result->field.values().begin(),
                     result->field.values().end());
  }
  ASSERT_EQ(decoded_s.size(), decoded_v.size());
  ASSERT_EQ(std::memcmp(decoded_s.data(), decoded_v.data(),
                        decoded_s.size() * sizeof(float)),
            0)
      << codec_name << ": reconstructions differ between dispatch levels";
}

// Every registered codec x rank x bound, on extents chosen so rows are
// not multiples of the 8-lane group width (tail handling).
TEST(SimdIdentityTest, AllCodecsRanksAndBoundsBitIdentical) {
  SKIP_WITHOUT_AVX2();
  const std::vector<std::vector<std::size_t>> shapes = {
      {1013}, {37, 29}, {17, 13, 11}};
  unsigned seed = 1;
  for (const auto& name : lcp::compress::registered_codec_names()) {
    for (const auto& shape : shapes) {
      for (double eb : {1e-2, 1e-4}) {
        const auto field = make_field(shape, seed++);
        SCOPED_TRACE(name + " rank " + std::to_string(shape.size()) +
                     " eb " + std::to_string(eb));
        expect_codec_identity(name, field, eb);
      }
    }
  }
}

// A tiny field (smaller than one SIMD group) and an 8-multiple field.
TEST(SimdIdentityTest, DegenerateSizes) {
  SKIP_WITHOUT_AVX2();
  expect_codec_identity("sz", make_field({5}, 77), 1e-3);
  expect_codec_identity("sz", make_field({64}, 78), 1e-3);
  expect_codec_identity("sz2", make_field({8, 8, 8}, 79), 1e-3);
}

// Radii beyond kSimdMaxRadius legally fall back to the scalar path at
// either level; the containers must still match.
TEST(SimdIdentityTest, OversizedRadiusFallsBackIdentically) {
  SKIP_WITHOUT_AVX2();
  const auto field = make_field({23, 19}, 91);
  lcp::sz::SzOptions options;
  options.quantizer_radius = (1u << 20) + 1;
  const lcp::sz::SzCompressor codec{options};
  const auto bound = lcp::compress::ErrorBound::absolute(1e-3);
  std::vector<std::uint8_t> container_s;
  {
    ScopedSimdLevel guard{SimdLevel::kScalar};
    auto result = codec.compress(field, bound);
    ASSERT_TRUE(result.has_value());
    container_s = std::move(result->container);
  }
  ScopedSimdLevel guard{SimdLevel::kAvx2};
  auto result = codec.compress(field, bound);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(container_s, result->container);
  auto round = codec.decompress(container_s);
  ASSERT_TRUE(round.has_value());
}

// NaN and infinity never reach the codecs (validate_finite gates them)
// but the fused pipeline must still treat them identically at both
// levels: NaN and -inf saturate to the grid floor, +inf to the ceiling.
TEST(SimdIdentityTest, FusedPipelineHandlesNonFiniteIdentically) {
  SKIP_WITHOUT_AVX2();
  const std::vector<std::size_t> extents{13, 11};
  std::vector<float> values(13 * 11, 0.25F);
  values[5] = std::numeric_limits<float>::quiet_NaN();
  values[17] = std::numeric_limits<float>::infinity();
  values[31] = -std::numeric_limits<float>::infinity();
  values[47] = std::numeric_limits<float>::denorm_min();
  values[63] = -1e38F;
  const lcp::sz::LinearQuantizer quantizer{1e-3};

  std::vector<std::uint32_t> codes_s, exact_s, codes_v, exact_v;
  {
    ScopedSimdLevel guard{SimdLevel::kScalar};
    lcp::sz::predict_quantize_fused(values, extents,
                                    lcp::sz::SzPredictor::kFirstOrder,
                                    quantizer, codes_s, exact_s);
  }
  {
    ScopedSimdLevel guard{SimdLevel::kAvx2};
    lcp::sz::predict_quantize_fused(values, extents,
                                    lcp::sz::SzPredictor::kFirstOrder,
                                    quantizer, codes_v, exact_v);
  }
  EXPECT_EQ(codes_s, codes_v);
  EXPECT_EQ(exact_s, exact_v);
}

/// Symbols shaped like quantization codes: a two-sided geometric spread
/// around `center`.
std::vector<std::uint32_t> quantizer_shaped_symbols(std::size_t count,
                                                    unsigned seed,
                                                    std::uint32_t center =
                                                        32768) {
  lcp::Rng rng{seed};
  std::vector<std::uint32_t> symbols(count);
  for (auto& s : symbols) {
    std::int64_t delta = 0;
    while (delta < 300 && rng.uniform() < 0.9) {
      ++delta;
    }
    s = static_cast<std::uint32_t>(center + (rng.uniform() < 0.5 ? -delta
                                                                 : delta));
  }
  return symbols;
}

// The Huffman decoder has no dispatch; these suites hold it to the
// single-symbol reference decoder (huffman_reference.hpp) at every level
// the host reaches, so they run on scalar-only hosts too. Alphabet 65537
// is SZ's default quantizer alphabet, whose symbols pair in the decode
// table; (1 << 20) + 3 centres the symbols past 2^17, where the decoder
// keeps single-symbol entries.
constexpr std::uint32_t kPairedAlphabet = 65537;
constexpr std::uint32_t kWideAlphabet = (1U << 20) + 3;

/// Decodes `blob` with the library at both dispatch levels and with the
/// reference: every verdict must be the reference's, and every decode
/// that succeeds must return the reference's symbols.
void expect_matches_reference(const std::vector<std::uint8_t>& blob,
                              std::uint64_t max_count) {
  std::vector<std::uint32_t> expected;
  const bool ok_ref =
      lcp::sz::reference::huffman_decode_into(blob, max_count, expected)
          .is_ok();
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ScopedSimdLevel guard{level};
    SCOPED_TRACE(lcp::simd::simd_level_name(lcp::simd::simd_level()));
    std::vector<std::uint32_t> out;
    const bool ok =
        lcp::sz::huffman_decode_into(blob, max_count, out).is_ok();
    EXPECT_EQ(ok, ok_ref);
    if (ok && ok_ref) {
      EXPECT_EQ(out, expected);  // decoded garbage must at least agree
    }
  }
}

TEST(SimdIdentityTest, HuffmanRoundTripMatchesAcrossLevels) {
  for (std::uint32_t alphabet : {kPairedAlphabet, kWideAlphabet}) {
    SCOPED_TRACE("alphabet " + std::to_string(alphabet));
    const auto symbols = quantizer_shaped_symbols(50000, 5, alphabet / 2);
    std::vector<std::uint8_t> blob_s, blob_v;
    {
      ScopedSimdLevel guard{SimdLevel::kScalar};
      blob_s = lcp::sz::huffman_encode(symbols, alphabet);
    }
    {
      ScopedSimdLevel guard{SimdLevel::kAvx2};
      blob_v = lcp::sz::huffman_encode(symbols, alphabet);
    }
    ASSERT_EQ(blob_s, blob_v);

    std::vector<std::uint32_t> expected;
    ASSERT_TRUE(lcp::sz::reference::huffman_decode_into(
                    blob_s, symbols.size(), expected)
                    .is_ok());
    ASSERT_EQ(expected, symbols);
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel guard{level};
      auto decoded = lcp::sz::huffman_decode(blob_s, symbols.size());
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, symbols);
      std::vector<std::uint32_t> into;
      ASSERT_TRUE(
          lcp::sz::huffman_decode_into(blob_s, symbols.size(), into).is_ok());
      EXPECT_EQ(into, symbols);
    }
  }
}

// Fibonacci-weighted frequencies force code lengths past the 12-bit
// decode window, so the long-code search runs; results must still match
// the reference decoder symbol for symbol.
TEST(SimdIdentityTest, LongCodesDecodeIdentically) {
  constexpr std::size_t kSymbols = 28;
  std::vector<std::uint32_t> stream;
  std::uint64_t fa = 1;
  std::uint64_t fb = 1;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    for (std::uint64_t r = 0; r < fa && stream.size() < 200000; ++r) {
      stream.push_back(static_cast<std::uint32_t>(s));
    }
    const std::uint64_t next = fa + fb;
    fb = fa;
    fa = next;
  }
  // Interleave so rare (long-code) symbols appear throughout the stream.
  lcp::Rng rng{17};
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_u64() % i]);
  }
  // The same stream over a small alphabet (pairs) and shifted past 2^17
  // (single entries).
  for (std::uint32_t offset : {0U, kWideAlphabet / 2}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    std::vector<std::uint32_t> shifted = stream;
    for (auto& s : shifted) {
      s += offset;
    }
    const auto blob = lcp::sz::huffman_encode(
        shifted, offset == 0 ? static_cast<std::uint32_t>(kSymbols)
                             : kWideAlphabet);
    std::vector<std::uint32_t> expected;
    ASSERT_TRUE(lcp::sz::reference::huffman_decode_into(blob, shifted.size(),
                                                        expected)
                    .is_ok());
    EXPECT_EQ(expected, shifted);
    for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      ScopedSimdLevel guard{level};
      std::vector<std::uint32_t> decoded;
      ASSERT_TRUE(
          lcp::sz::huffman_decode_into(blob, shifted.size(), decoded).is_ok());
      EXPECT_EQ(decoded, shifted);
    }
  }
}

// Corrupt streams must draw the reference decoder's ok/error verdict at
// both levels: the wide-window decoder defers its overflow check but may
// not change the outcome.
TEST(SimdIdentityTest, CorruptStreamsSameVerdictAcrossLevels) {
  for (std::uint32_t alphabet : {kPairedAlphabet, kWideAlphabet}) {
    const auto symbols = quantizer_shaped_symbols(20000, 9, alphabet / 2);
    const auto blob = lcp::sz::huffman_encode(symbols, alphabet);
    std::vector<std::vector<std::uint8_t>> variants;
    variants.push_back(blob);
    variants.emplace_back(blob.begin(), blob.begin() + blob.size() / 2);
    variants.emplace_back(blob.begin(), blob.begin() + blob.size() - 3);
    {
      auto flipped = blob;
      for (std::size_t i = flipped.size() / 2; i < flipped.size(); i += 7) {
        flipped[i] ^= 0xFF;
      }
      variants.push_back(std::move(flipped));
    }
    for (std::size_t v = 0; v < variants.size(); ++v) {
      SCOPED_TRACE("alphabet " + std::to_string(alphabet) + " variant " +
                   std::to_string(v));
      expect_matches_reference(variants[v], symbols.size());
    }
  }
}

// The same verdict contract for slab- and field-sized streams, over damage
// to every part of the blob: truncation anywhere, single-byte flips,
// garbage payloads, wrong symbol counts and length tables turned over- or
// under-subscribed.
TEST(SimdIdentityTest, CorruptSizedStreamsSameVerdictAcrossLevels) {
  lcp::Rng rng{41};
  for (std::uint32_t alphabet : {kPairedAlphabet, kWideAlphabet}) {
    for (std::size_t count : {std::size_t{1} << 15, std::size_t{300000}}) {
      const auto symbols = quantizer_shaped_symbols(count, 13, alphabet / 2);
      const auto blob = lcp::sz::huffman_encode(symbols, alphabet);
      std::uint32_t runs = 0;
      std::memcpy(&runs, blob.data() + 12, sizeof(runs));
      const std::size_t table_end = 16 + 5 * std::size_t{runs};
      const std::size_t payload_start = table_end + 8;

      std::vector<std::vector<std::uint8_t>> variants;
      for (std::size_t cut = 0; cut < blob.size(); cut += blob.size() / 23) {
        variants.emplace_back(blob.begin(),
                              blob.begin() + static_cast<std::ptrdiff_t>(cut));
      }
      for (int k = 0; k < 16; ++k) {
        auto flipped = blob;
        flipped[rng.uniform_index(flipped.size())] ^= 0xFF;
        variants.push_back(std::move(flipped));
      }
      {
        auto garbage = blob;
        for (std::size_t i = payload_start; i < garbage.size(); ++i) {
          garbage[i] = static_cast<std::uint8_t>(rng.next_u64());
        }
        variants.push_back(std::move(garbage));
      }
      for (std::uint64_t claimed : {std::uint64_t{count} + 1,
                                    std::uint64_t{count} - 1,
                                    std::uint64_t{count} * 2}) {
        auto recounted = blob;
        std::memcpy(recounted.data() + 4, &claimed, sizeof(claimed));
        variants.push_back(std::move(recounted));
      }
      for (std::uint8_t len : {std::uint8_t{1}, std::uint8_t{20}}) {
        auto relengthed = blob;
        for (std::size_t r = 16; r < table_end; r += 5) {
          if (relengthed[r] != 0) {
            relengthed[r] = len;  // first code-bearing run
            break;
          }
        }
        variants.push_back(std::move(relengthed));
      }

      for (std::size_t v = 0; v < variants.size(); ++v) {
        SCOPED_TRACE("alphabet " + std::to_string(alphabet) + " count " +
                     std::to_string(count) + " variant " + std::to_string(v));
        expect_matches_reference(variants[v], 4 * count);
      }
    }
  }
}

TEST(SimdIdentityTest, ShuffleUnshuffleBitIdentical) {
  SKIP_WITHOUT_AVX2();
  for (std::size_t n : {std::size_t{1}, std::size_t{13}, std::size_t{4101}}) {
    SCOPED_TRACE(n);
    lcp::Rng rng{static_cast<unsigned>(n)};
    std::vector<float> values(n);
    for (auto& v : values) {
      v = static_cast<float>(rng.uniform() * 2000.0 - 1000.0);
    }
    values[0] = -0.0F;
    std::vector<std::uint8_t> planes_s(n * 4), planes_v(n * 4);
    std::vector<float> back_s(n), back_v(n);
    {
      ScopedSimdLevel guard{SimdLevel::kScalar};
      lcp::lossless::shuffle_bytes(values, planes_s);
      lcp::lossless::unshuffle_bytes(planes_s, back_s);
    }
    {
      ScopedSimdLevel guard{SimdLevel::kAvx2};
      lcp::lossless::shuffle_bytes(values, planes_v);
      lcp::lossless::unshuffle_bytes(planes_v, back_v);
    }
    EXPECT_EQ(planes_s, planes_v);
    EXPECT_EQ(std::memcmp(back_s.data(), back_v.data(), n * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(back_s.data(), values.data(), n * sizeof(float)),
              0);
  }
}

TEST(SimdIdentityTest, ZliteBytesIdenticalAcrossLevels) {
  SKIP_WITHOUT_AVX2();
  // Compressible input with runs and literals: shuffled smooth floats.
  const auto field = make_field({31, 27}, 55);
  std::vector<std::uint8_t> planes(field.element_count() * 4);
  lcp::lossless::shuffle_bytes(field.values(), planes);
  std::vector<std::uint8_t> packed_s, packed_v;
  {
    ScopedSimdLevel guard{SimdLevel::kScalar};
    packed_s = lcp::sz::zlite_compress(planes);
  }
  {
    ScopedSimdLevel guard{SimdLevel::kAvx2};
    packed_v = lcp::sz::zlite_compress(planes);
  }
  ASSERT_EQ(packed_s, packed_v);
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    ScopedSimdLevel guard{level};
    auto restored = lcp::sz::zlite_decompress(packed_s, planes.size());
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(*restored, planes);
  }
}

}  // namespace
