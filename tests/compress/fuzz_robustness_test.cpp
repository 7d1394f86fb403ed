// Failure injection: decoders must never crash, hang, or allocate absurd
// memory on corrupt input — every byte of a valid container gets flipped,
// truncated streams of every length are fed in, and random garbage is
// routed through decompress_any. Decoders may either fail cleanly or
// (when a flip lands in a don't-care byte) succeed; what they may not do
// is violate memory safety or return a mis-sized field. Every input whose
// container header parses is also decoded straight into a span of the
// header's size, which must give the allocating decode's verdict and, on
// success, its values bit for bit.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "compress/common/container.hpp"
#include "compress/common/registry.hpp"
#include "data/generators.hpp"
#include "support/rng.hpp"

namespace lcp::compress {
namespace {

std::vector<std::uint8_t> small_container(CodecId id) {
  const auto field = data::generate_cesm_atm(2, 8, 12, 3);
  const auto codec = make_compressor(id);
  auto compressed = codec->compress(field, ErrorBound::absolute(1e-2));
  EXPECT_TRUE(compressed.has_value());
  return compressed->container;
}

/// When `bytes` has a container header that parses, decodes it with
/// `into` into a span of the header's element count and checks the
/// verdict (status text included) and values against `whole`. The span is
/// not zero-filled, so a hostile claim costs only the pages the decoder
/// writes.
template <typename Whole, typename Into>
void expect_into_agrees(std::span<const std::uint8_t> bytes, Whole&& whole,
                        Into&& into, const std::string& label) {
  const auto header = parse_container(bytes);
  if (!header) {
    return;
  }
  const auto want = whole(bytes);
  const std::size_t n = header->dims.element_count();
  const auto buf = std::make_unique_for_overwrite<float[]>(n);
  const Status got = into(bytes, std::span<float>{buf.get(), n});
  ASSERT_EQ(got.is_ok(), want.has_value()) << label << ": " << got.to_string();
  if (!want) {
    EXPECT_EQ(got.to_string(), want.status().to_string()) << label;
    return;
  }
  ASSERT_EQ(want->field.element_count(), n) << label;
  EXPECT_EQ(std::memcmp(buf.get(), want->field.values().data(),
                        n * sizeof(float)),
            0)
      << label;
}

/// expect_into_agrees for one codec's decompress and decompress_into.
void expect_codec_into_agrees(const Compressor& codec,
                              std::span<const std::uint8_t> bytes,
                              const std::string& label) {
  expect_into_agrees(
      bytes, [&](auto b) { return codec.decompress(b); },
      [&](auto b, std::span<float> out) {
        return codec.decompress_into(b, out);
      },
      label);
}

/// expect_into_agrees for decompress_any and decompress_any_into.
void expect_any_into_agrees(std::span<const std::uint8_t> bytes,
                            const std::string& label) {
  expect_into_agrees(
      bytes, [](auto b) { return decompress_any(b); },
      [](auto b, std::span<float> out) { return decompress_any_into(b, out); },
      label);
}

class FuzzRobustnessTest : public ::testing::TestWithParam<CodecId> {};

TEST_P(FuzzRobustnessTest, EveryeSingleByteFlipIsHandled) {
  const auto codec = make_compressor(GetParam());
  const auto baseline = small_container(GetParam());
  const std::size_t expected_elements = 2 * 8 * 12;

  for (std::size_t i = 0; i < baseline.size(); ++i) {
    auto mutated = baseline;
    mutated[i] ^= 0xFF;
    const auto decoded = codec->decompress(mutated);
    if (decoded.has_value()) {
      // A successful decode must still be structurally sane.
      EXPECT_LE(decoded->field.element_count(), 4u * expected_elements) << i;
    }
    expect_codec_into_agrees(*codec, mutated, "flip " + std::to_string(i));
    expect_any_into_agrees(mutated, "any, flip " + std::to_string(i));
  }
}

TEST_P(FuzzRobustnessTest, EveryTruncationLengthIsHandled) {
  const auto codec = make_compressor(GetParam());
  const auto baseline = small_container(GetParam());
  // Sample lengths densely at the front (headers) and sparsely after.
  for (std::size_t len = 0; len < baseline.size();
       len += (len < 64 ? 1 : 37)) {
    std::vector<std::uint8_t> cut(baseline.begin(),
                                  baseline.begin() + static_cast<std::ptrdiff_t>(len));
    const auto decoded = codec->decompress(cut);
    EXPECT_FALSE(decoded.has_value()) << "truncation to " << len
                                      << " bytes decoded successfully";
    expect_codec_into_agrees(*codec, cut, "cut " + std::to_string(len));
  }
}

TEST_P(FuzzRobustnessTest, RandomGarbageNeverCrashes) {
  const auto codec = make_compressor(GetParam());
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 99};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_index(500));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    (void)codec->decompress(garbage);  // must simply return
    expect_codec_into_agrees(*codec, garbage,
                             "garbage " + std::to_string(trial));
  }
}

TEST_P(FuzzRobustnessTest, ValidHeaderCorruptPayloadIsHandled) {
  const auto codec = make_compressor(GetParam());
  auto container = small_container(GetParam());
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 7};
  // Scramble the back half (payload) while keeping the container header.
  for (int trial = 0; trial < 50; ++trial) {
    auto mutated = container;
    for (std::size_t i = mutated.size() / 2; i < mutated.size(); ++i) {
      if (rng.uniform() < 0.2) {
        mutated[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
    }
    (void)codec->decompress(mutated);
    expect_codec_into_agrees(*codec, mutated,
                             "scrambled " + std::to_string(trial));
    expect_any_into_agrees(mutated, "any, scrambled " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(BothCodecs, FuzzRobustnessTest,
                         ::testing::Values(CodecId::kSz, CodecId::kZfp),
                         [](const auto& suite_info) {
                           return std::string{codec_name(suite_info.param)};
                         });

TEST(FuzzRobustnessTest, DecompressAnyOnRandomInput) {
  Rng rng{2024};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform_index(300));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    EXPECT_FALSE(decompress_any(garbage).has_value());
    expect_any_into_agrees(garbage, "garbage " + std::to_string(trial));
  }
}

TEST(FuzzRobustnessTest, DecompressAnyWithSpoofedCodecName) {
  // A container claiming an unknown codec must be rejected by routing.
  const auto field = data::generate_nyx(8, 4);
  const auto codec = make_compressor(CodecId::kSz);
  auto compressed = codec->compress(field, ErrorBound::absolute(1e-2));
  ASSERT_TRUE(compressed.has_value());
  auto bytes = compressed->container;
  // The codec name "sz" sits right after magic(4)+version(1)+len(4).
  ASSERT_EQ(bytes[9], 's');
  ASSERT_EQ(bytes[10], 'z');
  bytes[9] = 'q';
  EXPECT_FALSE(decompress_any(bytes).has_value());
  expect_any_into_agrees(bytes, "spoofed codec");
}

}  // namespace
}  // namespace lcp::compress
