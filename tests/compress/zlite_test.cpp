#include "compress/sz/zlite.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace lcp::sz {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

void expect_round_trip(const std::vector<std::uint8_t>& input) {
  const auto compressed = zlite_compress(input);
  const auto decompressed = zlite_decompress(compressed);
  ASSERT_TRUE(decompressed.has_value()) << decompressed.status().to_string();
  EXPECT_EQ(*decompressed, input);
}

TEST(ZliteTest, EmptyInput) { expect_round_trip({}); }

TEST(ZliteTest, ShortInputBelowMinMatch) { expect_round_trip({1, 2, 3}); }

TEST(ZliteTest, RepetitiveTextCompresses) {
  std::string s;
  for (int i = 0; i < 200; ++i) {
    s += "lossy compression saves energy. ";
  }
  const auto input = bytes_of(s);
  const auto compressed = zlite_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 5);
  expect_round_trip(input);
}

TEST(ZliteTest, AllZerosCompressAndRestore) {
  expect_round_trip(std::vector<std::uint8_t>(10000, 0));
}

TEST(ZliteTest, OverlappingMatchRle) {
  // "aaaa..." forces dist=1 matches with len > dist (overlap copy path).
  expect_round_trip(std::vector<std::uint8_t>(500, 'a'));
}

TEST(ZliteTest, IncompressibleRandomRoundTripsWithBoundedOverhead) {
  Rng rng{3};
  std::vector<std::uint8_t> input(8192);
  for (auto& b : input) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const auto compressed = zlite_compress(input);
  EXPECT_LT(compressed.size(), input.size() + 64);
  expect_round_trip(input);
}

TEST(ZliteTest, RandomizedStructuredProperty) {
  Rng rng{9};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint8_t> input;
    const int chunks = 1 + static_cast<int>(rng.uniform_index(20));
    for (int c = 0; c < chunks; ++c) {
      if (rng.uniform() < 0.5 && !input.empty()) {
        // Repeat an earlier slice (creates matches at varied distances).
        const std::size_t start = rng.uniform_index(input.size());
        const std::size_t len =
            std::min<std::size_t>(input.size() - start,
                                  rng.uniform_index(300));
        std::vector<std::uint8_t> slice(input.begin() + static_cast<std::ptrdiff_t>(start),
                                        input.begin() + static_cast<std::ptrdiff_t>(start + len));
        input.insert(input.end(), slice.begin(), slice.end());
      } else {
        const std::size_t len = rng.uniform_index(300);
        for (std::size_t i = 0; i < len; ++i) {
          input.push_back(static_cast<std::uint8_t>(rng.uniform_index(7)));
        }
      }
    }
    expect_round_trip(input);
  }
}

TEST(ZliteTest, DecompressRejectsTruncation) {
  const auto compressed =
      zlite_compress(std::vector<std::uint8_t>(1000, 'x'));
  ASSERT_GT(compressed.size(), 3u);
  // A copy of all but the last 3 bytes: unlike resize(size - 3), the
  // bound is visible to the compiler, which otherwise warns that the size
  // might wrap (-Wstringop-overflow under the sanitizer build).
  const std::vector<std::uint8_t> truncated(compressed.begin(),
                                            compressed.end() - 3);
  ASSERT_EQ(truncated.size() + 3, compressed.size());
  EXPECT_FALSE(zlite_decompress(truncated).has_value());
}

TEST(ZliteTest, DecompressRejectsOversizedDeclaration) {
  const auto compressed = zlite_compress(std::vector<std::uint8_t>(100, 'x'));
  EXPECT_FALSE(zlite_decompress(compressed, 50).has_value());
}

TEST(ZliteTest, DecompressRejectsEmptyBlob) {
  EXPECT_FALSE(zlite_decompress({}).has_value());
}

TEST(ZliteTest, DecompressRejectsBadDistance) {
  // Hand-craft: size=4, literal_len=0, match_len=4, dist=9 (> produced).
  const std::vector<std::uint8_t> bad = {4, 0, 4, 9};
  EXPECT_FALSE(zlite_decompress(bad).has_value());
}

TEST(ZliteTest, HostileVarintLengthsCannotWrapBoundsChecks) {
  // Regression: literal_len near 2^64 used to wrap `pos + literal_len`
  // and `out.size() + match_len` past both bounds checks, producing an
  // out-of-bounds insert. All-0xFF varints decode to huge values.
  const std::uint8_t huge[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                               0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  // size=5, literal_len=huge.
  std::vector<std::uint8_t> bad = {5};
  bad.insert(bad.end(), std::begin(huge), std::end(huge));
  bad.insert(bad.end(), {1, 2, 3, 4, 5});
  EXPECT_FALSE(zlite_decompress(bad).has_value());

  // size=5, 5 literals, then match_len=huge with dist=1.
  std::vector<std::uint8_t> bad2 = {5, 5, 1, 2, 3, 4, 5};
  bad2.insert(bad2.end(), std::begin(huge), std::end(huge));
  bad2.push_back(1);
  EXPECT_FALSE(zlite_decompress(bad2).has_value());
}

}  // namespace
}  // namespace lcp::sz
