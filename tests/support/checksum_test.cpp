#include "support/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "support/dispatch.hpp"
#include "support/rng.hpp"

namespace lcp {
namespace {

using simd::ScopedSimdLevel;
using simd::SimdLevel;

std::vector<std::uint8_t> bytes_of(const char* s) {
  std::vector<std::uint8_t> out(std::strlen(s));
  std::memcpy(out.data(), s, out.size());
  return out;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / iSCSI check value.
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  // 32 bytes of zeros (iSCSI test pattern).
  std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // 32 bytes of 0xFF.
  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32cTest, EmptyInputIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1029);
  std::iota(data.begin(), data.end(), 0);
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{512}, data.size()}) {
    std::uint32_t state = kCrc32cInit;
    state = crc32c_update(state, std::span{data.data(), split});
    state = crc32c_update(
        state, std::span{data.data() + split, data.size() - split});
    EXPECT_EQ(crc32c_finish(state), whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsEverySingleBitFlipInAChunk) {
  std::vector<std::uint8_t> data(64);
  std::iota(data.begin(), data.end(), 100);
  const std::uint32_t clean = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto damaged = data;
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32c(damaged), clean) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Fnv1a64Test, KnownVectors) {
  // Reference values from the FNV specification.
  EXPECT_EQ(fnv1a64({}), kFnv1a64Init);
  EXPECT_EQ(fnv1a64(bytes_of("a")), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64(bytes_of("foobar")), 0x85944171F73967E8ull);
}

TEST(Fnv1a64Test, StreamingMatchesOneShot) {
  std::vector<std::uint8_t> data(777);
  std::iota(data.begin(), data.end(), 3);
  const std::uint64_t whole = fnv1a64(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                            data.size()}) {
    std::uint64_t state = kFnv1a64Init;
    state = fnv1a64_update(state, std::span{data.data(), split});
    state = fnv1a64_update(
        state, std::span{data.data() + split, data.size() - split});
    EXPECT_EQ(state, whole) << "split at " << split;
  }
}

TEST(Fnv1a64Test, SensitiveToOrderAndContent) {
  // The content-addressed store keys objects by this hash: swapped bytes
  // and single-bit flips must land on different names.
  EXPECT_NE(fnv1a64(bytes_of("ab")), fnv1a64(bytes_of("ba")));
  auto a = bytes_of("checkpoint-slab");
  auto b = a;
  b[4] ^= 0x01;
  EXPECT_NE(fnv1a64(a), fnv1a64(b));
}

// --- Dispatch identity ------------------------------------------------------
//
// Every case below runs once per dispatch level. At kAvx2 (on hosts and
// builds that reach it) CRC32C runs on the SSE4.2 instruction and
// fnv1a64_many on 8 AVX2 lanes; the values must equal the bit-at-a-time
// CRC32C below and the serial fnv1a64. At kScalar the same cases pin the
// portable twins, so the forced-scalar leg covers them too.

/// Bit-at-a-time CRC32C: the definition, independent of both kernels.
std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return out;
}

class ChecksumDispatchTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  ScopedSimdLevel guard_{GetParam()};
};

using Crc32cDispatchTest = ChecksumDispatchTest;
using Fnv1a64ManyTest = ChecksumDispatchTest;

std::uint32_t portable_crc32c(std::span<const std::uint8_t> data) {
  const ScopedSimdLevel scalar{SimdLevel::kScalar};
  return crc32c(data);
}

TEST_P(Crc32cDispatchTest, MatchesPortableAtEveryLength) {
  const auto data = seeded_bytes((std::size_t{64} << 10) + 7, 41);
  for (std::size_t n = 0; n <= 300; ++n) {
    const std::span<const std::uint8_t> head{data.data(), n};
    const std::uint32_t want = crc32c_bitwise(head);
    ASSERT_EQ(crc32c(head), want) << "length " << n;
    ASSERT_EQ(portable_crc32c(head), want) << "length " << n;
  }
  const std::uint32_t want = crc32c_bitwise(data);
  EXPECT_EQ(crc32c(data), want);
  EXPECT_EQ(portable_crc32c(data), want);
}

TEST_P(Crc32cDispatchTest, MatchesAtEveryStartOffset) {
  const auto data = seeded_bytes(1100, 42);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{9}, std::size_t{63},
                          std::size_t{1024} + 5}) {
      const std::span<const std::uint8_t> view{data.data() + offset, n};
      EXPECT_EQ(crc32c(view), crc32c_bitwise(view))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST_P(Crc32cDispatchTest, ChainedUpdatesMatchOneShot) {
  const auto data = seeded_bytes(5000, 43);
  const std::uint32_t whole = crc32c_bitwise(data);
  Rng rng{44};
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t state = kCrc32cInit;
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t take = std::min<std::size_t>(
          data.size() - at, rng.uniform_index(trial % 2 == 0 ? 17 : 700));
      state = crc32c_update(state, std::span{data.data() + at, take});
      at += take;
    }
    EXPECT_EQ(crc32c_finish(state), whole) << "trial " << trial;
  }
}

TEST_P(Crc32cDispatchTest, ThreeStreamLengthsMatchBitwise) {
  // Around the length where the AVX2 kernel switches to three chains, at
  // lengths that leave every tail shape after the lanes, and at lengths
  // that take several three-chain passes.
  const auto data = seeded_bytes((std::size_t{1} << 20) + 4099, 47);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1500; n <= 1600; ++n) {
    lengths.push_back(n);
  }
  for (std::size_t k = 9; k <= 14; ++k) {
    for (const std::size_t base :
         {std::size_t{3} << k, std::size_t{1} << (k + 2)}) {
      for (std::size_t d = 0; d < 10; ++d) {
        lengths.push_back(base - 5 + d);
      }
    }
  }
  lengths.push_back(data.size());
  for (const std::size_t n : lengths) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
      const std::span<const std::uint8_t> view{data.data() + offset,
                                               std::min(n, data.size() - offset)};
      ASSERT_EQ(crc32c(view), crc32c_bitwise(view))
          << "offset " << offset << " length " << view.size();
    }
  }
}

TEST_P(Crc32cDispatchTest, CombineMatchesConcatenation) {
  // crc32c_combine(crc(a), crc(b), |b|) == crc(a || b) over random splits,
  // empty parts and short parts at either end, for inputs of 0 to 8 bytes,
  // 4095 bytes and 1 Mi.
  const auto data = seeded_bytes(std::size_t{1} << 20, 48);
  Rng rng{49};
  std::vector<std::size_t> totals{0, 1, 2, 3, 4, 5, 6, 7, 8, 4095,
                                  std::size_t{1} << 20};
  for (const std::size_t total : totals) {
    const std::span<const std::uint8_t> whole{data.data(), total};
    const std::uint32_t want = crc32c_bitwise(whole);
    std::vector<std::size_t> splits{0, total};
    for (std::size_t k = 1; k <= 8 && k <= total; ++k) {
      splits.push_back(k);
      splits.push_back(total - k);
    }
    for (int r = 0; r < 8 && total > 0; ++r) {
      splits.push_back(rng.uniform_index(total + 1));
    }
    for (const std::size_t split : splits) {
      const auto a = whole.first(split);
      const auto b = whole.subspan(split);
      ASSERT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), want)
          << "total " << total << " split " << split;
      // Running states: the second part started from 0, not kCrc32cInit.
      const std::uint32_t state = crc32c_combine(
          crc32c_update(kCrc32cInit, a), crc32c_update(0, b), b.size());
      ASSERT_EQ(crc32c_finish(state), want)
          << "total " << total << " split " << split << " (states)";
    }
  }
}

TEST_P(Crc32cDispatchTest, CombineOverManyPartsMatchesOneShot) {
  // A whole-payload CRC folded chunk by chunk, as the frame walk does it.
  const auto data = seeded_bytes(70000, 50);
  Rng rng{51};
  std::uint32_t folded = crc32c({});
  std::size_t at = 0;
  while (at < data.size()) {
    const std::size_t take =
        std::min(data.size() - at, rng.uniform_index(9000));
    const std::span<const std::uint8_t> part{data.data() + at, take};
    folded = crc32c_combine(folded, crc32c(part), take);
    at += take;
  }
  EXPECT_EQ(folded, crc32c_bitwise(data));
}

TEST(Crc32cCombineTest, LengthsAddAcrossEveryDigit) {
  // Appending m zero-CRC bytes and then n equals appending m + n, for
  // lengths whose base-256 digits reach every power table row; and an
  // empty second part leaves the first CRC as it is.
  const std::uint32_t crc = 0x1234ABCDu;
  EXPECT_EQ(crc32c_combine(crc, 0, 0), crc);
  Rng rng{52};
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t m = rng.next_u64() >> (trial % 64);
    const std::uint64_t n = rng.next_u64() >> ((trial * 7) % 64);
    if (m > UINT64_MAX - n) {
      continue;
    }
    EXPECT_EQ(crc32c_combine(crc32c_combine(crc, 0, m), 0, n),
              crc32c_combine(crc, 0, m + n))
        << "m " << m << " n " << n;
  }
  // x^(8 * 2^61) * x^(8 * 2^61): the top digit rows compose too.
  const std::uint64_t half = std::uint64_t{1} << 61;
  EXPECT_EQ(crc32c_combine(crc32c_combine(crc, 0, half), 0, half),
            crc32c_combine(crc, 0, 2 * half));
}

/// fnv1a64_many over `inputs` against the serial fnv1a64 of each.
void expect_many_matches_serial(
    const std::vector<std::vector<std::uint8_t>>& inputs) {
  std::vector<std::span<const std::uint8_t>> views(inputs.begin(),
                                                   inputs.end());
  std::vector<std::uint64_t> got(inputs.size(), 0);
  fnv1a64_many(views, got);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(got[i], fnv1a64(inputs[i]))
        << "input " << i << " of " << inputs.size() << ", length "
        << inputs[i].size();
  }
}

TEST_P(Fnv1a64ManyTest, EqualLengthsForEveryCount) {
  for (std::size_t count = 0; count <= 17; ++count) {
    SCOPED_TRACE("count " + std::to_string(count));
    std::vector<std::vector<std::uint8_t>> inputs;
    for (std::size_t i = 0; i < count; ++i) {
      inputs.push_back(seeded_bytes(203, 100 + i));
    }
    expect_many_matches_serial(inputs);
  }
}

TEST_P(Fnv1a64ManyTest, RaggedLastInput) {
  for (std::size_t count : {std::size_t{8}, std::size_t{9}, std::size_t{16}}) {
    SCOPED_TRACE("count " + std::to_string(count));
    std::vector<std::vector<std::uint8_t>> inputs;
    for (std::size_t i = 0; i < count; ++i) {
      inputs.push_back(seeded_bytes(i + 1 == count ? 77 : 512, 200 + i));
    }
    expect_many_matches_serial(inputs);
  }
}

TEST_P(Fnv1a64ManyTest, StaggeredLengthsInOneGroup) {
  // Lanes run out one by one: used-up lanes ride on a live lane's bytes
  // until fewer than half are live, then the rest finish serially.
  for (const auto& lengths : {std::vector<std::size_t>{0, 5, 100, 200, 300,
                                                       400, 500, 600},
                              std::vector<std::size_t>{900, 7, 900, 64, 900,
                                                       900, 1, 900},
                              std::vector<std::size_t>{3, 3, 3, 4096, 3, 3,
                                                       4096, 3}}) {
    std::vector<std::vector<std::uint8_t>> inputs;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      inputs.push_back(seeded_bytes(lengths[i], 500 + i));
    }
    expect_many_matches_serial(inputs);
  }
}

TEST_P(Fnv1a64ManyTest, MixedLengthsEmptyAndShortInputs) {
  Rng rng{45};
  std::vector<std::vector<std::uint8_t>> inputs;
  for (std::size_t i = 0; i < 41; ++i) {
    std::size_t n = rng.uniform_index(300);
    if (i % 5 == 0) {
      n = 0;  // empty span
    } else if (i % 3 == 0) {
      n = rng.uniform_index(8);  // shorter than one 8-byte word
    }
    inputs.push_back(seeded_bytes(n, 300 + i));
  }
  expect_many_matches_serial(inputs);

  // All-short and all-empty groups of 8.
  std::vector<std::vector<std::uint8_t>> short_inputs;
  for (std::size_t i = 0; i < 8; ++i) {
    short_inputs.push_back(seeded_bytes(i % 8, 400 + i));
  }
  expect_many_matches_serial(short_inputs);
  expect_many_matches_serial(std::vector<std::vector<std::uint8_t>>(8));
}

TEST_P(Fnv1a64ManyTest, UnalignedViewsOfOneBuffer) {
  // Slab views into one field start at arbitrary byte offsets.
  const auto buffer = seeded_bytes(4096, 46);
  std::vector<std::span<const std::uint8_t>> views;
  for (std::size_t i = 0; i < 12; ++i) {
    views.emplace_back(buffer.data() + i * 301 + i % 8, 290);
  }
  std::vector<std::uint64_t> got(views.size());
  fnv1a64_many(views, got);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(got[i], fnv1a64(views[i])) << "view " << i;
  }
}

std::string level_name(const ::testing::TestParamInfo<SimdLevel>& info) {
  return simd::simd_level_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Levels, Crc32cDispatchTest,
                         ::testing::Values(SimdLevel::kScalar,
                                           SimdLevel::kAvx2),
                         level_name);
INSTANTIATE_TEST_SUITE_P(Levels, Fnv1a64ManyTest,
                         ::testing::Values(SimdLevel::kScalar,
                                           SimdLevel::kAvx2),
                         level_name);

}  // namespace
}  // namespace lcp
