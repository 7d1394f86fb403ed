#include "support/checksum.hpp"

#include <algorithm>
#include <array>

#include "support/dispatch.hpp"
#include "support/status.hpp"

#if defined(LCP_HAVE_AVX2_BUILD)
#include "support/checksum_avx2.hpp"
#endif

namespace lcp {
namespace {

// Reflected CRC32C polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

// Slice-by-4 tables: table[0] is the classic byte-at-a-time table, tables
// 1..3 advance a byte by 1..3 extra zero bytes, letting the hot loop fold
// a 32-bit word per iteration.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
};

constexpr Tables build_tables() {
  Tables tables;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (std::size_t k = 1; k < 4; ++k) {
      crc = tables.t[0][crc & 0xFFu] ^ (crc >> 8);
      tables.t[k][i] = crc;
    }
  }
  return tables;
}

constexpr Tables kTables = build_tables();

// Polynomials over GF(2) modulo the CRC polynomial, in the CRC's reflected
// bit order: bit 31 is the coefficient of x^0, bit 0 that of x^31.
constexpr std::uint32_t kOne = 0x80000000u;  // x^0

/// v * x^32 modulo the polynomial: what four zero bytes do to a CRC state.
constexpr std::uint32_t times_x32(std::uint32_t v) noexcept {
  return kTables.t[3][v & 0xFFu] ^ kTables.t[2][(v >> 8) & 0xFFu] ^
         kTables.t[1][(v >> 16) & 0xFFu] ^ kTables.t[0][v >> 24];
}

/// a * b modulo the polynomial. The carry-less 32x32 product, built four
/// bits of `a` at a time from a table of b * {0..15}, puts x^k at bit
/// 62 - k; after one more shift its high word holds x^0..x^31 and its low
/// word x^32..x^62, both reflected, and the low word is folded back with
/// one x^32 step.
constexpr std::uint32_t multiply_mod(std::uint32_t a, std::uint32_t b) noexcept {
  std::array<std::uint64_t, 16> b_times{};
  for (std::size_t j = 1; j < b_times.size(); ++j) {
    b_times[j] = (j & 1u) != 0 ? b_times[j - 1] ^ b : b_times[j / 2] << 1;
  }
  std::uint64_t product = 0;
  for (int i = 0; i < 32; i += 4) {
    product ^= b_times[(a >> i) & 0xFu] << i;
  }
  product <<= 1;
  return static_cast<std::uint32_t>(product >> 32) ^
         times_x32(static_cast<std::uint32_t>(product));
}

/// kZeroBytes[d][v] = x^(8 * v * 256^d) modulo the polynomial: appending
/// v * 256^d zero bytes to a CRC state multiplies it by this. Row d starts
/// from x^(8 * 256^d), the previous row's step raised to the 256th power.
constexpr auto kZeroBytes = [] {
  std::array<std::array<std::uint32_t, 256>, 8> powers{};
  std::uint32_t step = kOne >> 8;  // x^8
  for (auto& row : powers) {
    row[0] = kOne;
    for (std::size_t v = 1; v < row.size(); ++v) {
      row[v] = multiply_mod(row[v - 1], step);
    }
    step = multiply_mod(row[255], step);
  }
  return powers;
}();

}  // namespace

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b) noexcept {
  // crc_a * x^(8 * len_b), one multiplication per non-zero base-256 digit
  // of len_b.
  for (std::size_t digit = 0; len_b != 0; ++digit, len_b >>= 8) {
    if ((len_b & 0xFFu) != 0) {
      crc_a = multiply_mod(crc_a, kZeroBytes[digit][len_b & 0xFFu]);
    }
  }
  return crc_a ^ crc_b;
}

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::uint8_t> data) noexcept {
#if defined(LCP_HAVE_AVX2_BUILD)
  if (simd::simd_level() >= simd::SimdLevel::kAvx2) {
    return simd::avx2::crc32c_update(state, data.data(), data.size());
  }
#endif
  std::uint32_t crc = state;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = kTables.t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    ++p;
    --n;
  }
  return crc;
}

std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return crc32c_finish(crc32c_update(kCrc32cInit, data));
}

std::uint64_t fnv1a64_update(std::uint64_t state,
                             std::span<const std::uint8_t> data) noexcept {
  constexpr std::uint64_t kPrime = 0x00000100000001B3ull;
  std::uint64_t h = state;
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= kPrime;
  }
  return h;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept {
  return fnv1a64_update(kFnv1a64Init, data);
}

void fnv1a64_many(std::span<const std::span<const std::uint8_t>> inputs,
                  std::span<std::uint64_t> out) noexcept {
  LCP_REQUIRE(out.size() == inputs.size(),
              "fnv1a64_many needs one output per input");
  std::size_t i = 0;
#if defined(LCP_HAVE_AVX2_BUILD)
  if (simd::simd_level() >= simd::SimdLevel::kAvx2) {
    // One 8-lane step costs about three serial byte steps, so lanes run
    // while at least half of them still have bytes; an exhausted lane
    // rides along on another lane's bytes and its result is dropped.
    constexpr std::size_t kMinLiveLanes = 4;
    for (; i + 8 <= inputs.size(); i += 8) {
      const auto group = inputs.subspan(i, 8);
      std::uint64_t state[8] = {};
      std::size_t done[8] = {};
      for (std::size_t k = 0; k < 8; ++k) {
        state[k] = kFnv1a64Init;
      }
      for (;;) {
        std::size_t live = 0;
        std::size_t step = 0;
        std::size_t lead = 0;
        for (std::size_t k = 0; k < 8; ++k) {
          const std::size_t left = group[k].size() - done[k];
          if (left > 0) {
            step = live == 0 ? left : std::min(step, left);
            lead = k;
            ++live;
          }
        }
        if (live < kMinLiveLanes) {
          break;
        }
        const std::uint8_t* lanes[8] = {};
        std::uint64_t lane_state[8] = {};
        for (std::size_t k = 0; k < 8; ++k) {
          const bool running = done[k] < group[k].size();
          const std::size_t src = running ? k : lead;
          lanes[k] = group[src].data() + done[src];
          lane_state[k] = state[k];
        }
        simd::avx2::fnv1a64_update_x8(lanes, step, lane_state);
        for (std::size_t k = 0; k < 8; ++k) {
          if (done[k] < group[k].size()) {
            state[k] = lane_state[k];
            done[k] += step;
          }
        }
      }
      for (std::size_t k = 0; k < 8; ++k) {
        out[i + k] = fnv1a64_update(state[k], group[k].subspan(done[k]));
      }
    }
  }
#endif
  for (; i < inputs.size(); ++i) {
    out[i] = fnv1a64(inputs[i]);
  }
}

}  // namespace lcp
