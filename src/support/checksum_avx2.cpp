// AVX2 checksum kernels. Built with -mavx2 (which implies the SSE4.2
// `crc32` instruction) and executed only when simd::simd_level() resolved
// to kAvx2, which also requires the SSE4.2 cpuid bit.
//
// FNV-1a 64 multiplies by the prime 2^40 + 435. AVX2 has no 64x64-bit
// lane multiply, but with h = hi * 2^32 + lo (mod 2^64):
//   h * (2^40 + 435) = (h << 40) + lo * 435 + ((hi * 435) << 32),
// where both 32x32 -> 64-bit products come from _mm256_mul_epu32. Every
// term is exact mod 2^64, so each lane equals the serial hash.

#include "support/checksum_avx2.hpp"

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "support/checksum.hpp"

namespace lcp::simd::avx2 {
namespace {

/// Inputs at least this long run three CRC32C chains; below it the two
/// joins cost more than the chains save. Each lane is then at least 512
/// bytes, a multiple of the 8-byte word.
constexpr std::size_t kThreeStreamMinBytes = 1536;

inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// 4 lanes of the little-endian 64-bit word at offset j of each input.
inline __m256i load_lanes(const std::uint8_t* const* p,
                          std::size_t j) noexcept {
  return _mm256_set_epi64x(
      static_cast<long long>(load_u64(p[3] + j)),
      static_cast<long long>(load_u64(p[2] + j)),
      static_cast<long long>(load_u64(p[1] + j)),
      static_cast<long long>(load_u64(p[0] + j)));
}

/// One FNV-1a step on 4 lanes: h = (h ^ byte) * (2^40 + 435). The byte
/// only touches the low word, so the high-word product is taken from h
/// before the xor and the lanes' critical path is xor, one multiply, add.
inline __m256i fnv_step(__m256i h, __m256i byte) noexcept {
  const __m256i k435 = _mm256_set1_epi64x(435);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), k435);
  h = _mm256_xor_si256(h, byte);
  const __m256i lo = _mm256_mul_epu32(h, k435);
  const __m256i rest =
      _mm256_add_epi64(_mm256_slli_epi64(h, 40), _mm256_slli_epi64(hi, 32));
  return _mm256_add_epi64(lo, rest);
}

}  // namespace

std::uint32_t crc32c_update(std::uint32_t state, const std::uint8_t* data,
                            std::size_t n) noexcept {
  // `crc32` has a 3-cycle latency and a throughput of one per cycle, so
  // one dependency chain runs at a third of the port's rate. Long inputs
  // run three chains over three equal lanes, the second and third started
  // from 0 and joined with crc32c_combine. Lanes are a power of two long,
  // which makes each join one multiplication; every pass takes at least
  // half of what is left.
  while (n >= kThreeStreamMinBytes) {
    const std::size_t lane = std::bit_floor(n / 3);
    const std::uint8_t* p1 = data + lane;
    const std::uint8_t* p2 = p1 + lane;
    std::uint64_t c0 = state;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < lane; i += 8) {
      c0 = _mm_crc32_u64(c0, load_u64(data + i));
      c1 = _mm_crc32_u64(c1, load_u64(p1 + i));
      c2 = _mm_crc32_u64(c2, load_u64(p2 + i));
    }
    state = crc32c_combine(
        crc32c_combine(static_cast<std::uint32_t>(c0),
                       static_cast<std::uint32_t>(c1), lane),
        static_cast<std::uint32_t>(c2), lane);
    data += 3 * lane;
    n -= 3 * lane;
  }
  std::uint64_t crc = state;
  for (; n >= 8; data += 8, n -= 8) {
    crc = _mm_crc32_u64(crc, load_u64(data));
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, *data);
  }
  return crc32;
}

void fnv1a64_update_x8(const std::uint8_t* const* data, std::size_t n,
                       std::uint64_t* state) noexcept {
  const __m256i low_byte = _mm256_set1_epi64x(0xFF);
  __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state));
  __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 4));
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i wa = load_lanes(data, j);
    __m256i wb = load_lanes(data + 4, j);
    for (int k = 0; k < 8; ++k) {
      a = fnv_step(a, _mm256_and_si256(wa, low_byte));
      b = fnv_step(b, _mm256_and_si256(wb, low_byte));
      wa = _mm256_srli_epi64(wa, 8);
      wb = _mm256_srli_epi64(wb, 8);
    }
  }
  for (; j < n; ++j) {
    a = fnv_step(a, _mm256_set_epi64x(data[3][j], data[2][j], data[1][j],
                                      data[0][j]));
    b = fnv_step(b, _mm256_set_epi64x(data[7][j], data[6][j], data[5][j],
                                      data[4][j]));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state), a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 4), b);
}

}  // namespace lcp::simd::avx2
