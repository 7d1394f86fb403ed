#pragma once
// Declarations for the AVX2 checksum translation unit
// (support/checksum_avx2.cpp, compiled with -mavx2). Intrinsic-free like
// compress/simd/avx2_kernels.hpp: call sites guard with
// #if defined(LCP_HAVE_AVX2_BUILD) and gate on simd::simd_level(). The
// portable twins live in support/checksum.cpp and give the same values.

#include <cstddef>
#include <cstdint>

namespace lcp::simd::avx2 {

/// Feeds n bytes into a running (un-finished) CRC32C state with the
/// SSE4.2 `crc32` instruction: three interleaved chains joined with
/// crc32c_combine while the input is long, then 8-byte words on one chain,
/// then a byte tail.
[[nodiscard]] std::uint32_t crc32c_update(std::uint32_t state,
                                          const std::uint8_t* data,
                                          std::size_t n) noexcept;

/// Feeds the first n bytes of each of the 8 inputs into state[0..8), one
/// FNV-1a 64 lane per input. Each data[i] must hold at least n bytes.
void fnv1a64_update_x8(const std::uint8_t* const* data, std::size_t n,
                       std::uint64_t* state) noexcept;

}  // namespace lcp::simd::avx2
