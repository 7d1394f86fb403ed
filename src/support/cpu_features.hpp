#pragma once
// Runtime CPU feature detection for the SIMD kernel dispatch layer
// (support/dispatch.hpp). Each query runs once per process and is
// cached; they are the raw inputs the dispatcher combines with the build
// gate (was the AVX2 translation unit compiled at all?) to pick a level.

namespace lcp {

/// True when the host CPU executes AVX2 instructions. Always false on
/// non-x86 builds.
[[nodiscard]] bool cpu_supports_avx2() noexcept;

/// True when the host CPU executes the SSE4.2 `crc32` instruction the
/// hardware CRC32C kernel uses. Always false on non-x86 builds.
[[nodiscard]] bool cpu_supports_sse42() noexcept;

/// True when the LCP_FORCE_SCALAR environment variable requests scalar
/// dispatch ("1", "true", "yes", "on"; case-insensitive). The escape hatch
/// CI's forced-scalar leg and field debugging rely on: every kernel falls
/// back to its bit-identical scalar path.
[[nodiscard]] bool force_scalar_requested() noexcept;

}  // namespace lcp
