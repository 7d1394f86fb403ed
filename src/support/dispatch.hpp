#pragma once
// SIMD dispatch for the hot kernels: the codec kernels (SZ
// prequant/Lorenzo, byte shuffle, zlite) and the integrity checksums
// (SSE4.2 CRC32C, 8-lane FNV-1a; support/checksum.hpp).
//
// Resolution order: the level is kAvx2 only when (a) the AVX2 translation
// units were compiled into this binary (x86-64 build with a -mavx2-capable
// compiler), (b) the host CPU reports AVX2 and SSE4.2, and (c)
// LCP_FORCE_SCALAR is not set. Each kernel entry point queries simd_level()
// once per pass and then runs a straight-line loop — no per-element
// dispatch.
//
// Every vector kernel has a scalar twin producing bit-identical bytes:
// the quantization grid, quantization codes, exact-value side stream,
// shuffled planes and checksums are all equal under either level, so
// framing/checkpoint/replica invariants never depend on the host's
// instruction set. simd_identity_test pins this across codec x
// rank x bound x size; checksum_test pins the checksums.

#include <cstdint>

namespace lcp::simd {

/// Dispatch levels, ordered: a level implies all lower ones.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// The level kernels run at right now (build gate, cpuid, LCP_FORCE_SCALAR
/// and any active ScopedSimdLevel override combined). Cheap: one relaxed
/// atomic load after first resolution.
[[nodiscard]] SimdLevel simd_level() noexcept;

/// The level the build + host support, ignoring overrides (but honouring
/// LCP_FORCE_SCALAR). What ScopedSimdLevel requests are clamped to.
[[nodiscard]] SimdLevel hardware_simd_level() noexcept;

/// "scalar" / "avx2" — stable strings used by bench JSON keys.
[[nodiscard]] const char* simd_level_name(SimdLevel level) noexcept;

/// RAII override for tests and benches: forces dispatch down to `level`
/// (requests above hardware_simd_level() are clamped, so asking for kAvx2
/// on a scalar-only host/build is a safe no-op). Restores the previous
/// override on destruction; nestable. Affects the whole process.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) noexcept;
  ~ScopedSimdLevel();

  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  int previous_;
};

}  // namespace lcp::simd
