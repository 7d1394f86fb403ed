#include "support/dispatch.hpp"

#include <algorithm>
#include <atomic>

#include "support/cpu_features.hpp"

namespace lcp::simd {
namespace {

/// -1 = no override; otherwise the raw SimdLevel value requested.
std::atomic<int> g_override{-1};

SimdLevel resolve_hardware() noexcept {
#if defined(LCP_HAVE_AVX2_BUILD)
  if (cpu_supports_avx2() && cpu_supports_sse42() &&
      !force_scalar_requested()) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

}  // namespace

SimdLevel hardware_simd_level() noexcept {
  static const SimdLevel cached = resolve_hardware();
  return cached;
}

SimdLevel simd_level() noexcept {
  const SimdLevel hw = hardware_simd_level();
  const int request = g_override.load(std::memory_order_relaxed);
  if (request < 0) {
    return hw;
  }
  return std::min(static_cast<SimdLevel>(request), hw);
}

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level) noexcept
    : previous_(g_override.exchange(static_cast<int>(level),
                                    std::memory_order_relaxed)) {}

ScopedSimdLevel::~ScopedSimdLevel() {
  g_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace lcp::simd
