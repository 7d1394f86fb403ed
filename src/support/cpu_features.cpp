#include "support/cpu_features.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

namespace lcp {
namespace {

bool detect_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool detect_sse42() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

bool detect_force_scalar() noexcept {
  const char* raw = std::getenv("LCP_FORCE_SCALAR");
  if (raw == nullptr) {
    return false;
  }
  std::string v{raw};
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

}  // namespace

bool cpu_supports_avx2() noexcept {
  static const bool cached = detect_avx2();
  return cached;
}

bool cpu_supports_sse42() noexcept {
  static const bool cached = detect_sse42();
  return cached;
}

bool force_scalar_requested() noexcept {
  static const bool cached = detect_force_scalar();
  return cached;
}

}  // namespace lcp
