#pragma once
// Prequantized integer Lorenzo kernels shared by the scalar and AVX2 SZ
// pipelines (compress/sz/pipeline.cpp, compress/simd/avx2_kernels.cpp).
//
// The classic SZ loop predicts each sample from previously *reconstructed*
// float values, which chains a lossy rounding step through every element
// and cannot be vectorized bit-identically. The prequantized formulation
// (the cuSZ/vecSZ design) removes the chain:
//
//   r[i]    = nearest-int(value[i] / (2*eb))        -- independent per site
//   pred[i] = integer Lorenzo stencil over r        -- exact arithmetic
//   code[i] = (r[i] - pred[i]) + radius             -- entropy-coded
//
// The decoder rebuilds r exactly (integer arithmetic has no rounding), and
// the reconstruction float(r * 2*eb) is within eb of the input whenever
// |r| stayed on the grid; every site where float32 rounding or grid
// saturation would break the bound is flagged code 0 and stored exactly.
// Unpredictable sites still contribute their true grid value r =
// prequantize(value) to later predictions, so prediction never depends on
// which sites went exact and the encoder is embarrassingly parallel.
//
// Bit-identity rules (the reason helpers live here and both pipelines call
// the same ones): rounding is round-to-nearest-even (std::nearbyint in the
// default mode == _mm256_round_pd TO_NEAREST_INT), NaN/saturation clamping
// mirrors maxpd/minpd NaN semantics (NaN in the first operand yields the
// second), and every double multiply/convert happens in the same order in
// both paths. Any divergence here changes compressed bytes between
// dispatch levels, which simd_identity_test pins.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lcp::sz {

/// Grid saturation limit: 2^23. Beyond |r| = 2^23 a float32's own ulp
/// exceeds the bin width 2*eb, so such samples cannot honour the bound in
/// float32 anyway — they are exactly the samples the classic quantizer
/// also rejected. Keeping |r| <= 2^23 additionally bounds every integer
/// stencil sum (worst case 63 * 2^23 < 2^29) far inside int32.
inline constexpr std::int32_t kPrequantMax = 1 << 23;

/// Derived constants of one (error bound, radius) configuration.
struct PrequantParams {
  double eb = 0.0;        ///< error bound
  double step = 0.0;      ///< bin width 2*eb
  double inv_step = 0.0;  ///< 1 / (2*eb)
  std::uint32_t radius = 0;

  static PrequantParams make(double eb, std::uint32_t radius) noexcept {
    PrequantParams p;
    p.eb = eb;
    p.step = 2.0 * eb;
    p.inv_step = 1.0 / p.step;
    p.radius = radius;
    return p;
  }
};

/// value -> grid index, saturated to [-kPrequantMax, kPrequantMax].
/// The clamp sequence mirrors AVX2 max_pd/min_pd exactly: max first (NaN
/// and -inf land on -kPrequantMax), then min. Round-to-nearest-even.
[[nodiscard]] inline std::int32_t prequantize(float value,
                                              double inv_step) noexcept {
  double x = static_cast<double>(value) * inv_step;
  x = std::nearbyint(x);
  const double lo = -static_cast<double>(kPrequantMax);
  const double hi = static_cast<double>(kPrequantMax);
  x = x >= lo ? x : lo;  // maxpd(x, lo): NaN in x yields lo
  x = x <= hi ? x : hi;  // minpd(x, hi)
  return static_cast<std::int32_t>(x);
}

/// Grid index -> decoder-visible float. The double product is exact for
/// |r| <= 2^23; the float cast is the single rounding both paths share.
[[nodiscard]] inline float dequantize(std::int32_t r, double step) noexcept {
  return static_cast<float>(static_cast<double>(r) * step);
}

/// The encode-side admission test: can `value` travel as grid index `r`?
/// True only when the float32 reconstruction honours the bound. Identical
/// operation order to the AVX2 lane test (mul_pd, cvtpd_ps, fabs, cmp).
[[nodiscard]] inline bool reconstruction_in_bound(
    std::int32_t r, float value, const PrequantParams& p) noexcept {
  const float rec = dequantize(r, p.step);
  return std::fabs(static_cast<double>(rec) - static_cast<double>(value)) <=
         p.eb;
}

/// Per-site encode finisher, shared verbatim by the scalar pass and the
/// AVX2 pass's bailed-out lanes: admit the code when the residual fits the
/// radius AND the float32 reconstruction honours the bound; otherwise the
/// site goes exact (code 0, raw bits appended in stream order). For radii
/// within the SIMD eligibility cap this computes exactly what the vector
/// lane test computes, so mixing the two paths cannot change the bytes.
inline void encode_site(float value, std::int32_t r, std::int64_t pred,
                        const PrequantParams& p, std::uint32_t& code_out,
                        std::vector<std::uint32_t>& exact) {
  const std::int64_t q = static_cast<std::int64_t>(r) - pred;
  const std::int64_t radius = static_cast<std::int64_t>(p.radius);
  if (q > -radius && q < radius && reconstruction_in_bound(r, value, p)) {
    code_out = static_cast<std::uint32_t>(q + radius);
  } else {
    code_out = 0;
    exact.push_back(std::bit_cast<std::uint32_t>(value));
  }
}

/// Per-site decode twin. Exact sites re-derive their grid index from the
/// stored value — the same prequantize the encoder ran — so the decode
/// grid matches the encode grid at every site. Returns false on corrupt
/// streams (bad code, exhausted exact stream, off-grid index).
[[nodiscard]] inline bool decode_site(std::uint32_t code, std::int64_t pred,
                                      const PrequantParams& p,
                                      std::span<const float> exact,
                                      std::size_t& exact_pos,
                                      std::int32_t& r_out,
                                      float& decoded_out) noexcept {
  if (code == 0) {
    if (exact_pos >= exact.size()) {
      return false;
    }
    const float v = exact[exact_pos++];
    r_out = prequantize(v, p.inv_step);
    decoded_out = v;
    return true;
  }
  if (code >= 2ULL * p.radius) {
    return false;
  }
  const std::int64_t q = static_cast<std::int64_t>(code) -
                         static_cast<std::int64_t>(p.radius);
  const std::int64_t r = pred + q;
  if (r > kPrequantMax || r < -kPrequantMax) {
    return false;
  }
  r_out = static_cast<std::int32_t>(r);
  decoded_out = dequantize(r_out, p.step);
  return true;
}

// --- Guarded integer Lorenzo predictors -----------------------------------
//
// Mirrors of the float-domain Lorenzo oracle (tests/compress/lorenzo.hpp)
// over the int32 grid: out-of-domain neighbours contribute zero;
// second-order falls back to first-order when any axis index is < 2 (same
// all-or-nothing guard as the float family).
// All sums are bounded by 63 * kPrequantMax < 2^29, so int32 is exact.

[[nodiscard]] inline std::int32_t lorenzo_int_1d(const std::int32_t* r,
                                                 std::size_t i) noexcept {
  return i >= 1 ? r[i - 1] : 0;
}

[[nodiscard]] inline std::int32_t lorenzo_int_2d(const std::int32_t* r,
                                                 std::size_t i, std::size_t j,
                                                 std::size_t n1) noexcept {
  const std::size_t base = i * n1 + j;
  std::int32_t pred = 0;
  if (i >= 1) {
    pred += r[base - n1];
  }
  if (j >= 1) {
    pred += r[base - 1];
  }
  if (i >= 1 && j >= 1) {
    pred -= r[base - n1 - 1];
  }
  return pred;
}

[[nodiscard]] inline std::int32_t lorenzo_int_3d(const std::int32_t* r,
                                                 std::size_t i, std::size_t j,
                                                 std::size_t k, std::size_t n1,
                                                 std::size_t n2) noexcept {
  const std::size_t plane = n1 * n2;
  const std::size_t base = i * plane + j * n2 + k;
  std::int32_t pred = 0;
  if (i >= 1) {
    pred += r[base - plane];
  }
  if (j >= 1) {
    pred += r[base - n2];
  }
  if (k >= 1) {
    pred += r[base - 1];
  }
  if (i >= 1 && j >= 1) {
    pred -= r[base - plane - n2];
  }
  if (i >= 1 && k >= 1) {
    pred -= r[base - plane - 1];
  }
  if (j >= 1 && k >= 1) {
    pred -= r[base - n2 - 1];
  }
  if (i >= 1 && j >= 1 && k >= 1) {
    pred += r[base - plane - n2 - 1];
  }
  return pred;
}

[[nodiscard]] inline std::int32_t lorenzo2_int_1d(const std::int32_t* r,
                                                  std::size_t i) noexcept {
  if (i >= 2) {
    return 2 * r[i - 1] - r[i - 2];
  }
  return lorenzo_int_1d(r, i);
}

[[nodiscard]] inline std::int32_t lorenzo2_int_2d(const std::int32_t* r,
                                                  std::size_t i, std::size_t j,
                                                  std::size_t n1) noexcept {
  if (i < 2 || j < 2) {
    return lorenzo_int_2d(r, i, j, n1);
  }
  const std::size_t base = i * n1 + j;
  return 2 * r[base - n1] + 2 * r[base - 1] - r[base - 2 * n1] -
         r[base - 2] - 4 * r[base - n1 - 1] + 2 * r[base - 2 * n1 - 1] +
         2 * r[base - n1 - 2] - r[base - 2 * n1 - 2];
}

/// Second-order 3-D stencil weights: w(di,dj,dk) = -f(di)f(dj)f(dk) with
/// f = {1, -2, 1}, the all-zero term dropped. Shared with the AVX2 kernel
/// so both iterate neighbours in the identical order.
struct Lorenzo2Tap {
  std::int32_t offset_i;
  std::int32_t offset_j;
  std::int32_t offset_k;
  std::int32_t weight;
};

inline constexpr Lorenzo2Tap kLorenzo2Taps3d[26] = {
    {0, 0, 1, 2},  {0, 0, 2, -1}, {0, 1, 0, 2},  {0, 1, 1, -4}, {0, 1, 2, 2},
    {0, 2, 0, -1}, {0, 2, 1, 2},  {0, 2, 2, -1}, {1, 0, 0, 2},  {1, 0, 1, -4},
    {1, 0, 2, 2},  {1, 1, 0, -4}, {1, 1, 1, 8},  {1, 1, 2, -4}, {1, 2, 0, 2},
    {1, 2, 1, -4}, {1, 2, 2, 2},  {2, 0, 0, -1}, {2, 0, 1, 2},  {2, 0, 2, -1},
    {2, 1, 0, 2},  {2, 1, 1, -4}, {2, 1, 2, 2},  {2, 2, 0, -1}, {2, 2, 1, 2},
    {2, 2, 2, -1}};

[[nodiscard]] inline std::int32_t lorenzo2_int_3d(const std::int32_t* r,
                                                  std::size_t i, std::size_t j,
                                                  std::size_t k, std::size_t n1,
                                                  std::size_t n2) noexcept {
  if (i < 2 || j < 2 || k < 2) {
    return lorenzo_int_3d(r, i, j, k, n1, n2);
  }
  const std::size_t plane = n1 * n2;
  const std::size_t base = i * plane + j * n2 + k;
  std::int32_t pred = 0;
  for (const auto& tap : kLorenzo2Taps3d) {
    pred += tap.weight *
            r[base - static_cast<std::size_t>(tap.offset_i) * plane -
              static_cast<std::size_t>(tap.offset_j) * n2 -
              static_cast<std::size_t>(tap.offset_k)];
  }
  return pred;
}

}  // namespace lcp::sz
