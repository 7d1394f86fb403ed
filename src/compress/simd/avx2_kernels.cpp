// AVX2 kernel bodies. This TU is the only one compiled with -mavx2 (and
// deliberately without -mfma: contracting the double multiply/convert
// chains would break bit-identity with the scalar twins). It is only added
// to the build on x86-64 when the compiler accepts -mavx2, and only
// executed when simd::simd_level() resolved to kAvx2.
//
// Identity contract (see compress/sz/prequant.hpp): every float-touching
// step here — round_pd TO_NEAREST, maxpd/minpd clamp order, cvtepi32_pd *
// step_pd -> cvtpd_ps — has the same operation order and rounding as the
// scalar helpers, assuming the default round-to-nearest-even FP
// environment. Integer stencils are exact in both paths by construction.

#include "compress/simd/avx2_kernels.hpp"

#include <immintrin.h>

#include <cstring>

namespace lcp::simd::avx2 {
namespace {

/// Load 8 consecutive int32 grid values.
inline __m256i load_i32(const std::int32_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store_i32(std::int32_t* p, __m256i v) noexcept {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// decoded = float((double)r * step) for 8 lanes, one rounding at the
/// final cvtpd_ps — identical to sz::dequantize per lane.
inline void store_dequantized(float* out, __m256i r, __m256d step) noexcept {
  const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(r));
  const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(r, 1));
  _mm_storeu_ps(out, _mm256_cvtpd_ps(_mm256_mul_pd(lo, step)));
  _mm_storeu_ps(out + 4, _mm256_cvtpd_ps(_mm256_mul_pd(hi, step)));
}

}  // namespace

void prequantize(const float* values, std::size_t n, double inv_step,
                 std::int32_t* grid) noexcept {
  const __m256d inv = _mm256_set1_pd(inv_step);
  const __m256d lo = _mm256_set1_pd(-static_cast<double>(sz::kPrequantMax));
  const __m256d hi = _mm256_set1_pd(static_cast<double>(sz::kPrequantMax));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d d0 = _mm256_cvtps_pd(_mm_loadu_ps(values + i));
    __m256d d1 = _mm256_cvtps_pd(_mm_loadu_ps(values + i + 4));
    d0 = _mm256_round_pd(_mm256_mul_pd(d0, inv),
                         _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    d1 = _mm256_round_pd(_mm256_mul_pd(d1, inv),
                         _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // max first (NaN lands on lo), then min — the order prequantize mirrors.
    d0 = _mm256_min_pd(_mm256_max_pd(d0, lo), hi);
    d1 = _mm256_min_pd(_mm256_max_pd(d1, lo), hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(grid + i),
                     _mm256_cvtpd_epi32(d0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(grid + i + 4),
                     _mm256_cvtpd_epi32(d1));
  }
  for (; i < n; ++i) {
    grid[i] = sz::prequantize(values[i], inv_step);
  }
}

void predict_row_l1_1d(const std::int32_t* site, std::size_t k0,
                       std::size_t n, std::int32_t* pred) noexcept {
  std::size_t k = k0;
  for (; k + 8 <= n; k += 8) {
    store_i32(pred + k, load_i32(site + k - 1));
  }
  for (; k < n; ++k) {
    pred[k] = site[k - 1];
  }
}

void predict_row_l2_1d(const std::int32_t* site, std::size_t k0,
                       std::size_t n, std::int32_t* pred) noexcept {
  std::size_t k = k0;
  for (; k + 8 <= n; k += 8) {
    const __m256i prev = load_i32(site + k - 1);
    const __m256i prev2 = load_i32(site + k - 2);
    store_i32(pred + k, _mm256_sub_epi32(_mm256_add_epi32(prev, prev), prev2));
  }
  for (; k < n; ++k) {
    pred[k] = 2 * site[k - 1] - site[k - 2];
  }
}

void predict_row_l1_2d(const std::int32_t* site, std::size_t n1,
                       std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept {
  const std::int32_t* up = site - n1;
  std::size_t k = k0;
  for (; k + 8 <= n; k += 8) {
    const __m256i sum = _mm256_add_epi32(load_i32(up + k), load_i32(site + k - 1));
    store_i32(pred + k, _mm256_sub_epi32(sum, load_i32(up + k - 1)));
  }
  for (; k < n; ++k) {
    pred[k] = up[k] + site[k - 1] - up[k - 1];
  }
}

void predict_row_l2_2d(const std::int32_t* site, std::size_t n1,
                       std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept {
  const std::int32_t* u1 = site - n1;
  const std::int32_t* u2 = site - 2 * n1;
  std::size_t k = k0;
  for (; k + 8 <= n; k += 8) {
    const __m256i two = _mm256_set1_epi32(2);
    const __m256i four = _mm256_set1_epi32(4);
    __m256i acc = _mm256_mullo_epi32(two, load_i32(u1 + k));
    acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(two, load_i32(site + k - 1)));
    acc = _mm256_sub_epi32(acc, load_i32(u2 + k));
    acc = _mm256_sub_epi32(acc, load_i32(site + k - 2));
    acc = _mm256_sub_epi32(acc, _mm256_mullo_epi32(four, load_i32(u1 + k - 1)));
    acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(two, load_i32(u2 + k - 1)));
    acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(two, load_i32(u1 + k - 2)));
    acc = _mm256_sub_epi32(acc, load_i32(u2 + k - 2));
    store_i32(pred + k, acc);
  }
  for (; k < n; ++k) {
    pred[k] = 2 * u1[k] + 2 * site[k - 1] - u2[k] - site[k - 2] -
              4 * u1[k - 1] + 2 * u2[k - 1] + 2 * u1[k - 2] - u2[k - 2];
  }
}

void predict_row_l1_3d(const std::int32_t* site, std::size_t plane,
                       std::size_t n2, std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept {
  const std::int32_t* a = site - plane;
  const std::int32_t* b = site - n2;
  const std::int32_t* ab = site - plane - n2;
  std::size_t k = k0;
  for (; k + 8 <= n; k += 8) {
    __m256i acc = _mm256_add_epi32(load_i32(a + k), load_i32(b + k));
    acc = _mm256_add_epi32(acc, load_i32(site + k - 1));
    acc = _mm256_sub_epi32(acc, load_i32(ab + k));
    acc = _mm256_sub_epi32(acc, load_i32(a + k - 1));
    acc = _mm256_sub_epi32(acc, load_i32(b + k - 1));
    acc = _mm256_add_epi32(acc, load_i32(ab + k - 1));
    store_i32(pred + k, acc);
  }
  for (; k < n; ++k) {
    pred[k] = a[k] + b[k] + site[k - 1] - ab[k] - a[k - 1] - b[k - 1] +
              ab[k - 1];
  }
}

void predict_row_l2_3d(const std::int32_t* site, std::size_t plane,
                       std::size_t n2, std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept {
  std::size_t k = k0;
  for (; k + 8 <= n; k += 8) {
    __m256i acc = _mm256_setzero_si256();
    for (const auto& tap : sz::kLorenzo2Taps3d) {
      const std::size_t off =
          static_cast<std::size_t>(tap.offset_i) * plane +
          static_cast<std::size_t>(tap.offset_j) * n2 +
          static_cast<std::size_t>(tap.offset_k);
      acc = _mm256_add_epi32(
          acc, _mm256_mullo_epi32(_mm256_set1_epi32(tap.weight),
                                  load_i32(site + k - off)));
    }
    store_i32(pred + k, acc);
  }
  for (; k < n; ++k) {
    std::int32_t acc = 0;
    for (const auto& tap : sz::kLorenzo2Taps3d) {
      const std::size_t off =
          static_cast<std::size_t>(tap.offset_i) * plane +
          static_cast<std::size_t>(tap.offset_j) * n2 +
          static_cast<std::size_t>(tap.offset_k);
      acc += tap.weight * site[k - off];
    }
    pred[k] = acc;
  }
}

void encode_finish(const float* values, const std::int32_t* grid,
                   const std::int32_t* pred, std::size_t n,
                   const sz::PrequantParams& p, std::uint32_t* codes,
                   std::vector<std::uint32_t>& exact) {
  const std::int32_t radius = static_cast<std::int32_t>(p.radius);
  const __m256i radius_v = _mm256_set1_epi32(radius);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i max_code = _mm256_set1_epi32(2 * radius - 1);
  const __m256d step = _mm256_set1_pd(p.step);
  const __m256d eb = _mm256_set1_pd(p.eb);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i r = load_i32(grid + i);
    const __m256i code =
        _mm256_add_epi32(_mm256_sub_epi32(r, load_i32(pred + i)), radius_v);
    const __m256i bad_code = _mm256_or_si256(
        _mm256_cmpgt_epi32(one, code), _mm256_cmpgt_epi32(code, max_code));
    const __m256d rd0 = _mm256_cvtepi32_pd(_mm256_castsi256_si128(r));
    const __m256d rd1 = _mm256_cvtepi32_pd(_mm256_extracti128_si256(r, 1));
    const __m128 rec0 = _mm256_cvtpd_ps(_mm256_mul_pd(rd0, step));
    const __m128 rec1 = _mm256_cvtpd_ps(_mm256_mul_pd(rd1, step));
    const __m256d v0 = _mm256_cvtps_pd(_mm_loadu_ps(values + i));
    const __m256d v1 = _mm256_cvtps_pd(_mm_loadu_ps(values + i + 4));
    const __m256d err0 =
        _mm256_and_pd(_mm256_sub_pd(_mm256_cvtps_pd(rec0), v0), abs_mask);
    const __m256d err1 =
        _mm256_and_pd(_mm256_sub_pd(_mm256_cvtps_pd(rec1), v1), abs_mask);
    // LE_OQ: NaN compares false, so NaN inputs fall to the exact path just
    // like the scalar fabs(...) <= eb test.
    const int ok = _mm256_movemask_pd(_mm256_cmp_pd(err0, eb, _CMP_LE_OQ)) |
                   (_mm256_movemask_pd(_mm256_cmp_pd(err1, eb, _CMP_LE_OQ))
                    << 4);
    const int bad = _mm256_movemask_ps(_mm256_castsi256_ps(bad_code)) |
                    (~ok & 0xFF);
    if (bad == 0) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(codes + i), code);
    } else {
      // Replay the whole group through the shared scalar helper so exact
      // values append in stream order; admitted lanes recompute to the
      // same code the vector path produced.
      for (std::size_t lane = 0; lane < 8; ++lane) {
        const std::size_t idx = i + lane;
        sz::encode_site(values[idx], grid[idx], pred[idx], p, codes[idx],
                        exact);
      }
    }
  }
  for (; i < n; ++i) {
    sz::encode_site(values[i], grid[i], pred[i], p, codes[i], exact);
  }
}

std::size_t decode_row_l1(const std::uint32_t* codes, const std::int32_t* a,
                          const std::int32_t* b, const std::int32_t* ab,
                          std::size_t k0, std::size_t n, std::int32_t radius,
                          double step, std::int32_t* row,
                          float* decoded) noexcept {
  std::size_t k = k0;
  if (k + 8 > n) {
    return k;
  }
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i max_code = _mm256_set1_epi32(2 * radius - 1);
  const __m256i radius_v = _mm256_set1_epi32(radius);
  const __m256i grid_max = _mm256_set1_epi32(sz::kPrequantMax);
  const __m256d step_v = _mm256_set1_pd(step);
  // Running u[k-1]: u[k] = r[k] - C[k], recoverable from already-decoded
  // rows, so resuming after a scalar bail needs no carried state.
  std::int32_t carry = 0;
  if (k > 0) {
    carry = row[k - 1];
    if (a != nullptr) {
      carry -= a[k - 1];
    }
    if (b != nullptr) {
      carry -= b[k - 1];
    }
    if (ab != nullptr) {
      carry += ab[k - 1];
    }
  }
  while (k + 8 <= n) {
    const __m256i code =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + k));
    // Exact sites (0), codes past the alphabet, and hostile values >= 2^31
    // (negative as int32) all flag invalid.
    __m256i invalid = _mm256_or_si256(_mm256_cmpgt_epi32(one, code),
                                      _mm256_cmpgt_epi32(code, max_code));
    // 8-lane inclusive prefix sum of delta = code - radius.
    __m256i u = _mm256_sub_epi32(code, radius_v);
    u = _mm256_add_epi32(u, _mm256_slli_si256(u, 4));
    u = _mm256_add_epi32(u, _mm256_slli_si256(u, 8));
    const __m256i lane3 = _mm256_shuffle_epi32(u, 0xFF);
    u = _mm256_add_epi32(u, _mm256_permute2x128_si256(lane3, lane3, 0x08));
    u = _mm256_add_epi32(u, _mm256_set1_epi32(carry));
    __m256i c = _mm256_setzero_si256();
    if (a != nullptr) {
      c = _mm256_add_epi32(c, load_i32(a + k));
    }
    if (b != nullptr) {
      c = _mm256_add_epi32(c, load_i32(b + k));
    }
    if (ab != nullptr) {
      c = _mm256_sub_epi32(c, load_i32(ab + k));
    }
    const __m256i r = _mm256_add_epi32(u, c);
    invalid = _mm256_or_si256(
        invalid, _mm256_cmpgt_epi32(_mm256_abs_epi32(r), grid_max));
    if (_mm256_movemask_epi8(invalid) != 0) {
      // Whole-group bail: with any lane invalid the lane sums may have
      // wrapped, so nothing from this group is kept. When all codes are
      // valid, |delta| < 2^21 and |carry-adjusted sums| < 2^27 — no wrap.
      return k;
    }
    store_i32(row + k, r);
    store_dequantized(decoded + k, r, step_v);
    carry = _mm256_extract_epi32(u, 7);
    k += 8;
  }
  return k;
}

void shuffle_bytes(const float* values, std::size_t n,
                   std::uint8_t* out) noexcept {
  const __m256i transpose = _mm256_setr_epi8(
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,  //
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  const __m256i planes = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    // Per 128-bit lane: group same-significance bytes of 4 floats...
    const __m256i grouped = _mm256_shuffle_epi8(raw, transpose);
    // ...then pair lane halves so each qword is one full 8-float plane.
    const __m256i t = _mm256_permutevar8x32_epi32(grouped, planes);
    const __m128i lo = _mm256_castsi256_si128(t);
    const __m128i hi = _mm256_extracti128_si256(t, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), lo);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + n + i),
                     _mm_unpackhi_epi64(lo, lo));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 2 * n + i), hi);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + 3 * n + i),
                     _mm_unpackhi_epi64(hi, hi));
  }
  for (; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, values + i, sizeof(bits));
    out[i] = static_cast<std::uint8_t>(bits & 0xFFU);
    out[n + i] = static_cast<std::uint8_t>((bits >> 8U) & 0xFFU);
    out[2 * n + i] = static_cast<std::uint8_t>((bits >> 16U) & 0xFFU);
    out[3 * n + i] = static_cast<std::uint8_t>((bits >> 24U) & 0xFFU);
  }
}

void unshuffle_bytes(const std::uint8_t* bytes, std::size_t n,
                     float* out) noexcept {
  const __m256i transpose = _mm256_setr_epi8(
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,  //
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  const __m256i halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t p0 = 0;
    std::uint64_t p1 = 0;
    std::uint64_t p2 = 0;
    std::uint64_t p3 = 0;
    std::memcpy(&p0, bytes + i, sizeof(p0));
    std::memcpy(&p1, bytes + n + i, sizeof(p1));
    std::memcpy(&p2, bytes + 2 * n + i, sizeof(p2));
    std::memcpy(&p3, bytes + 3 * n + i, sizeof(p3));
    const __m256i t = _mm256_set_epi64x(
        static_cast<long long>(p3), static_cast<long long>(p2),
        static_cast<long long>(p1), static_cast<long long>(p0));
    const __m256i grouped = _mm256_permutevar8x32_epi32(t, halves);
    const __m256i raw = _mm256_shuffle_epi8(grouped, transpose);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), raw);
  }
  for (; i < n; ++i) {
    const std::uint32_t bits =
        static_cast<std::uint32_t>(bytes[i]) |
        (static_cast<std::uint32_t>(bytes[n + i]) << 8U) |
        (static_cast<std::uint32_t>(bytes[2 * n + i]) << 16U) |
        (static_cast<std::uint32_t>(bytes[3 * n + i]) << 24U);
    std::memcpy(out + i, &bits, sizeof(bits));
  }
}

}  // namespace lcp::simd::avx2
