#include "compress/sz/pipeline.hpp"

#include <algorithm>
#include <cstdint>

#include "compress/sz/prequant.hpp"
#include "support/buffer_pool.hpp"
#include "support/dispatch.hpp"

#if defined(LCP_HAVE_AVX2_BUILD)
#include "compress/simd/avx2_kernels.hpp"
#endif

namespace lcp::sz {
namespace {

/// SIMD eligibility cap on the quantizer radius: valid codes then stay
/// below 2^21, which bounds every int32 lane sum in the AVX2 kernels (see
/// avx2_kernels.cpp) away from wrap. The default radius (32768) is far
/// below the cap; configurations above it run the scalar int64 path under
/// every dispatch level, so the two levels agree trivially there too.
constexpr std::uint32_t kSimdMaxRadius = 1U << 20;

[[nodiscard]] std::size_t element_count(
    std::span<const std::size_t> ext) noexcept {
  std::size_t n = ext.empty() ? 0 : 1;
  for (const std::size_t e : ext) {
    n *= e;
  }
  return n;
}

// --- Scalar prediction pass -------------------------------------------------

void predict_fill_scalar(const std::int32_t* grid,
                         std::span<const std::size_t> ext,
                         SzPredictor predictor, std::int32_t* pred) {
  const bool second = predictor == SzPredictor::kSecondOrder;
  switch (ext.size()) {
    case 1: {
      const std::size_t n0 = ext[0];
      for (std::size_t i = 0; i < n0; ++i) {
        pred[i] = second ? lorenzo2_int_1d(grid, i) : lorenzo_int_1d(grid, i);
      }
      break;
    }
    case 2: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      std::size_t idx = 0;
      for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j, ++idx) {
          pred[idx] = second ? lorenzo2_int_2d(grid, i, j, n1)
                             : lorenzo_int_2d(grid, i, j, n1);
        }
      }
      break;
    }
    default: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      const std::size_t n2 = ext[2];
      std::size_t idx = 0;
      for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j) {
          for (std::size_t k = 0; k < n2; ++k, ++idx) {
            pred[idx] = second ? lorenzo2_int_3d(grid, i, j, k, n1, n2)
                               : lorenzo_int_3d(grid, i, j, k, n1, n2);
          }
        }
      }
      break;
    }
  }
}

#if defined(LCP_HAVE_AVX2_BUILD)

// --- AVX2 prediction pass ---------------------------------------------------
//
// Border rows (any site whose unguarded stencil would reach out of domain)
// stay on the guarded scalar predictors; interior rows hand their tail to
// the row kernels. Integer arithmetic is exact, so the split cannot change
// a single prediction.

void predict_fill_avx2(const std::int32_t* grid,
                       std::span<const std::size_t> ext, SzPredictor predictor,
                       std::int32_t* pred) {
  const bool second = predictor == SzPredictor::kSecondOrder;
  switch (ext.size()) {
    case 1: {
      const std::size_t n0 = ext[0];
      if (n0 == 0) {
        break;
      }
      if (second) {
        for (std::size_t i = 0; i < std::min<std::size_t>(2, n0); ++i) {
          pred[i] = lorenzo2_int_1d(grid, i);
        }
        if (n0 > 2) {
          simd::avx2::predict_row_l2_1d(grid, 2, n0, pred);
        }
      } else {
        pred[0] = 0;
        if (n0 > 1) {
          simd::avx2::predict_row_l1_1d(grid, 1, n0, pred);
        }
      }
      break;
    }
    case 2: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      for (std::size_t i = 0; i < n0; ++i) {
        const std::size_t base = i * n1;
        if (second) {
          if (i < 2) {
            for (std::size_t j = 0; j < n1; ++j) {
              pred[base + j] = lorenzo2_int_2d(grid, i, j, n1);
            }
          } else {
            for (std::size_t j = 0; j < std::min<std::size_t>(2, n1); ++j) {
              pred[base + j] = lorenzo2_int_2d(grid, i, j, n1);
            }
            if (n1 > 2) {
              simd::avx2::predict_row_l2_2d(grid + base, n1, 2, n1,
                                            pred + base);
            }
          }
        } else {
          if (i == 0) {
            for (std::size_t j = 0; j < n1; ++j) {
              pred[base + j] = lorenzo_int_2d(grid, i, j, n1);
            }
          } else {
            pred[base] = lorenzo_int_2d(grid, i, 0, n1);
            if (n1 > 1) {
              simd::avx2::predict_row_l1_2d(grid + base, n1, 1, n1,
                                            pred + base);
            }
          }
        }
      }
      break;
    }
    default: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      const std::size_t n2 = ext[2];
      const std::size_t plane = n1 * n2;
      for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j) {
          const std::size_t base = i * plane + j * n2;
          if (second) {
            if (i < 2 || j < 2) {
              for (std::size_t k = 0; k < n2; ++k) {
                pred[base + k] = lorenzo2_int_3d(grid, i, j, k, n1, n2);
              }
            } else {
              for (std::size_t k = 0; k < std::min<std::size_t>(2, n2); ++k) {
                pred[base + k] = lorenzo2_int_3d(grid, i, j, k, n1, n2);
              }
              if (n2 > 2) {
                simd::avx2::predict_row_l2_3d(grid + base, plane, n2, 2, n2,
                                              pred + base);
              }
            }
          } else {
            if (i == 0 || j == 0) {
              for (std::size_t k = 0; k < n2; ++k) {
                pred[base + k] = lorenzo_int_3d(grid, i, j, k, n1, n2);
              }
            } else {
              pred[base] = lorenzo_int_3d(grid, i, j, 0, n1, n2);
              if (n2 > 1) {
                simd::avx2::predict_row_l1_3d(grid + base, plane, n2, 1, n2,
                                              pred + base);
              }
            }
          }
        }
      }
      break;
    }
  }
}

/// Decodes one row, alternating between the vector kernel and <= 8-site
/// scalar replays at every bail point (exact site, bad code, off-grid
/// index, or tail shorter than one group). `pred_fn(k)` supplies the
/// guarded scalar prediction for replayed sites.
template <typename PredFn>
[[nodiscard]] bool decode_row_avx2(const std::uint32_t* codes_row,
                                   const std::int32_t* a, const std::int32_t* b,
                                   const std::int32_t* ab, std::size_t n,
                                   const PrequantParams& p,
                                   std::span<const float> exact,
                                   std::size_t& exact_pos, std::int32_t* row,
                                   float* dec_row, PredFn&& pred_fn) {
  const auto radius = static_cast<std::int32_t>(p.radius);
  std::size_t k = 0;
  while (k < n) {
    k = simd::avx2::decode_row_l1(codes_row, a, b, ab, k, n, radius, p.step,
                                  row, dec_row);
    if (k >= n) {
      break;
    }
    const std::size_t stop = std::min(k + 8, n);
    for (; k < stop; ++k) {
      if (!decode_site(codes_row[k], pred_fn(k), p, exact, exact_pos, row[k],
                       dec_row[k])) {
        return false;
      }
    }
  }
  return true;
}

[[nodiscard]] bool reconstruct_avx2(std::span<const std::uint32_t> codes,
                                    std::span<const float> exact,
                                    std::span<const std::size_t> ext,
                                    const PrequantParams& p, std::int32_t* grid,
                                    float* dec, std::size_t& exact_pos) {
  switch (ext.size()) {
    case 1:
      return decode_row_avx2(
          codes.data(), nullptr, nullptr, nullptr, ext[0], p, exact, exact_pos,
          grid, dec, [&](std::size_t k) {
            return static_cast<std::int64_t>(lorenzo_int_1d(grid, k));
          });
    case 2: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      for (std::size_t i = 0; i < n0; ++i) {
        const std::size_t base = i * n1;
        const std::int32_t* a = i > 0 ? grid + base - n1 : nullptr;
        if (!decode_row_avx2(
                codes.data() + base, a, nullptr, nullptr, n1, p, exact,
                exact_pos, grid + base, dec + base, [&](std::size_t k) {
                  return static_cast<std::int64_t>(
                      lorenzo_int_2d(grid, i, k, n1));
                })) {
          return false;
        }
      }
      return true;
    }
    default: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      const std::size_t n2 = ext[2];
      const std::size_t plane = n1 * n2;
      for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j) {
          const std::size_t base = i * plane + j * n2;
          const std::int32_t* a = i > 0 ? grid + base - plane : nullptr;
          const std::int32_t* b = j > 0 ? grid + base - n2 : nullptr;
          const std::int32_t* ab =
              (i > 0 && j > 0) ? grid + base - plane - n2 : nullptr;
          if (!decode_row_avx2(
                  codes.data() + base, a, b, ab, n2, p, exact, exact_pos,
                  grid + base, dec + base, [&](std::size_t k) {
                    return static_cast<std::int64_t>(
                        lorenzo_int_3d(grid, i, j, k, n1, n2));
                  })) {
            return false;
          }
        }
      }
      return true;
    }
  }
}

#endif  // LCP_HAVE_AVX2_BUILD

[[nodiscard]] bool reconstruct_scalar(std::span<const std::uint32_t> codes,
                                      std::span<const float> exact,
                                      std::span<const std::size_t> ext,
                                      SzPredictor predictor,
                                      const PrequantParams& p,
                                      std::int32_t* grid, float* dec,
                                      std::size_t& exact_pos) {
  const bool second = predictor == SzPredictor::kSecondOrder;
  switch (ext.size()) {
    case 1: {
      const std::size_t n0 = ext[0];
      for (std::size_t i = 0; i < n0; ++i) {
        const std::int64_t pred = second ? lorenzo2_int_1d(grid, i)
                                         : lorenzo_int_1d(grid, i);
        if (!decode_site(codes[i], pred, p, exact, exact_pos, grid[i],
                         dec[i])) {
          return false;
        }
      }
      return true;
    }
    case 2: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      std::size_t idx = 0;
      for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j, ++idx) {
          const std::int64_t pred = second ? lorenzo2_int_2d(grid, i, j, n1)
                                           : lorenzo_int_2d(grid, i, j, n1);
          if (!decode_site(codes[idx], pred, p, exact, exact_pos, grid[idx],
                           dec[idx])) {
            return false;
          }
        }
      }
      return true;
    }
    default: {
      const std::size_t n0 = ext[0];
      const std::size_t n1 = ext[1];
      const std::size_t n2 = ext[2];
      std::size_t idx = 0;
      for (std::size_t i = 0; i < n0; ++i) {
        for (std::size_t j = 0; j < n1; ++j) {
          for (std::size_t k = 0; k < n2; ++k, ++idx) {
            const std::int64_t pred =
                second ? lorenzo2_int_3d(grid, i, j, k, n1, n2)
                       : lorenzo_int_3d(grid, i, j, k, n1, n2);
            if (!decode_site(codes[idx], pred, p, exact, exact_pos, grid[idx],
                             dec[idx])) {
              return false;
            }
          }
        }
      }
      return true;
    }
  }
}

}  // namespace

void predict_quantize_fused(std::span<const float> values,
                            std::span<const std::size_t> ext,
                            SzPredictor predictor,
                            const LinearQuantizer& quantizer,
                            std::vector<std::uint32_t>& codes,
                            std::vector<std::uint32_t>& exact) {
  const std::size_t n = values.size();
  codes.resize(n);
  if (n == 0) {
    return;
  }
  const auto p =
      PrequantParams::make(quantizer.error_bound(), quantizer.radius());

  ScratchLease<std::int32_t> grid_lease{n};
  auto& grid = grid_lease.get();
  grid.resize(n);
  ScratchLease<std::int32_t> pred_lease{n};
  auto& pred = pred_lease.get();
  pred.resize(n);

#if defined(LCP_HAVE_AVX2_BUILD)
  if (simd::simd_level() == simd::SimdLevel::kAvx2 && p.radius >= 1 &&
      p.radius <= kSimdMaxRadius) {
    simd::avx2::prequantize(values.data(), n, p.inv_step, grid.data());
    predict_fill_avx2(grid.data(), ext, predictor, pred.data());
    simd::avx2::encode_finish(values.data(), grid.data(), pred.data(), n, p,
                              codes.data(), exact);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    grid[i] = prequantize(values[i], p.inv_step);
  }
  predict_fill_scalar(grid.data(), ext, predictor, pred.data());
  for (std::size_t i = 0; i < n; ++i) {
    encode_site(values[i], grid[i], pred[i], p, codes[i], exact);
  }
}

bool reconstruct_fused(std::span<const std::uint32_t> codes,
                       std::span<const float> exact,
                       std::span<const std::size_t> ext,
                       SzPredictor predictor, const LinearQuantizer& quantizer,
                       std::span<float> decoded, std::size_t& exact_consumed) {
  exact_consumed = 0;
  const std::size_t n = element_count(ext);
  if (n != codes.size() || n != decoded.size()) {
    return false;
  }
  if (n == 0) {
    return true;
  }
  const auto p =
      PrequantParams::make(quantizer.error_bound(), quantizer.radius());

  ScratchLease<std::int32_t> grid_lease{n};
  auto& grid = grid_lease.get();
  grid.resize(n);

  std::size_t exact_pos = 0;
  bool ok = false;
#if defined(LCP_HAVE_AVX2_BUILD)
  if (simd::simd_level() == simd::SimdLevel::kAvx2 && p.radius >= 1 &&
      p.radius <= kSimdMaxRadius && predictor == SzPredictor::kFirstOrder) {
    ok = reconstruct_avx2(codes, exact, ext, p, grid.data(), decoded.data(),
                          exact_pos);
    exact_consumed = exact_pos;
    return ok;
  }
#endif
  ok = reconstruct_scalar(codes, exact, ext, predictor, p, grid.data(),
                          decoded.data(), exact_pos);
  exact_consumed = exact_pos;
  return ok;
}

}  // namespace lcp::sz
