#pragma once
// Float-domain Lorenzo predictors: the test oracle that the SZ pipeline's
// int32 kernels (compress/sz/prequant.hpp) mirror. Each predicts a sample
// from its already-decoded causal neighbors; out-of-domain neighbors
// contribute zero, which degrades gracefully to lower-order prediction
// along borders.
//
// Two families:
//  - first-order (classic SZ): exact for data that is multilinear per axis;
//  - second-order (Zhao et al., HPDC'20 — cited by the paper as SZ's
//    improved predictor): per-axis operator L = 2S - S^2 combined by
//    inclusion-exclusion, exact for per-axis quadratics.

#include <cstddef>
#include <span>

namespace lcp::sz {

/// 1-D: pred(i) = d[i-1].
[[nodiscard]] inline float lorenzo_predict_1d(std::span<const float> decoded,
                                              std::size_t i) noexcept {
  return i >= 1 ? decoded[i - 1] : 0.0F;
}

/// 2-D: pred(i,j) = d[i-1,j] + d[i,j-1] - d[i-1,j-1]; row length n1.
[[nodiscard]] inline float lorenzo_predict_2d(std::span<const float> decoded,
                                              std::size_t i, std::size_t j,
                                              std::size_t n1) noexcept {
  const std::size_t base = i * n1 + j;
  float pred = 0.0F;
  if (i >= 1) {
    pred += decoded[base - n1];
  }
  if (j >= 1) {
    pred += decoded[base - 1];
  }
  if (i >= 1 && j >= 1) {
    pred -= decoded[base - n1 - 1];
  }
  return pred;
}

/// 3-D: the 7-neighbor Lorenzo stencil; plane size n1*n2, row length n2.
[[nodiscard]] inline float lorenzo_predict_3d(std::span<const float> decoded,
                                              std::size_t i, std::size_t j,
                                              std::size_t k, std::size_t n1,
                                              std::size_t n2) noexcept {
  const std::size_t plane = n1 * n2;
  const std::size_t base = i * plane + j * n2 + k;
  float pred = 0.0F;
  if (i >= 1) {
    pred += decoded[base - plane];
  }
  if (j >= 1) {
    pred += decoded[base - n2];
  }
  if (k >= 1) {
    pred += decoded[base - 1];
  }
  if (i >= 1 && j >= 1) {
    pred -= decoded[base - plane - n2];
  }
  if (i >= 1 && k >= 1) {
    pred -= decoded[base - plane - 1];
  }
  if (j >= 1 && k >= 1) {
    pred -= decoded[base - n2 - 1];
  }
  if (i >= 1 && j >= 1 && k >= 1) {
    pred += decoded[base - plane - n2 - 1];
  }
  return pred;
}

/// 1-D second-order: pred(i) = 2 d[i-1] - d[i-2] (linear extrapolation).
/// Falls back to first order at the borders.
[[nodiscard]] inline float lorenzo2_predict_1d(std::span<const float> decoded,
                                               std::size_t i) noexcept {
  if (i >= 2) {
    return 2.0F * decoded[i - 1] - decoded[i - 2];
  }
  return lorenzo_predict_1d(decoded, i);
}

/// 2-D second-order: expansion of I - (I - L_i)(I - L_j) with L = 2S - S^2:
///   pred(i,j) = 2 d[i-1,j] + 2 d[i,j-1] - d[i-2,j] - d[i,j-2]
///             - 4 d[i-1,j-1] + 2 d[i-2,j-1] + 2 d[i-1,j-2] - d[i-2,j-2].
/// Exact for per-axis quadratics; first-order fallback near borders.
[[nodiscard]] inline float lorenzo2_predict_2d(std::span<const float> decoded,
                                               std::size_t i, std::size_t j,
                                               std::size_t n1) noexcept {
  if (i < 2 || j < 2) {
    return lorenzo_predict_2d(decoded, i, j, n1);
  }
  const std::size_t base = i * n1 + j;
  return 2.0F * decoded[base - n1] + 2.0F * decoded[base - 1] -
         decoded[base - 2 * n1] - decoded[base - 2] -
         4.0F * decoded[base - n1 - 1] + 2.0F * decoded[base - 2 * n1 - 1] +
         2.0F * decoded[base - n1 - 2] - decoded[base - 2 * n1 - 2];
}

/// 3-D second-order: I - (I - L_i)(I - L_j)(I - L_k). Expanding the product,
/// the coefficient of the neighbor at offset (di,dj,dk) is
/// -prod_axes f(d) with f(0)=1, f(1)=-2, f(2)=+1 (and the all-zero term
/// cancels). First-order fallback near borders.
[[nodiscard]] inline float lorenzo2_predict_3d(std::span<const float> decoded,
                                               std::size_t i, std::size_t j,
                                               std::size_t k, std::size_t n1,
                                               std::size_t n2) noexcept {
  if (i < 2 || j < 2 || k < 2) {
    return lorenzo_predict_3d(decoded, i, j, k, n1, n2);
  }
  const std::size_t plane = n1 * n2;
  const std::size_t base = i * plane + j * n2 + k;
  constexpr float f[3] = {1.0F, -2.0F, 1.0F};
  float pred = 0.0F;
  for (int di = 0; di <= 2; ++di) {
    for (int dj = 0; dj <= 2; ++dj) {
      for (int dk = 0; dk <= 2; ++dk) {
        if (di == 0 && dj == 0 && dk == 0) {
          continue;
        }
        const float w = -f[di] * f[dj] * f[dk];
        pred += w * decoded[base - static_cast<std::size_t>(di) * plane -
                            static_cast<std::size_t>(dj) * n2 -
                            static_cast<std::size_t>(dk)];
      }
    }
  }
  return pred;
}

}  // namespace lcp::sz
