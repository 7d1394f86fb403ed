// Second-order Lorenzo predictor (Zhao et al., HPDC'20 — the paper's ref
// [7]): stencil exactness properties and end-to-end behaviour of the
// SzPredictor::kSecondOrder pipeline option.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "compress/common/metrics.hpp"
#include "compress/sz/sz_compressor.hpp"
#include "data/generators.hpp"
#include "lorenzo.hpp"

namespace lcp::sz {
namespace {

TEST(Lorenzo2Test, OneDExactOnQuadratics) {
  std::vector<float> d(20);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto x = static_cast<float>(i);
    d[i] = 0.5F * x * x - 3.0F * x + 7.0F;
  }
  // Exact for linear extrapolation of quadratic first differences? The
  // 1-D second-order stencil is exact for *linear* data and reduces the
  // residual of quadratics to the constant second difference.
  for (std::size_t i = 2; i < d.size(); ++i) {
    const float resid = d[i] - lorenzo2_predict_1d(d, i);
    EXPECT_FLOAT_EQ(resid, 1.0F) << i;  // 2*a with a=0.5
  }
}

TEST(Lorenzo2Test, OneDExactOnLinearData) {
  std::vector<float> d(20);
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = 3.0F * static_cast<float>(i) + 2.0F;
  }
  for (std::size_t i = 2; i < d.size(); ++i) {
    EXPECT_FLOAT_EQ(lorenzo2_predict_1d(d, i), d[i]);
  }
}

TEST(Lorenzo2Test, TwoDExactOnProductsOfLinears) {
  // (I - L) annihilates anything linear along its axis, so a product of
  // per-axis linear functions — which defeats first-order Lorenzo because
  // of the bilinear cross term — is predicted exactly.
  const std::size_t n0 = 8;
  const std::size_t n1 = 9;
  std::vector<float> d(n0 * n1);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      const auto x = static_cast<float>(i);
      const auto y = static_cast<float>(j);
      d[i * n1 + j] = (2.0F * x + 1.0F) * (3.0F * y - 2.0F);
    }
  }
  for (std::size_t i = 2; i < n0; ++i) {
    for (std::size_t j = 2; j < n1; ++j) {
      EXPECT_NEAR(lorenzo2_predict_2d(d, i, j, n1), d[i * n1 + j],
                  std::fabs(d[i * n1 + j]) * 1e-5 + 1e-4)
          << i << "," << j;
      // First order is NOT exact here (bilinear cross term).
      if (i == 3 && j == 3) {
        EXPECT_GT(std::fabs(lorenzo_predict_2d(d, i, j, n1) - d[i * n1 + j]),
                  1.0F);
      }
    }
  }
}

TEST(Lorenzo2Test, TwoDQuadraticsLeaveConstantResidual) {
  // On per-axis quadratics the residual is the constant second difference —
  // ideal for the quantizer/Huffman stage even though not exactly zero.
  const std::size_t n0 = 8;
  const std::size_t n1 = 8;
  std::vector<float> d(n0 * n1);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      const auto x = static_cast<float>(i);
      const auto y = static_cast<float>(j);
      d[i * n1 + j] = x * x + y * y + x * y;
    }
  }
  float first_resid = 0.0F;
  for (std::size_t i = 2; i < n0; ++i) {
    for (std::size_t j = 2; j < n1; ++j) {
      const float resid = d[i * n1 + j] - lorenzo2_predict_2d(d, i, j, n1);
      if (i == 2 && j == 2) {
        first_resid = resid;
      }
      EXPECT_NEAR(resid, first_resid, 1e-3) << i << "," << j;
    }
  }
}

TEST(Lorenzo2Test, ThreeDExactOnTriquadratics) {
  const std::size_t n = 6;
  std::vector<float> d(n * n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        const auto x = static_cast<float>(i);
        const auto y = static_cast<float>(j);
        const auto z = static_cast<float>(k);
        d[(i * n + j) * n + k] =
            (x * x + 1.0F) * (2.0F * y + 3.0F) * (z * z - z + 1.0F);
      }
    }
  }
  for (std::size_t i = 2; i < n; ++i) {
    for (std::size_t j = 2; j < n; ++j) {
      for (std::size_t k = 2; k < n; ++k) {
        const float v = d[(i * n + j) * n + k];
        EXPECT_NEAR(lorenzo2_predict_3d(d, i, j, k, n, n), v,
                    std::fabs(v) * 1e-4)
            << i << "," << j << "," << k;
      }
    }
  }
}

TEST(Lorenzo2Test, BordersFallBackToFirstOrder) {
  const std::vector<float> d = {1.0F, 2.0F, 3.0F, 4.0F};
  EXPECT_EQ(lorenzo2_predict_1d(d, 0), lorenzo_predict_1d(d, 0));
  EXPECT_EQ(lorenzo2_predict_1d(d, 1), lorenzo_predict_1d(d, 1));
}

TEST(SzSecondOrderTest, RoundTripHonoursBound) {
  SzOptions options;
  options.predictor = SzPredictor::kSecondOrder;
  SzCompressor codec{options};
  for (const auto* which : {"cesm", "nyx", "hacc"}) {
    data::Field field;
    if (std::string{which} == "cesm") {
      field = data::generate_cesm_atm(4, 32, 32, 2);
    } else if (std::string{which} == "nyx") {
      field = data::generate_nyx(20, 2);
    } else {
      field = data::generate_hacc(8192, 2);
    }
    const auto report = compress::round_trip(
        codec, field, compress::ErrorBound::absolute(1e-3));
    ASSERT_TRUE(report.has_value()) << which;
    EXPECT_TRUE(report->bound_respected) << which;
  }
}

TEST(SzSecondOrderTest, PredictorIdTravelsInTheStream) {
  SzOptions second;
  second.predictor = SzPredictor::kSecondOrder;
  SzCompressor codec2{second};
  SzCompressor codec1;  // first order

  const auto field = data::generate_cesm_atm(4, 24, 24, 3);
  auto compressed = codec2.compress(field, compress::ErrorBound::absolute(1e-3));
  ASSERT_TRUE(compressed.has_value());
  // A default (first-order) instance must still decode it correctly.
  auto decoded = codec1.decompress(compressed->container);
  ASSERT_TRUE(decoded.has_value());
  const auto err = data::compare_fields(field, decoded->field);
  ASSERT_TRUE(err.has_value());
  EXPECT_LE(err->max_abs_error, 1e-3 * (1 + 1e-6));
}

TEST(SzSecondOrderTest, HelpsOnSmoothGradientData) {
  // A smooth oscillatory field: first-order residuals are O(h^2 f''),
  // second-order residuals O(h^3), so the higher-order stencil should
  // produce tighter quantization codes and a better ratio.
  const std::size_t n = 64;
  std::vector<float> values(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      values[i * n + j] = 100.0F *
                          std::sin(0.12F * static_cast<float>(i)) *
                          std::cos(0.15F * static_cast<float>(j));
    }
  }
  data::Field field{"wave", data::Dims::d2(n, n), std::move(values)};

  SzCompressor first;
  SzOptions options;
  options.predictor = SzPredictor::kSecondOrder;
  SzCompressor second{options};
  const auto bound = compress::ErrorBound::absolute(1e-3);
  const auto r1 = compress::round_trip(first, field, bound);
  const auto r2 = compress::round_trip(second, field, bound);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE(r2->bound_respected);
  EXPECT_GT(r2->compression_ratio, r1->compression_ratio);
}

}  // namespace
}  // namespace lcp::sz
