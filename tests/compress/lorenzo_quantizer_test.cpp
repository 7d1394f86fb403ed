#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "compress/sz/quantizer.hpp"
#include "lorenzo.hpp"

namespace lcp::sz {
namespace {

TEST(LorenzoTest, FirstElementPredictsZero) {
  const std::vector<float> d = {5.0F};
  EXPECT_EQ(lorenzo_predict_1d(d, 0), 0.0F);
  EXPECT_EQ(lorenzo_predict_2d(d, 0, 0, 1), 0.0F);
  EXPECT_EQ(lorenzo_predict_3d(d, 0, 0, 0, 1, 1), 0.0F);
}

TEST(LorenzoTest, OneDUsesPreviousNeighbor) {
  const std::vector<float> d = {1.0F, 4.0F, 9.0F};
  EXPECT_EQ(lorenzo_predict_1d(d, 1), 1.0F);
  EXPECT_EQ(lorenzo_predict_1d(d, 2), 4.0F);
}

TEST(LorenzoTest, TwoDIsExactOnBilinearData) {
  // f(i,j) = 3i + 2j + 1 is reproduced exactly by the 2-D Lorenzo stencil.
  const std::size_t n0 = 4;
  const std::size_t n1 = 5;
  std::vector<float> d(n0 * n1);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < n1; ++j) {
      d[i * n1 + j] = 3.0F * i + 2.0F * j + 1.0F;
    }
  }
  for (std::size_t i = 1; i < n0; ++i) {
    for (std::size_t j = 1; j < n1; ++j) {
      EXPECT_FLOAT_EQ(lorenzo_predict_2d(d, i, j, n1), d[i * n1 + j]);
    }
  }
}

TEST(LorenzoTest, ThreeDIsExactOnTrilinearData) {
  const std::size_t n = 4;
  std::vector<float> d(n * n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        d[(i * n + j) * n + k] = 2.0F * i - 1.5F * j + 0.5F * k + 7.0F;
      }
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 1; j < n; ++j) {
      for (std::size_t k = 1; k < n; ++k) {
        EXPECT_FLOAT_EQ(lorenzo_predict_3d(d, i, j, k, n, n),
                        d[(i * n + j) * n + k]);
      }
    }
  }
}

TEST(LorenzoTest, BordersDegradeToLowerOrder) {
  const std::size_t n1 = 3;
  const std::vector<float> d = {1.0F, 2.0F, 3.0F, 4.0F, 0.0F, 0.0F};
  // Row 1, col 0: only the north neighbor exists.
  EXPECT_EQ(lorenzo_predict_2d(d, 1, 0, n1), 1.0F);
  // Row 0, col 1: only the west neighbor exists.
  EXPECT_EQ(lorenzo_predict_2d(d, 0, 1, n1), 1.0F);
}

TEST(QuantizerTest, QuantizedReconstructionHonoursBound) {
  const LinearQuantizer q{0.01};
  float recon = 0.0F;
  const auto code = q.quantize(3.14159, 3.0, recon);
  ASSERT_TRUE(code.has_value());
  EXPECT_NE(*code, 0u);
  EXPECT_LE(std::fabs(recon - 3.14159), 0.01 + 1e-12);
  EXPECT_FLOAT_EQ(q.reconstruct(*code, 3.0), recon);
}

TEST(QuantizerTest, PerfectPredictionGivesCenterCode) {
  const LinearQuantizer q{0.5};
  float recon = 0.0F;
  const auto code = q.quantize(10.0, 10.0, recon);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, q.radius());
  EXPECT_FLOAT_EQ(recon, 10.0F);
}

TEST(QuantizerTest, ResidualBeyondRadiusIsUnpredictable) {
  const LinearQuantizer q{1e-6, 1024};
  float recon = 0.0F;
  EXPECT_FALSE(q.quantize(1.0, 0.0, recon).has_value());
}

TEST(QuantizerTest, NanResidualIsUnpredictable) {
  const LinearQuantizer q{0.1};
  float recon = 0.0F;
  EXPECT_FALSE(
      q.quantize(std::numeric_limits<double>::quiet_NaN(), 0.0, recon)
          .has_value());
}

TEST(QuantizerTest, HugeMagnitudeFloatRoundingFallsBackToExact) {
  // Near 1e30 a float32 ulp dwarfs a 1e-3 bound: the quantizer must refuse
  // rather than return an out-of-bound reconstruction.
  const LinearQuantizer q{1e-3};
  float recon = 0.0F;
  const auto code = q.quantize(1.0e30, 1.0e30 + 1.0e25, recon);
  EXPECT_FALSE(code.has_value());
}

TEST(QuantizerTest, RoundTripAcrossResidualSweep) {
  // Residuals landing exactly on a bin edge may be rejected when float32
  // rounding pushes the realized error a hair past the bound — that is the
  // correct conservative behaviour, so the property is: every *accepted*
  // code is in-bound, and the overwhelming majority are accepted.
  const LinearQuantizer q{0.05};
  int accepted = 0;
  int total = 0;
  for (double r = -100.0; r <= 100.0; r += 0.37) {
    ++total;
    float recon = 0.0F;
    const auto code = q.quantize(r, 0.0, recon);
    if (!code.has_value()) {
      continue;
    }
    ++accepted;
    EXPECT_LE(std::fabs(static_cast<double>(recon) - r), 0.05 + 1e-9) << r;
    EXPECT_FLOAT_EQ(q.reconstruct(*code, 0.0), recon);
  }
  EXPECT_GT(accepted, total * 9 / 10);
}

TEST(QuantizerTest, AlphabetSizeIsTwiceRadius) {
  const LinearQuantizer q{0.1, 4096};
  EXPECT_EQ(q.alphabet_size(), 8192u);
}

}  // namespace
}  // namespace lcp::sz
