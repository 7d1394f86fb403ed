#include "tuning/rule.hpp"

#include <gtest/gtest.h>

namespace lcp::tuning {
namespace {

TEST(RuleTest, PaperRuleIsEqnThree) {
  const auto rule = paper_rule();
  EXPECT_DOUBLE_EQ(rule.compression_fraction, 0.875);
  EXPECT_DOUBLE_EQ(rule.transit_fraction, 0.85);
}

TEST(RuleTest, StageFrequenciesScaleFmax) {
  const auto rule = paper_rule();
  EXPECT_DOUBLE_EQ(rule.compression_frequency(GigaHertz{2.0}).ghz(), 1.75);
  EXPECT_DOUBLE_EQ(rule.transit_frequency(GigaHertz{2.0}).ghz(), 1.70);
  EXPECT_NEAR(rule.compression_frequency(GigaHertz{2.2}).ghz(), 1.925, 1e-12);
}

model::PowerLawFit sharp_knee_fit() {
  // Skylake-like: flat floor with a steep rise at the top.
  model::PowerLawFit fit;
  fit.a = 2.235e-9;
  fit.b = 23.31;
  fit.c = 0.7941;
  return fit;
}

model::PowerLawFit gradual_fit() {
  model::PowerLawFit fit;
  fit.a = 0.0064;
  fit.b = 5.315;
  fit.c = 0.7429;
  return fit;
}

TEST(DeriveFractionTest, SharpKneeGivesModestReduction) {
  // Most of the power falls off within the first ~10-15% below f_max, so
  // the derived fraction should land near the paper's 0.85-0.9.
  const double x = derive_fraction(sharp_knee_fit(), GigaHertz{2.2}, 0.53);
  EXPECT_GT(x, 0.75);
  EXPECT_LT(x, 0.97);
}

TEST(DeriveFractionTest, GradualCurveStillAboveMinimum) {
  const double x = derive_fraction(gradual_fit(), GigaHertz{2.0}, 0.53);
  EXPECT_GE(x, 0.5);
  EXPECT_LE(x, 1.0);
}

TEST(DeriveFractionTest, HigherBetaPushesFractionUp) {
  // A more cpu-bound stage pays more runtime for the same power cut, so
  // the optimizer should keep the clock higher.
  const double x_low = derive_fraction(sharp_knee_fit(), GigaHertz{2.2}, 0.2);
  const double x_high = derive_fraction(sharp_knee_fit(), GigaHertz{2.2}, 1.0);
  EXPECT_LE(x_low, x_high);
}

TEST(DeriveFractionTest, FlatPowerCurveMeansNoReduction) {
  model::PowerLawFit flat;
  flat.a = 0.0;
  flat.b = 1.0;
  flat.c = 1.0;
  // No power to save: any slowdown only costs runtime.
  EXPECT_DOUBLE_EQ(derive_fraction(flat, GigaHertz{2.0}, 0.5), 1.0);
}

TEST(DeriveFractionTest, GridEndsExactlyAtMinFraction) {
  // p = f^2 with a memory-bound stage (beta = 0): every step down saves
  // power for free, so the best point is the last one on the grid.
  model::PowerLawFit quadratic;
  quadratic.a = 1.0;
  quadratic.b = 2.0;
  quadratic.c = 0.0;
  EXPECT_EQ(derive_fraction(quadratic, GigaHertz{2.0}, 0.0), 0.5);
  EXPECT_EQ(derive_fraction(quadratic, GigaHertz{2.0}, 0.0, 1.0, 0.7), 0.7);
}

TEST(DeriveRuleTest, ProducesFractionsNearEqnThree) {
  const auto rule = derive_rule(gradual_fit(), gradual_fit(), GigaHertz{2.0},
                                0.53, 0.53);
  EXPECT_GT(rule.compression_fraction, 0.5);
  EXPECT_LE(rule.compression_fraction, 1.0);
  EXPECT_GT(rule.transit_fraction, 0.5);
  EXPECT_LE(rule.transit_fraction, 1.0);
}

}  // namespace
}  // namespace lcp::tuning
