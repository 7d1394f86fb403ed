#include "tuning/rule.hpp"

#include <cmath>

#include "support/status.hpp"

namespace lcp::tuning {

TuningRule paper_rule() noexcept { return TuningRule{0.875, 0.85}; }

double derive_fraction(const model::PowerLawFit& fit, GigaHertz f_max,
                       double beta, double weight, double min_fraction) {
  LCP_REQUIRE(beta >= 0.0 && beta <= 1.0, "beta must be in [0, 1]");
  LCP_REQUIRE(min_fraction > 0.0 && min_fraction <= 1.0,
              "min_fraction must be in (0, 1]");
  const double p_base = fit.evaluate(f_max);
  double best_fraction = 1.0;
  double best_score = 0.0;
  // Walk the fraction grid at the DVFS granularity (50 MHz on a ~2 GHz
  // part is ~2.5%; a 0.5% grid over-resolves slightly, harmlessly). Each
  // point comes from its integer index and the last one is min_fraction
  // itself: a running `x -= step` drifts and skips it.
  constexpr double kStep = 0.005;
  const auto last =
      static_cast<int>(std::ceil((1.0 - min_fraction) / kStep - 1e-9));
  for (int i = 0; i <= last; ++i) {
    const double x = i == last ? min_fraction : 1.0 - kStep * i;
    const double p = fit.evaluate(f_max * x);
    const double power_savings = 1.0 - p / p_base;
    const double runtime_increase = beta * (1.0 / x - 1.0);
    const double score = power_savings - weight * runtime_increase;
    if (score > best_score) {
      best_score = score;
      best_fraction = x;
    }
  }
  return best_fraction;
}

TuningRule derive_rule(const model::PowerLawFit& compression_fit,
                       const model::PowerLawFit& transit_fit, GigaHertz f_max,
                       double compression_beta, double transit_beta) {
  TuningRule rule;
  rule.compression_fraction =
      derive_fraction(compression_fit, f_max, compression_beta);
  rule.transit_fraction = derive_fraction(transit_fit, f_max, transit_beta);
  return rule;
}

}  // namespace lcp::tuning
