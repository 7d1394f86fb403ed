// Cross-chip parameterized property sweeps: invariants that must hold on
// every chip x workload-type combination, however the calibration
// constants move.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/platform.hpp"
#include "core/sweep.hpp"
#include "io/transit_model.hpp"
#include "tuning/optimizer.hpp"
#include "tuning/plan.hpp"

namespace lcp::core {
namespace {

enum class WorkloadKind { kSzCompression, kZfpCompression, kNfsWrite };

const char* kind_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kSzCompression:
      return "szc";
    case WorkloadKind::kZfpCompression:
      return "zfpc";
    case WorkloadKind::kNfsWrite:
      return "nfs";
  }
  return "?";
}

power::Workload make_workload(WorkloadKind kind, const power::ChipSpec& spec) {
  switch (kind) {
    case WorkloadKind::kSzCompression:
      return power::compression_workload(spec, Seconds{8.0}, 0.53, 1.0);
    case WorkloadKind::kZfpCompression:
      return power::compression_workload(spec, Seconds{6.0}, 0.50, 0.94);
    case WorkloadKind::kNfsWrite:
      return io::transit_workload(spec, Bytes::from_gb(2), {});
  }
  return {};
}

using Param = std::tuple<power::ChipId, WorkloadKind>;

class PlatformPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  const power::ChipSpec& spec() const {
    return power::chip(std::get<0>(GetParam()));
  }
  power::Workload workload() const {
    return make_workload(std::get<1>(GetParam()), spec());
  }
};

TEST_P(PlatformPropertyTest, PowerIsMonotoneNonDecreasingInFrequency) {
  const auto w = workload();
  double prev = 0.0;
  for (double f = spec().f_min.ghz(); f <= spec().f_max.ghz() + 1e-9;
       f += 0.05) {
    const double p = power::workload_power(w, spec(), GigaHertz{f}).watts();
    EXPECT_GE(p, prev - 1e-9) << f;
    prev = p;
  }
}

TEST_P(PlatformPropertyTest, RuntimeIsMonotoneNonIncreasingInFrequency) {
  const auto w = workload();
  double prev = 1e300;
  for (double f = spec().f_min.ghz(); f <= spec().f_max.ghz() + 1e-9;
       f += 0.05) {
    const double t = power::workload_runtime(w, spec(), GigaHertz{f}).seconds();
    EXPECT_LE(t, prev + 1e-9) << f;
    prev = t;
  }
}

TEST_P(PlatformPropertyTest, ScaledCurvesEndAtOne) {
  Platform platform{std::get<0>(GetParam()), power::NoiseModel::none(), 17};
  const auto sweep = frequency_sweep(platform, workload(), 2);
  for (auto metric : {SweepMetric::kPower, SweepMetric::kRuntime,
                      SweepMetric::kEnergy}) {
    const auto curve = scale_by_max_frequency(sweep, metric);
    EXPECT_NEAR(curve.value.back(), 1.0, 1e-12);
  }
}

TEST_P(PlatformPropertyTest, ScaledPowerNeverExceedsOnePlusNoise) {
  Platform platform{std::get<0>(GetParam()), power::NoiseModel::none(), 18};
  const auto sweep = frequency_sweep(platform, workload(), 1);
  const auto curve = scale_by_max_frequency(sweep, SweepMetric::kPower);
  for (double v : curve.value) {
    EXPECT_LE(v, 1.0 + 1e-9);
    EXPECT_GE(v, 0.5);  // no chip loses more than half its power
  }
}

TEST_P(PlatformPropertyTest, Eqn3NeverIncreasesPower) {
  const auto w = workload();
  const bool is_write = std::get<1>(GetParam()) == WorkloadKind::kNfsWrite;
  const double fraction = is_write ? 0.85 : 0.875;
  const auto report = tuning::evaluate_tuning(spec(), w, spec().f_max,
                                              spec().f_max * fraction);
  EXPECT_GE(report.power_savings(), 0.0);
  EXPECT_GE(report.runtime_increase(), -1e-12);
}

TEST_P(PlatformPropertyTest, EnergyOptimalFrequencyIsStable) {
  // Re-running the search yields the same point (pure function of model).
  const auto w = workload();
  const auto energy_optimum = [&] {
    return tuning::plan(spec(), {{"w", w}}, tuning::MinEnergy{})
        .value()
        .stages[0]
        .frequency;
  };
  const auto a = energy_optimum();
  const auto b = energy_optimum();
  EXPECT_DOUBLE_EQ(a.ghz(), b.ghz());
  EXPECT_GE(a.ghz(), spec().f_min.ghz());
  EXPECT_LE(a.ghz(), spec().f_max.ghz());
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = power::chip_series_name(std::get<0>(info.param));
  name += "_";
  name += kind_name(std::get<1>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllChipsWorkloads, PlatformPropertyTest,
    ::testing::Combine(::testing::Values(power::ChipId::kBroadwellD1548,
                                         power::ChipId::kSkylake4114),
                       ::testing::Values(WorkloadKind::kSzCompression,
                                         WorkloadKind::kZfpCompression,
                                         WorkloadKind::kNfsWrite)),
    param_name);

}  // namespace
}  // namespace lcp::core
