#include "tuning/optimizer.hpp"

#include <gtest/gtest.h>

#include "tuning/plan.hpp"

namespace lcp::tuning {
namespace {

using power::ChipId;

const power::ChipSpec& bdw() {
  return power::chip(ChipId::kBroadwellD1548);
}

power::Workload compression_like() {
  return power::compression_workload(bdw(), Seconds{10.0}, 0.53, 1.0);
}

/// The clock plan() picks for `w` alone under `objective`.
GigaHertz chosen(const power::Workload& w, const Objective& objective) {
  return plan(bdw(), {{"w", w}}, objective).value().stages[0].frequency;
}

GigaHertz energy_optimum(const power::Workload& w) {
  return chosen(w, MinEnergy{});
}

TEST(EvaluateTuningTest, EqnThreeNumbersForCompression) {
  const auto w = compression_like();
  const auto report =
      evaluate_tuning(bdw(), w, bdw().f_max, bdw().f_max * 0.875);
  // Paper bands: power savings ~10-20%, runtime +7.5%, net energy saved.
  EXPECT_GT(report.power_savings(), 0.05);
  EXPECT_LT(report.power_savings(), 0.25);
  EXPECT_NEAR(report.runtime_increase(), 0.075, 0.01);
  EXPECT_GT(report.energy_savings(), 0.0);
}

TEST(EvaluateTuningTest, IdentityTuningIsNeutral) {
  const auto w = compression_like();
  const auto report = evaluate_tuning(bdw(), w, bdw().f_max, bdw().f_max);
  EXPECT_DOUBLE_EQ(report.power_savings(), 0.0);
  EXPECT_DOUBLE_EQ(report.runtime_increase(), 0.0);
  EXPECT_DOUBLE_EQ(report.energy_savings(), 0.0);
}

TEST(EvaluateTuningTest, ConsistentWithWorkloadModel) {
  const auto w = compression_like();
  const auto report =
      evaluate_tuning(bdw(), w, bdw().f_max, GigaHertz{1.0});
  EXPECT_DOUBLE_EQ(report.energy_base.joules(),
                   power::workload_energy(w, bdw(), bdw().f_max).joules());
  EXPECT_DOUBLE_EQ(report.energy_tuned.joules(),
                   power::workload_energy(w, bdw(), GigaHertz{1.0}).joules());
}

TEST(OptimalFrequencyTest, RuntimeOptimumIsMaxClock) {
  // Only the max clock meets a deadline of the max clock's own runtime.
  const auto w = compression_like();
  const Seconds fastest = power::workload_runtime(w, bdw(), bdw().f_max);
  EXPECT_DOUBLE_EQ(chosen(w, MinEnergy{fastest}).ghz(), bdw().f_max.ghz());
}

TEST(OptimalFrequencyTest, PowerOptimumIsMinClock) {
  // Section V-A.1: pure power is minimized at the lowest frequency, so a
  // cap at f_min's power is met there and nowhere faster.
  const auto w = compression_like();
  const Watts lowest = power::workload_power(w, bdw(), bdw().f_min);
  EXPECT_DOUBLE_EQ(chosen(w, PowerCap{lowest}).ghz(), bdw().f_min.ghz());
}

TEST(OptimalFrequencyTest, EnergyOptimumIsInterior) {
  // The energy-optimal point sits strictly between the extremes for a
  // partially cpu-bound workload — the crux of the paper's trade-off.
  const auto f = energy_optimum(compression_like());
  EXPECT_GT(f.ghz(), bdw().f_min.ghz());
  EXPECT_LT(f.ghz(), bdw().f_max.ghz());
}

TEST(OptimalFrequencyTest, EnergyOptimumBeatsEveryGridNeighbor) {
  const auto w = compression_like();
  const auto f_opt = energy_optimum(w);
  const double e_opt = power::workload_energy(w, bdw(), f_opt).joules();
  for (double f = 0.8; f <= 2.0001; f += 0.05) {
    EXPECT_LE(e_opt,
              power::workload_energy(w, bdw(), GigaHertz{f}).joules() + 1e-9);
  }
}

TEST(OptimalFrequencyTest, FloorBoundWorkloadPrefersLowFrequency) {
  // If the pipeline floor dominates, slowing the core is free runtime-wise,
  // so the energy optimum collapses toward f where cpu time reaches the
  // floor (or below).
  power::Workload w;
  w.cpu_ghz_seconds = 0.5;
  w.floor_seconds = Seconds{10.0};
  w.activity = 0.5;
  const auto f = energy_optimum(w);
  EXPECT_LT(f.ghz(), 1.3);
}

}  // namespace
}  // namespace lcp::tuning
