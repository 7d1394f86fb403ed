#include "power/workload.hpp"

#include <gtest/gtest.h>

#include "power/chip_model.hpp"

namespace lcp::power {
namespace {

const ChipSpec& bdw() { return chip(ChipId::kBroadwellD1548); }
const ChipSpec& skl() { return chip(ChipId::kSkylake4114); }

TEST(WorkloadTest, RuntimeScalesInverselyWithFrequencyForCpuWork) {
  Workload w;
  w.cpu_ghz_seconds = 10.0;
  const auto t_hi = workload_runtime(w, bdw(), bdw().f_max);
  const auto t_lo = workload_runtime(w, bdw(), bdw().f_min);
  EXPECT_NEAR(t_lo / t_hi, bdw().f_max / bdw().f_min, 1e-9);
}

TEST(WorkloadTest, StallShareIsFrequencyInvariant) {
  Workload w;
  w.stall_seconds = Seconds{5.0};
  EXPECT_DOUBLE_EQ(workload_runtime(w, bdw(), bdw().f_min).seconds(), 5.0);
  EXPECT_DOUBLE_EQ(workload_runtime(w, bdw(), bdw().f_max).seconds(), 5.0);
}

TEST(WorkloadTest, FloorDominatesWhenCpuIsFast) {
  Workload w;
  w.cpu_ghz_seconds = 1.0;
  w.floor_seconds = Seconds{100.0};
  EXPECT_DOUBLE_EQ(workload_runtime(w, skl(), skl().f_max).seconds(), 100.0);
}

TEST(WorkloadTest, EffectiveActivityDropsWhenFloorBound) {
  Workload w;
  w.cpu_ghz_seconds = 1.0;
  w.activity = 1.0;
  const double busy_act = effective_activity(w, skl(), skl().f_max);
  w.floor_seconds = Seconds{100.0};
  const double stalled_act = effective_activity(w, skl(), skl().f_max);
  EXPECT_LT(stalled_act, busy_act);
  EXPECT_GT(stalled_act, 0.0);
}

TEST(WorkloadTest, EmptyWorkloadHasZeroActivity) {
  Workload w;
  EXPECT_DOUBLE_EQ(effective_activity(w, bdw(), bdw().f_max), 0.0);
}

TEST(WorkloadTest, PureStallEnergyIsTheLimitOfAVanishingCpuShare) {
  // compression_workload at beta = 0 is all stall; its energy must be the
  // beta -> 0+ limit, not a jump down to static power.
  for (const ChipSpec* spec : {&bdw(), &skl()}) {
    const auto stall = compression_workload(*spec, Seconds{10.0}, 0.0, 1.0);
    const auto tiny = compression_workload(*spec, Seconds{10.0}, 1e-6, 1.0);
    for (const GigaHertz f : {spec->f_min, spec->f_max}) {
      const double e0 = workload_energy(stall, *spec, f).joules();
      const double e1 = workload_energy(tiny, *spec, f).joules();
      EXPECT_NEAR(e0, e1, 1e-4 * e1) << spec->cpu_name << " at " << f.ghz();
      EXPECT_DOUBLE_EQ(effective_activity(stall, *spec, f), 1.0);
    }
  }
}

TEST(WorkloadTest, EnergyEqualsPowerTimesRuntime) {
  Workload w;
  w.cpu_ghz_seconds = 4.0;
  w.stall_seconds = Seconds{2.0};
  const auto f = GigaHertz{1.5};
  const double e = workload_energy(w, bdw(), f).joules();
  const double p = workload_power(w, bdw(), f).watts();
  const double t = workload_runtime(w, bdw(), f).seconds();
  EXPECT_NEAR(e, p * t, 1e-9);
}

TEST(CompressionWorkloadTest, BetaGovernsRuntimeTradeoff) {
  // The paper's number: at beta ~0.53, a 12.5% frequency drop costs ~7.5%
  // runtime (Section V-A.3).
  const auto w = compression_workload(bdw(), Seconds{10.0}, 0.525, 1.0);
  const auto t_base = workload_runtime(w, bdw(), bdw().f_max);
  const auto t_tuned = workload_runtime(w, bdw(), bdw().f_max * 0.875);
  const double increase = t_tuned / t_base - 1.0;
  EXPECT_NEAR(increase, 0.075, 0.005);
}

TEST(CompressionWorkloadTest, SlowerChipTakesLongerAtItsOwnMaxClock) {
  const auto wb = compression_workload(bdw(), Seconds{10.0}, 0.5, 1.0);
  const auto ws = compression_workload(skl(), Seconds{10.0}, 0.5, 1.0);
  EXPECT_GT(workload_runtime(wb, bdw(), bdw().f_max).seconds(),
            workload_runtime(ws, skl(), skl().f_max).seconds());
}

TEST(CompressionWorkloadTest, PureCpuFraction) {
  const auto w = compression_workload(bdw(), Seconds{10.0}, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(w.stall_seconds.seconds(), 0.0);
  EXPECT_GT(w.cpu_ghz_seconds, 0.0);
}

TEST(CompressionWorkloadTest, ActivityPropagates) {
  const auto w = compression_workload(bdw(), Seconds{1.0}, 0.5, 0.94);
  EXPECT_DOUBLE_EQ(w.activity, 0.94);
}

}  // namespace
}  // namespace lcp::power
