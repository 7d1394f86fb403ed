#include "core/dump_experiment.hpp"

#include <gtest/gtest.h>

#include "power/chip_model.hpp"
#include "power/workload.hpp"

namespace lcp::core {
namespace {

DumpConfig tiny_config() {
  DumpConfig cfg;
  cfg.error_bounds = {1e-2, 1e-4};
  return cfg;
}

/// Modeled energy of the base plan's write stage. It is a function of the
/// bytes put on the wire alone: no wall-clock calibration enters it.
Joules write_energy(const DumpOutcome& outcome, const power::ChipSpec& spec) {
  for (const auto& stage : outcome.plan.base.stages) {
    if (stage.name == "write") {
      return power::workload_energy(stage.workload, spec, stage.frequency);
    }
  }
  ADD_FAILURE() << "plan has no write stage";
  return Joules{0.0};
}

TEST(DumpExperimentTest, TunedAlwaysSavesEnergy) {
  // Fig 6: "our solution always reduces the amount of energy consumed".
  const auto result = run_dump_experiment(tiny_config());
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  ASSERT_EQ(result->outcomes.size(), 2u);
  for (const auto& outcome : result->outcomes) {
    EXPECT_GT(outcome.plan.energy_savings(), 0.0) << outcome.error_bound;
    EXPECT_GT(outcome.plan.energy_saved().joules(), 0.0);
  }
}

TEST(DumpExperimentTest, SavingsInPaperBand) {
  // The paper reports 13% / 6.5 kJ measured; its own Table IV/V fitted
  // models imply ~3-7% net energy savings for the two tuned stages
  // (power ratio x runtime ratio), which is the band our model-faithful
  // reproduction must land in. EXPERIMENTS.md discusses the gap.
  const auto result = run_dump_experiment(tiny_config());
  ASSERT_TRUE(result.has_value());
  const double savings = result->mean_energy_savings();
  EXPECT_GT(savings, 0.02);
  EXPECT_LT(savings, 0.25);
  EXPECT_GT(result->mean_energy_saved().kj(), 0.3);
  EXPECT_LT(result->mean_energy_saved().kj(), 50.0);
}

TEST(DumpExperimentTest, FinerBoundCostsMoreEnergy) {
  // Fig 6: magnitudes grow with finer bounds. The energy claim rests on the
  // write stage, priced from compressed bytes: the plan totals also carry
  // single-shot wall-clock codec calibrations, whose host-load noise is
  // larger than the ~1% gap between the two bounds' totals.
  const DumpConfig cfg = tiny_config();
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  const auto& coarse = result->outcomes[0];  // 1e-2
  const auto& fine = result->outcomes[1];    // 1e-4
  const power::ChipSpec& spec = power::chip(cfg.chip);
  EXPECT_GT(write_energy(fine, spec).joules(),
            write_energy(coarse, spec).joules());
  EXPECT_LT(fine.compression_ratio, coarse.compression_ratio);
  EXPECT_GT(fine.compressed_bytes.bytes(), coarse.compressed_bytes.bytes());
}

TEST(DumpExperimentTest, CompressedBytesFollowRatio) {
  const auto result = run_dump_experiment(tiny_config());
  ASSERT_TRUE(result.has_value());
  for (const auto& outcome : result->outcomes) {
    const double expected = 512e9 / outcome.compression_ratio;
    EXPECT_NEAR(static_cast<double>(outcome.compressed_bytes.bytes()),
                expected, expected * 0.01);
  }
}

TEST(DumpExperimentTest, DefaultBoundsAreThePaperFour) {
  DumpConfig cfg;
  cfg.total_bytes = Bytes::from_gb(1);  // keep it quick
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcomes.size(), 4u);
}

TEST(DumpExperimentTest, RejectsZeroVolume) {
  DumpConfig cfg;
  cfg.total_bytes = Bytes{0};
  EXPECT_FALSE(run_dump_experiment(cfg).has_value());
}

TEST(DumpExperimentTest, WorksOnSkylakeToo) {
  DumpConfig cfg = tiny_config();
  cfg.chip = power::ChipId::kSkylake4114;
  cfg.error_bounds = {1e-2};
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->outcomes[0].plan.energy_savings(), 0.0);
}

TEST(DumpExperimentTest, OverlapIsOffByDefault) {
  DumpConfig cfg = tiny_config();
  cfg.error_bounds = {1e-3};
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->outcomes[0].overlapped);
}

TEST(DumpExperimentTest, OverlapRidesAlongWithoutTouchingTheSerialPlan) {
  // overlap=on adds the streaming schedule NEXT TO the classic plan: both
  // price the same stages, so the f_max pipeline's serial sums must equal
  // the outcome's own base plan exactly (same run, same calibration,
  // bit-for-bit joules).
  DumpConfig cfg = tiny_config();
  cfg.error_bounds = {1e-3};
  cfg.overlap = true;
  cfg.overlap_depth = 16;
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  const auto& o = result->outcomes[0];
  ASSERT_TRUE(o.overlapped);
  EXPECT_EQ(o.overlap.base.serial_energy().joules(),
            o.plan.base.energy.joules());
  EXPECT_EQ(o.overlap.base.serial_runtime().seconds(),
            o.plan.base.runtime.seconds());
  EXPECT_EQ(o.overlap.tuned.pipeline_depth, 16u);
}

TEST(DumpExperimentTest, OverlapHidesTimeAndStaticEnergyAtDepth) {
  DumpConfig cfg = tiny_config();
  cfg.error_bounds = {1e-3};
  cfg.overlap = true;
  cfg.overlap_depth = 8;
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  const auto& t = result->outcomes[0].overlap.tuned;
  EXPECT_LT(t.runtime.seconds(), t.serial_runtime().seconds());
  EXPECT_LT(t.energy.joules(), t.serial_energy().joules());
  EXPECT_GT((t.serial_runtime() - t.runtime).seconds(), 0.0);
}

TEST(DumpExperimentTest, OverlapDepthOneDegeneratesToSerial) {
  DumpConfig cfg = tiny_config();
  cfg.error_bounds = {1e-3};
  cfg.overlap = true;
  cfg.overlap_depth = 1;
  const auto result = run_dump_experiment(cfg);
  ASSERT_TRUE(result.has_value());
  const auto& t = result->outcomes[0].overlap.tuned;
  EXPECT_EQ(t.runtime.seconds(), t.serial_runtime().seconds());
  EXPECT_EQ(t.energy.joules(), t.serial_energy().joules());
}

}  // namespace
}  // namespace lcp::core
