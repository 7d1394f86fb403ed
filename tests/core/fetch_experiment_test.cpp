#include "core/fetch_experiment.hpp"

#include <gtest/gtest.h>

#include "core/dump_experiment.hpp"

namespace lcp::core {
namespace {

FetchConfig tiny_config() {
  FetchConfig cfg;
  cfg.error_bounds = {1e-2, 1e-4};
  return cfg;
}

TEST(FetchExperimentTest, TunedReadPathSavesEnergy) {
  const auto result = run_fetch_experiment(tiny_config());
  ASSERT_TRUE(result.has_value()) << result.status().to_string();
  ASSERT_EQ(result->outcomes.size(), 2u);
  for (const auto& outcome : result->outcomes) {
    EXPECT_GT(outcome.plan.energy_savings(), 0.0) << outcome.error_bound;
  }
  EXPECT_GT(result->mean_energy_saved().joules(), 0.0);
  EXPECT_GT(result->mean_energy_savings(), 0.0);
  EXPECT_LT(result->mean_energy_savings(), 0.25);
}

TEST(FetchExperimentTest, StagesAreReadThenDecompress) {
  const auto result = run_fetch_experiment(tiny_config());
  ASSERT_TRUE(result.has_value());
  const auto& plan = result->outcomes[0].plan;
  ASSERT_EQ(plan.tuned.stages.size(), 2u);
  EXPECT_EQ(plan.tuned.stages[0].name, "read");
  EXPECT_EQ(plan.tuned.stages[1].name, "decompress");
  // Eqn 3: read at 0.85 f_max, decompress at 0.875 f_max (Broadwell).
  EXPECT_NEAR(plan.tuned.stages[0].frequency.ghz(), 1.70, 1e-9);
  EXPECT_NEAR(plan.tuned.stages[1].frequency.ghz(), 1.75, 1e-9);
}

TEST(FetchExperimentTest, FinerBoundMovesMoreBytes) {
  const auto result = run_fetch_experiment(tiny_config());
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->outcomes[1].compressed_bytes.bytes(),
            result->outcomes[0].compressed_bytes.bytes());
}

TEST(FetchExperimentTest, FetchIsCheaperThanDump) {
  // Decompression is faster than compression, so the read path costs less
  // total energy than the Fig 6 dump at the same bound.
  FetchConfig fetch_cfg;
  fetch_cfg.error_bounds = {1e-3};
  const auto fetch = run_fetch_experiment(fetch_cfg);
  ASSERT_TRUE(fetch.has_value());

  DumpConfig dump_cfg;
  dump_cfg.error_bounds = {1e-3};
  const auto dump = run_dump_experiment(dump_cfg);
  ASSERT_TRUE(dump.has_value());

  EXPECT_LT(fetch->outcomes[0].plan.base.energy.joules(),
            dump->outcomes[0].plan.base.energy.joules());
}

TEST(FetchExperimentTest, RejectsZeroVolume) {
  FetchConfig cfg;
  cfg.total_bytes = Bytes{0};
  EXPECT_FALSE(run_fetch_experiment(cfg).has_value());
}

TEST(DecompressWorkloadTest, LighterThanCompressionWorkload) {
  const auto cal = calibrate_codec(compress::CodecId::kSz,
                                   data::DatasetId::kNyx, 1e-3,
                                   data::Scale::kCi, 1);
  ASSERT_TRUE(cal.has_value());
  const auto& spec = power::chip(power::ChipId::kBroadwellD1548);
  const auto comp = workload_from_calibration(*cal, spec);
  const auto decomp = decompress_workload_from_calibration(*cal, spec);
  EXPECT_LT(power::workload_runtime(decomp, spec, spec.f_max).seconds(),
            power::workload_runtime(comp, spec, spec.f_max).seconds());
}

}  // namespace
}  // namespace lcp::core
