// End-to-end integration: the full paper pipeline at CI scale —
// generate -> compress -> ship over NFS -> decompress on the far side;
// and study -> regress -> derive rule -> apply -> savings in band.

#include <gtest/gtest.h>

#include "compress/common/metrics.hpp"
#include "compress/common/registry.hpp"
#include "core/dump_experiment.hpp"
#include "core/model_tables.hpp"
#include "core/validation_study.hpp"
#include "data/registry.hpp"
#include "io/nfs_client.hpp"
#include "tuning/optimizer.hpp"
#include "tuning/rule.hpp"

namespace lcp {
namespace {

TEST(IntegrationTest, CompressShipDecompressPreservesBound) {
  // The actual data path of the paper's use case, bytes really moving.
  const auto field = data::generate_nyx(24, 99);
  const auto codec = compress::make_compressor(compress::CodecId::kSz);
  const double eb =
      static_cast<double>(field.value_range().span()) * 1e-4;
  auto compressed = codec->compress(field, compress::ErrorBound::absolute(eb));
  ASSERT_TRUE(compressed.has_value());

  io::NfsServer server;
  io::NfsClient client{server};
  ASSERT_TRUE(client.write_file("/dump/nyx.sz", compressed->container).is_ok());
  EXPECT_EQ(server.total_bytes_stored().bytes(),
            compressed->container.size());

  const auto stored = server.read_file("/dump/nyx.sz");
  ASSERT_TRUE(stored.has_value());
  auto decoded = compress::decompress_any(*stored);
  ASSERT_TRUE(decoded.has_value());
  const auto err = data::compare_fields(field, decoded->field);
  ASSERT_TRUE(err.has_value());
  EXPECT_LE(err->max_abs_error, eb * (1 + 1e-6));
}

TEST(IntegrationTest, StudyToRuleToSavingsPipeline) {
  // 1. Run a reduced compression study.
  core::CompressionStudyConfig study_cfg;
  study_cfg.repeats = 3;
  study_cfg.error_bounds = {1e-2};
  study_cfg.datasets = {data::DatasetId::kNyx};
  study_cfg.noise = power::NoiseModel::none();
  const auto study = core::run_compression_study(study_cfg);
  ASSERT_TRUE(study.has_value());

  // 2. Regress the Table IV models.
  const auto rows = core::build_compression_models(*study);
  ASSERT_TRUE(rows.has_value());
  const auto& bdw_fit = (*rows)[3].fit;

  // 3. Derive a tuning rule from the Broadwell fit.
  const double fraction = tuning::derive_fraction(
      bdw_fit, power::chip(power::ChipId::kBroadwellD1548).f_max, 0.53);
  EXPECT_GT(fraction, 0.5);
  EXPECT_LE(fraction, 1.0);

  // 4. Apply the derived rule to the dump experiment and verify savings.
  core::DumpConfig dump_cfg;
  dump_cfg.error_bounds = {1e-2};
  dump_cfg.rule = tuning::TuningRule{fraction, fraction};
  const auto dump = core::run_dump_experiment(dump_cfg);
  ASSERT_TRUE(dump.has_value());
  EXPECT_GT(dump->outcomes[0].plan.energy_savings(), 0.0);
}

TEST(IntegrationTest, ValidationUsesModelFromRealStudy) {
  // Fit on Table I data, validate on Isabel — exactly Section VI-A.
  core::CompressionStudyConfig study_cfg;
  study_cfg.repeats = 2;
  study_cfg.error_bounds = {1e-2};
  study_cfg.datasets = {data::DatasetId::kCesmAtm};
  study_cfg.chips = {power::ChipId::kBroadwellD1548};
  study_cfg.noise = power::NoiseModel::none();
  const auto study = core::run_compression_study(study_cfg);
  ASSERT_TRUE(study.has_value());
  const auto rows = core::build_compression_models(*study);
  ASSERT_TRUE(rows.has_value()) << rows.status().to_string();
  const core::ModelTableRow* bdw_row = nullptr;
  for (const auto& row : *rows) {
    if (row.partition.name == "Broadwell") {
      bdw_row = &row;
    }
  }
  ASSERT_NE(bdw_row, nullptr);

  core::ValidationConfig val_cfg;
  val_cfg.repeats = 2;
  val_cfg.noise = power::NoiseModel::none();
  const auto validation = core::run_validation_study(val_cfg, bdw_row->fit);
  ASSERT_TRUE(validation.has_value());
  // The model was fitted on this chip's physics; new datasets only change
  // workloads, not the scaled power curve, so transfer error is small.
  EXPECT_LT(validation->stats.rmse, 0.05);
}

TEST(IntegrationTest, HeadlineAverageSavingsBand) {
  // The 14.3%-average-savings claim, reproduced from the tuned stages of
  // compression and transit on both chips.
  double total_power_savings = 0.0;
  double total_runtime_increase = 0.0;
  int n = 0;
  for (power::ChipId id : power::all_chips()) {
    const auto& spec = power::chip(id);
    const auto comp =
        power::compression_workload(spec, Seconds{10.0}, 0.53, 1.0);
    const auto comp_report = tuning::evaluate_tuning(
        spec, comp, spec.f_max, spec.f_max * 0.875);
    total_power_savings += comp_report.power_savings();
    total_runtime_increase += comp_report.runtime_increase();
    ++n;

    const auto transit =
        io::transit_workload(spec, Bytes::from_gb(4), {});
    const auto transit_report = tuning::evaluate_tuning(
        spec, transit, spec.f_max, spec.f_max * 0.85);
    total_power_savings += transit_report.power_savings();
    total_runtime_increase += transit_report.runtime_increase();
    ++n;
  }
  const double mean_power_savings = total_power_savings / n;
  const double mean_runtime_increase = total_runtime_increase / n;
  // Paper: 14.3% average savings at +8.4% runtime. Allow a generous band
  // for the simulated substrate.
  EXPECT_GT(mean_power_savings, 0.06);
  EXPECT_LT(mean_power_savings, 0.25);
  EXPECT_GT(mean_runtime_increase, 0.02);
  EXPECT_LT(mean_runtime_increase, 0.15);
}

}  // namespace
}  // namespace lcp
