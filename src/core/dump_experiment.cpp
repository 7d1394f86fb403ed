#include "core/dump_experiment.hpp"

namespace lcp::core {

Joules DumpResult::mean_energy_saved() const noexcept {
  if (outcomes.empty()) {
    return Joules{0.0};
  }
  double total = 0.0;
  for (const auto& o : outcomes) {
    total += o.plan.energy_saved().joules();
  }
  return Joules{total / static_cast<double>(outcomes.size())};
}

double DumpResult::mean_energy_savings() const noexcept {
  if (outcomes.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& o : outcomes) {
    total += o.plan.energy_savings();
  }
  return total / static_cast<double>(outcomes.size());
}

Expected<DumpResult> run_dump_experiment(const DumpConfig& config) {
  DumpConfig cfg = config;
  if (cfg.error_bounds.empty()) {
    cfg.error_bounds = compress::paper_error_bounds();
  }
  if (cfg.total_bytes.bytes() == 0) {
    return Status::invalid_argument("dump experiment needs a positive volume");
  }
  const power::ChipSpec& spec = power::chip(cfg.chip);

  DumpResult result;
  for (double eb : cfg.error_bounds) {
    auto cal =
        calibrate_codec(cfg.codec, data::DatasetId::kNyx, eb, cfg.scale,
                        cfg.seed);
    if (!cal) {
      return cal.status();
    }

    // Extrapolate the really-measured chunk to the full volume.
    const Calibration full = scale_to_volume(*cal, cfg.total_bytes);
    const Bytes bytes = dump_bytes(full);
    const std::vector<tuning::Stage> stages = {
        {"compress", workload_from_calibration(full, spec),
         tuning::StageRole::kCompute},
        {"write", io::transit_workload(spec, bytes, cfg.transit),
         tuning::StageRole::kTransit}};

    DumpOutcome outcome;
    outcome.error_bound = eb;
    outcome.compression_ratio = cal->compression_ratio;
    outcome.compressed_bytes = bytes;
    outcome.plan = tuning::compare(spec, stages, {cfg.rule});
    if (cfg.overlap) {
      outcome.overlap =
          tuning::compare(spec, stages, {cfg.rule, cfg.overlap_depth});
      outcome.overlapped = true;
    }
    result.outcomes.push_back(outcome);
  }
  return result;
}

}  // namespace lcp::core
