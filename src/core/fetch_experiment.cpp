#include "core/fetch_experiment.hpp"

namespace lcp::core {

Joules FetchResult::mean_energy_saved() const noexcept {
  if (outcomes.empty()) {
    return Joules{0.0};
  }
  double total = 0.0;
  for (const auto& o : outcomes) {
    total += o.plan.energy_saved().joules();
  }
  return Joules{total / static_cast<double>(outcomes.size())};
}

double FetchResult::mean_energy_savings() const noexcept {
  if (outcomes.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const auto& o : outcomes) {
    total += o.plan.energy_savings();
  }
  return total / static_cast<double>(outcomes.size());
}

Expected<FetchResult> run_fetch_experiment(const FetchConfig& config) {
  FetchConfig cfg = config;
  if (cfg.error_bounds.empty()) {
    cfg.error_bounds = compress::paper_error_bounds();
  }
  if (cfg.total_bytes.bytes() == 0) {
    return Status::invalid_argument("fetch experiment needs a positive volume");
  }
  const power::ChipSpec& spec = power::chip(cfg.chip);

  FetchResult result;
  for (double eb : cfg.error_bounds) {
    auto cal = calibrate_codec(cfg.codec, data::DatasetId::kNyx, eb,
                               cfg.scale, cfg.seed);
    if (!cal) {
      return cal.status();
    }
    const Calibration full = scale_to_volume(*cal, cfg.total_bytes);
    const Bytes bytes = dump_bytes(full);

    // Two-stage plan: read at the transit fraction, decompress at the
    // compression fraction (both stages of Eqn 3, applied to the inverse
    // pipeline).
    FetchOutcome outcome;
    outcome.error_bound = eb;
    outcome.compression_ratio = cal->compression_ratio;
    outcome.compressed_bytes = bytes;
    outcome.plan = tuning::compare(
        spec,
        {{"read", io::transit_workload(spec, bytes, cfg.transit),
          tuning::StageRole::kTransit},
         {"decompress", decompress_workload_from_calibration(full, spec),
          tuning::StageRole::kCompute}},
        {cfg.rule});
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace lcp::core
