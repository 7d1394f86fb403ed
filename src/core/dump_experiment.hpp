#pragma once
// Section VI-B / Figure 6: compress 512 GB of NYX data with SZ and write
// it over the NFS, comparing the base clock against the Eqn 3 tuned plan
// at each error bound. The 512 GB input is obtained exactly as in the
// paper — by logical concatenation: one chunk is really compressed, and
// its per-byte cost and compression ratio extrapolate to the full volume.

#include <vector>

#include "core/compression_study.hpp"
#include "io/transit_model.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

namespace lcp::core {

struct DumpConfig {
  Bytes total_bytes = Bytes::from_gb(512);
  data::Scale scale = data::Scale::kCi;  ///< chunk size for calibration
  std::vector<double> error_bounds;      ///< empty => the paper's four
  power::ChipId chip = power::ChipId::kBroadwellD1548;
  compress::CodecId codec = compress::CodecId::kSz;  ///< paper uses SZ
  tuning::TuningRule rule = tuning::paper_rule();
  io::TransitModelConfig transit;
  std::uint64_t seed = 20220530;
  /// When true each outcome additionally carries the streaming engine's
  /// overlapped schedule (tuning::RuleClocks over overlap_depth slabs:
  /// compression of slab i+1 hidden behind the framed write of slab i).
  /// Off leaves every outcome bit-identical to the serial experiment — the
  /// serial plan is computed either way.
  bool overlap = false;
  std::size_t overlap_depth = 8;
};

/// One error bound's base-vs-tuned outcome.
struct DumpOutcome {
  double error_bound = 0.0;
  double compression_ratio = 0.0;
  Bytes compressed_bytes;  ///< what the "write" stage puts on the wire
  tuning::PlanComparison plan;  ///< stages: "compress", then "write"
  /// Streaming schedule for the same stages; default-constructed (and
  /// `overlapped` false) unless DumpConfig.overlap was set.
  tuning::PlanComparison overlap;
  bool overlapped = false;
};

struct DumpResult {
  std::vector<DumpOutcome> outcomes;

  /// Mean energy saved across bounds (paper: ~6.5 kJ).
  [[nodiscard]] Joules mean_energy_saved() const noexcept;
  /// Mean fractional savings (paper: ~13%).
  [[nodiscard]] double mean_energy_savings() const noexcept;
};

[[nodiscard]] Expected<DumpResult> run_dump_experiment(const DumpConfig& config);

}  // namespace lcp::core
