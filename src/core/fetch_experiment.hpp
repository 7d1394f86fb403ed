#pragma once
// Read-path experiment (extension): the consumer side of the paper's I/O
// story — fetch compressed data from the NFS, then decompress it for
// analysis. Mirrors the Fig 6 dump experiment with the stages reversed,
// using the really-measured decompression cost from calibration, and
// applies the Eqn 3 fractions to the read (transit) and decompress
// (compute) stages respectively.

#include <vector>

#include "core/compression_study.hpp"
#include "io/transit_model.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

namespace lcp::core {

struct FetchConfig {
  Bytes total_bytes = Bytes::from_gb(512);  ///< decompressed volume
  data::Scale scale = data::Scale::kCi;
  std::vector<double> error_bounds;  ///< empty => the paper's four
  power::ChipId chip = power::ChipId::kBroadwellD1548;
  compress::CodecId codec = compress::CodecId::kSz;
  tuning::TuningRule rule = tuning::paper_rule();
  io::TransitModelConfig transit;
  std::uint64_t seed = 20220530;
};

struct FetchOutcome {
  double error_bound = 0.0;
  double compression_ratio = 0.0;
  Bytes compressed_bytes;  ///< what the "read" stage moves
  tuning::PlanComparison plan;  ///< stages: "read", then "decompress"
};

struct FetchResult {
  std::vector<FetchOutcome> outcomes;

  [[nodiscard]] Joules mean_energy_saved() const noexcept;
  [[nodiscard]] double mean_energy_savings() const noexcept;
};

[[nodiscard]] Expected<FetchResult> run_fetch_experiment(
    const FetchConfig& config);

}  // namespace lcp::core
