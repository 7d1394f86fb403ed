#pragma once
// Compression power study (Sections III-IV-A): run SZ and ZFP on the
// Table I datasets at four error bounds, across both chips' full DVFS
// ranges with repeats.
//
// Two-phase design mirroring DESIGN.md: a *calibration* phase really
// executes each codec on really-generated data (capturing relative codec
// cost, error-bound cost scaling and compression ratios), then the *sweep*
// phase maps each calibrated workload through the platform simulator at
// every frequency.

#include <vector>

#include "compress/common/registry.hpp"
#include "core/platform.hpp"
#include "core/sweep.hpp"
#include "data/registry.hpp"
#include "power/noise_model.hpp"

namespace lcp::core {

/// Per-codec execution characteristics used to build workloads.
/// Values follow the paper's observed trade-offs: compression is roughly
/// half cpu-bound at f_max (-12.5% f => +7.5% t, Section V-A.3) and SZ's
/// entropy stage keeps the core slightly busier than ZFP's block loop.
struct CodecProfile {
  double cpu_fraction;  ///< beta at f_max
  double activity;      ///< package dynamic activity factor
};

[[nodiscard]] CodecProfile codec_profile(compress::CodecId id) noexcept;

/// Study configuration.
struct CompressionStudyConfig {
  data::Scale scale = data::Scale::kCi;
  std::vector<double> error_bounds;  ///< empty => the paper's four bounds
  std::size_t repeats = 10;
  std::uint64_t seed = 20220530;  ///< IPDPSW 2022 vintage
  power::NoiseModel noise;
  std::vector<power::ChipId> chips;          ///< empty => both
  std::vector<compress::CodecId> codecs;     ///< empty => both
  std::vector<data::DatasetId> datasets;     ///< empty => Table I three
};

/// Result of the calibration phase for one (codec, dataset, bound) cell.
struct Calibration {
  compress::CodecId codec;
  data::DatasetId dataset;
  double error_bound = 0.0;
  Seconds native_seconds;       ///< real compression wall time (host)
  Seconds decompress_seconds;   ///< real decompression wall time (host)
  double compression_ratio = 0.0;
  double max_abs_error = 0.0;
  Bytes input_bytes;
};

/// One swept series: the sweep plus everything identifying it.
struct CompressionSeries {
  power::ChipId chip;
  compress::CodecId codec;
  data::DatasetId dataset;
  double error_bound = 0.0;
  std::vector<SweepPoint> sweep;
};

/// Full study output.
struct CompressionStudyResult {
  std::vector<Calibration> calibrations;
  std::vector<CompressionSeries> series;
};

/// Runs the study. Deterministic in the config seed.
[[nodiscard]] Expected<CompressionStudyResult> run_compression_study(
    const CompressionStudyConfig& config);

/// Calibrates one cell (exposed for targeted tests and the dump
/// experiment): generates the dataset, compresses, verifies the bound.
[[nodiscard]] Expected<Calibration> calibrate_codec(compress::CodecId codec,
                                                    data::DatasetId dataset,
                                                    double error_bound,
                                                    data::Scale scale,
                                                    std::uint64_t seed);

/// Same, against an already-generated field (the study uses this to avoid
/// regenerating each dataset once per codec x bound — 8x at paper scale).
[[nodiscard]] Expected<Calibration> calibrate_codec_on_field(
    compress::CodecId codec, data::DatasetId dataset, double error_bound,
    const data::Field& field);

/// Workload for a calibrated cell on a chip.
[[nodiscard]] power::Workload workload_from_calibration(
    const Calibration& cal, const power::ChipSpec& spec);

/// Decompression workload for a calibrated cell on a chip (decompression
/// is lighter and slightly less cpu-bound than compression).
[[nodiscard]] power::Workload decompress_workload_from_calibration(
    const Calibration& cal, const power::ChipSpec& spec);

/// `cal` extrapolated to a `total`-byte input by logical concatenation, as
/// the paper builds its 512 GB dump: the compress and decompress times
/// scale with the bytes, the ratio stays.
[[nodiscard]] Calibration scale_to_volume(const Calibration& cal, Bytes total);

/// What a dump of `cal.input_bytes` stores and moves: the input at the
/// calibrated ratio.
[[nodiscard]] Bytes dump_bytes(const Calibration& cal);

}  // namespace lcp::core
