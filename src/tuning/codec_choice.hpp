#pragma once
// Eqn 3's compute/transit crossover, re-derived from a measured codec cost
// profile instead of a fixed constant.
//
// A dump of B bytes can ship raw at the rule's transit frequency, or
// compress first (at the rule's compression frequency) and ship B * ratio
// bytes. The raw plan's energy falls as link bandwidth grows (the wire
// floor shrinks over the full B); the compressed plan adds a fixed compute
// term but its wire floor shrinks over only B * ratio. The two curves
// cross at one bandwidth B*: below it compression saves energy, above it
// the link is fast enough that shipping raw wins.
//
// The codec cost profile is where the SIMD kernels enter the planner: a
// faster codec (higher native throughput at the same ratio) shrinks the
// compute term, moving B* upward — the planner keeps compressing on links
// where the scalar-kernel profile would already have switched to raw.
// bench/micro_hotpaths measures both dispatch levels' profiles and
// re-derives B* for each; tests/tuning/codec_choice_test pins the
// monotonicity (faster codec => larger B*) and the decision flip between
// the two profiles' crossovers.

#include <string>

#include "io/transit_model.hpp"
#include "power/chip_model.hpp"
#include "power/workload.hpp"
#include "tuning/rule.hpp"

namespace lcp::tuning {

/// Measured cost profile of one codec configuration (typically one SIMD
/// dispatch level of one codec).
struct CodecCostProfile {
  std::string name;                   ///< e.g. "sz/avx2"
  double gigabytes_per_second = 1.0;  ///< native compression throughput
  double ratio = 0.5;                 ///< compressed bytes / input bytes
  double cpu_fraction = 0.875;        ///< share of compress time scaling ~1/f
  double activity = 0.98;             ///< package activity while compressing
};

/// A B-byte dump priced both ways under the tuning rule.
struct CodecDecision {
  bool compress = false;  ///< compressed dump costs less energy
  Joules energy_raw{0.0};
  Joules energy_compressed{0.0};

  [[nodiscard]] Joules energy_saved() const noexcept {
    return energy_raw - energy_compressed;
  }
};

/// Prices shipping `dump_bytes` raw versus compress-then-ship on `spec`
/// through `transit`: two plans under RuleClocks{rule}, each stage at its
/// Eqn 3 frequency.
[[nodiscard]] CodecDecision compress_or_raw(
    const power::ChipSpec& spec, const CodecCostProfile& codec,
    Bytes dump_bytes, const io::TransitModelConfig& transit,
    const TuningRule& rule);

/// The crossover bandwidth B* in Gbit/s: the link speed at which raw and
/// compressed dumps cost equal energy, located by geometric bisection of
/// transit.link.gigabits_per_second over [0.01, 1000]. Returns the upper
/// bound when compression wins everywhere in range and the lower bound
/// when it never wins.
[[nodiscard]] double crossover_bandwidth_gbps(
    const power::ChipSpec& spec, const CodecCostProfile& codec,
    Bytes dump_bytes, io::TransitModelConfig transit, const TuningRule& rule);

}  // namespace lcp::tuning
