#include "tuning/codec_choice.hpp"

#include <cmath>

#include "tuning/plan.hpp"

namespace lcp::tuning {

CodecDecision compress_or_raw(const power::ChipSpec& spec,
                              const CodecCostProfile& codec, Bytes dump_bytes,
                              const io::TransitModelConfig& transit,
                              const TuningRule& rule) {
  const double native_seconds =
      dump_bytes.gb() / codec.gigabytes_per_second;
  const auto shipped = Bytes{static_cast<std::uint64_t>(
      static_cast<double>(dump_bytes.bytes()) * codec.ratio)};
  const RuleClocks clocks{rule};
  const Plan raw =
      plan(spec,
           {{"write", io::transit_workload(spec, dump_bytes, transit),
             StageRole::kTransit}},
           clocks)
          .value();
  const Plan compressed =
      plan(spec,
           {{"compress",
             power::compression_workload(spec, Seconds{native_seconds},
                                         codec.cpu_fraction, codec.activity),
             StageRole::kCompute},
            {"write", io::transit_workload(spec, shipped, transit),
             StageRole::kTransit}},
           clocks)
          .value();

  CodecDecision decision;
  decision.energy_raw = raw.energy;
  decision.energy_compressed = compressed.energy;
  decision.compress = decision.energy_compressed < decision.energy_raw;
  return decision;
}

double crossover_bandwidth_gbps(const power::ChipSpec& spec,
                                const CodecCostProfile& codec,
                                Bytes dump_bytes,
                                io::TransitModelConfig transit,
                                const TuningRule& rule) {
  const auto compression_wins = [&](double gbps) {
    transit.link.gigabits_per_second = gbps;
    return compress_or_raw(spec, codec, dump_bytes, transit, rule).compress;
  };
  double lo = 0.01;
  double hi = 1000.0;
  if (!compression_wins(lo)) {
    return lo;  // raw wins even on the slowest link in range
  }
  if (compression_wins(hi)) {
    return hi;  // compression wins across the whole range
  }
  // The energy gap is monotone in bandwidth (the raw plan's wire floor
  // shrinks over B bytes, the compressed plan's over B * ratio < B), so
  // the sign changes exactly once. Geometric steps: the range spans five
  // decades.
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (compression_wins(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

}  // namespace lcp::tuning
