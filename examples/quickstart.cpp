// Quickstart: the five-minute tour of the lcpower public API.
//
//  1. generate a scientific field,
//  2. compress it with SZ and ZFP under an absolute error bound,
//  3. measure the energy of that compression on a simulated CloudLab node
//     across its DVFS range,
//  4. fit the paper's power model P(f) = a f^b + c,
//  5. apply the Eqn 3 tuning rule and report the savings.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "compress/common/metrics.hpp"
#include "compress/common/registry.hpp"
#include "core/model_tables.hpp"
#include "core/platform.hpp"
#include "core/sweep.hpp"
#include "data/generators.hpp"
#include "model/power_law.hpp"
#include "tuning/optimizer.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

int main() {
  using namespace lcp;

  // 1. A CESM-ATM-like climate field (13 levels of 90x180 lat-lon).
  const auto field = data::generate_cesm_atm(13, 90, 180, /*seed=*/42);
  std::printf("field: %s  %s  %.1f MB\n", field.name().c_str(),
              field.dims().to_string().c_str(), field.size_bytes().mb());

  // 2. Compress with both codecs at a 1e-3 absolute bound and verify.
  const auto bound = compress::ErrorBound::absolute(1e-3);
  for (compress::CodecId id : compress::all_codecs()) {
    const auto codec = compress::make_compressor(id);
    const auto report = compress::round_trip(*codec, field, bound);
    if (!report) {
      std::fprintf(stderr, "%s failed: %s\n", codec->name().c_str(),
                   report.status().to_string().c_str());
      return 1;
    }
    std::printf(
        "%-4s ratio %.2fx  bitrate %.2f bits/val  max|err| %.2e  "
        "bound %s  (%.0f ms compress)\n",
        codec->name().c_str(), report->compression_ratio, report->bit_rate,
        report->error.max_abs_error,
        report->bound_respected ? "OK" : "VIOLATED",
        report->compress_time.ms());
  }

  // 3. Sweep the Broadwell m510 node's DVFS range, 10 repeats per step,
  //    with the compression workload calibrated from the SZ run above.
  core::Platform node{power::ChipId::kBroadwellD1548, power::NoiseModel{},
                      /*seed=*/7};
  const auto sz = compress::make_compressor(compress::CodecId::kSz);
  const auto sz_report = compress::round_trip(*sz, field, bound);
  const auto workload = power::compression_workload(
      node.spec(), sz_report->compress_time, /*cpu_fraction=*/0.53,
      /*activity=*/1.0);
  const auto sweep = core::frequency_sweep(node, workload, /*repeats=*/10);
  std::printf("\nDVFS sweep on %s (%s): %zu grid points\n",
              node.spec().cpu_name.c_str(), node.spec().series.c_str(),
              sweep.size());

  // 4. Fit the paper's model to the scaled power curve.
  const auto curve = core::scale_by_max_frequency(sweep,
                                                  core::SweepMetric::kPower);
  const auto fit = model::fit_power_law(curve.f_ghz, curve.value);
  if (!fit) {
    std::fprintf(stderr, "fit failed: %s\n", fit.status().to_string().c_str());
    return 1;
  }
  std::printf("fitted power model: P(f)/P(f_max) = %s   (RMSE %.4f)\n",
              fit->to_string().c_str(), fit->stats.rmse);

  // 5. Apply Eqn 3 and report what it buys.
  const auto rule = tuning::paper_rule();
  const auto report = tuning::evaluate_tuning(
      node.spec(), workload, node.spec().f_max,
      rule.compression_frequency(node.spec().f_max));
  std::printf(
      "\nEqn 3 tuning (%.2f GHz -> %.2f GHz):\n"
      "  power  %.1f W -> %.1f W  (-%.1f%%)\n"
      "  time   %.2f s -> %.2f s  (+%.1f%%)\n"
      "  energy %.1f J -> %.1f J  (-%.1f%%)\n",
      report.f_base.ghz(), report.f_tuned.ghz(), report.power_base.watts(),
      report.power_tuned.watts(), 100.0 * report.power_savings(),
      report.runtime_base.seconds(), report.runtime_tuned.seconds(),
      100.0 * report.runtime_increase(), report.energy_base.joules(),
      report.energy_tuned.joules(), 100.0 * report.energy_savings());

  const auto f_opt =
      tuning::plan(node.spec(), {{"compress", workload}}, tuning::MinEnergy{})
          .value()
          .stages[0]
          .frequency;
  std::printf("energy-optimal DVFS point for this workload: %.2f GHz\n",
              f_opt.ghz());
  return 0;
}
