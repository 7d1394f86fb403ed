// Power-budget advisor: the operator-facing use of the power model. Given
// a per-node package power cap (the "limited power budgets" the abstract
// targets), recommend the highest DVFS point whose modeled compression /
// I/O power stays under the cap, and show the runtime cost of honoring it.
//
// Build & run:  ./build/examples/power_budget_advisor [cap_watts]

#include <cstdio>
#include <cstdlib>

#include "core/platform.hpp"
#include "io/transit_model.hpp"
#include "power/workload.hpp"
#include "tuning/optimizer.hpp"
#include "tuning/plan.hpp"

int main(int argc, char** argv) {
  using namespace lcp;
  const double cap_watts = argc > 1 ? std::atof(argv[1]) : 11.0;
  if (cap_watts <= 0.0) {
    std::fprintf(stderr, "usage: %s [cap_watts > 0]\n", argv[0]);
    return 2;
  }
  const Watts cap{cap_watts};

  std::printf("power-budget advisor: package cap %.1f W per node\n\n",
              cap.watts());

  for (power::ChipId id : power::all_chips()) {
    const auto& spec = power::chip(id);
    std::printf("%s (%s, TDP %.0f W)\n", spec.cpu_name.c_str(),
                spec.series.c_str(), spec.tdp.watts());

    struct Scenario {
      const char* name;
      power::Workload workload;
    };
    const Scenario scenarios[] = {
        {"SZ compression",
         power::compression_workload(spec, Seconds{10.0}, 0.53, 1.0)},
        {"ZFP compression",
         power::compression_workload(spec, Seconds{10.0}, 0.50, 0.94)},
        {"NFS write 4GB",
         io::transit_workload(spec, Bytes::from_gb(4), {})},
    };
    for (const auto& s : scenarios) {
      // The highest grid frequency whose modeled power is within the cap.
      const auto capped =
          tuning::plan(spec, {{s.name, s.workload}}, tuning::PowerCap{cap});
      if (!capped) {
        std::printf(
            "  %-16s cap infeasible: even %.2f GHz draws %.1f W\n", s.name,
            spec.f_min.ghz(),
            power::workload_power(s.workload, spec, spec.f_min).watts());
        continue;
      }
      const GigaHertz f = capped->stages[0].frequency;
      const auto report =
          tuning::evaluate_tuning(spec, s.workload, spec.f_max, f);
      std::printf(
          "  %-16s run at %.2f GHz (%.0f%% of max): %.1f W, runtime "
          "+%.1f%%, energy %+.1f%%\n",
          s.name, f.ghz(), 100.0 * f.ghz() / spec.f_max.ghz(),
          report.power_tuned.watts(), 100.0 * report.runtime_increase(),
          -100.0 * report.energy_savings());
    }
    std::printf("\n");
  }

  std::printf(
      "Note: runtimes are relative to the chip's own max clock; energy is\n"
      "negative when the cap also saves net joules (paper Section V-A.3).\n");
  return 0;
}
