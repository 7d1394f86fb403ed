#include "power/workload.hpp"

#include <algorithm>

#include "power/chip_model.hpp"
#include "support/status.hpp"

namespace lcp::power {

Seconds workload_runtime(const Workload& w, const ChipSpec& spec,
                         GigaHertz f) noexcept {
  const double t_cpu = w.cpu_ghz_seconds / (f.ghz() * spec.perf_factor);
  const double busy = std::max(t_cpu, w.floor_seconds.seconds());
  return Seconds{busy + w.stall_seconds.seconds()};
}

double effective_activity(const Workload& w, const ChipSpec& spec,
                          GigaHertz f) noexcept {
  const double t_cpu = w.cpu_ghz_seconds / (f.ghz() * spec.perf_factor);
  const double busy = std::max(t_cpu, w.floor_seconds.seconds());
  if (busy <= 0.0) {
    // Pure stall: the beta -> 0+ limit (full activity, the package busy
    // on memory traffic). Only a workload with no time at all is idle.
    return w.stall_seconds.seconds() > 0.0 ? w.activity : 0.0;
  }
  // Stall time counts as active-but-waiting (memory traffic keeps the
  // package busy); only the pipeline floor idles the core.
  const double utilization = std::min(1.0, t_cpu / busy);
  return w.activity * (0.25 + 0.75 * utilization);
}

Watts workload_power(const Workload& w, const ChipSpec& spec,
                     GigaHertz f) noexcept {
  return package_power(spec, f, effective_activity(w, spec, f));
}

Joules workload_energy(const Workload& w, const ChipSpec& spec,
                       GigaHertz f) noexcept {
  return workload_power(w, spec, f) * workload_runtime(w, spec, f);
}

Workload compression_workload(const ChipSpec& spec, Seconds native_seconds,
                              double cpu_fraction, double activity,
                              double reference_ghz) {
  LCP_REQUIRE(cpu_fraction >= 0.0 && cpu_fraction <= 1.0,
              "cpu_fraction must be in [0, 1]");
  // Project the native calibration run onto this chip: wall time at the
  // chip's max clock stretches by the single-core speed ratio, and
  // `cpu_fraction` is interpreted as the cpu-bound share *at f_max* (the
  // beta that governs the runtime/frequency trade-off).
  const double speedup = spec.f_max.ghz() * spec.perf_factor / reference_ghz;
  const double t_fmax = native_seconds.seconds() / speedup;
  Workload w;
  w.cpu_ghz_seconds =
      cpu_fraction * t_fmax * spec.f_max.ghz() * spec.perf_factor;
  w.stall_seconds = Seconds{(1.0 - cpu_fraction) * t_fmax};
  w.floor_seconds = Seconds{0.0};
  w.activity = activity;
  return w;
}

}  // namespace lcp::power
