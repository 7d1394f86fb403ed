#pragma once
// Workload descriptor: the frequency-independent characterization of one
// job (a compression run or an NFS write) that the platform simulator maps
// to runtime/power/energy at any DVFS point.
//
// Runtime model:   t(f) = cpu_ghz_seconds / (f * perf_factor) + stall_seconds
// with an optional pipeline floor (wire/disk) for I/O workloads:
//                  t(f) = max(t_cpu(f), floor_seconds) + setup_seconds + stall...
// The cpu-bound fraction beta at f_max determines how runtime reacts to
// frequency tuning — the quantity behind the paper's +7.5%/+9.3% runtime
// trade-offs.

#include "support/units.hpp"

namespace lcp::power {

struct ChipSpec;  // chip_model.hpp

/// One simulatable job.
struct Workload {
  /// Core work in GHz-seconds: cycles / 1e9. Time share that scales ~1/f.
  double cpu_ghz_seconds = 0.0;
  /// Frequency-invariant share (memory stalls, fixed software overhead).
  Seconds stall_seconds{0.0};
  /// Hard lower bound on wall time imposed by an external pipeline stage
  /// (network wire or server disk); 0 for pure-compute jobs.
  Seconds floor_seconds{0.0};
  /// Dynamic activity factor of the package while the job runs (0..1),
  /// scaled down further when the CPU idles against floor_seconds.
  double activity = 1.0;
};

/// Wall time of `w` on `spec` at frequency `f`.
[[nodiscard]] Seconds workload_runtime(const Workload& w, const ChipSpec& spec,
                                       GigaHertz f) noexcept;

/// Effective activity factor at `f`: when the pipeline floor dominates, the
/// core stalls and dynamic activity drops proportionally to utilization.
/// A pure-stall workload (stall time, no cpu time, no floor) runs at full
/// `activity`, the limit of a vanishing cpu share; only a workload with no
/// time at all has activity 0.
[[nodiscard]] double effective_activity(const Workload& w, const ChipSpec& spec,
                                        GigaHertz f) noexcept;

/// Mean package power while running `w` at `f`.
[[nodiscard]] Watts workload_power(const Workload& w, const ChipSpec& spec,
                                   GigaHertz f) noexcept;

/// Energy = power * runtime (Eqn 1).
[[nodiscard]] Joules workload_energy(const Workload& w, const ChipSpec& spec,
                                     GigaHertz f) noexcept;

/// Builds a compression workload for `spec` from a native calibration run.
///
/// `native_seconds` is the wall time measured on the build host (assumed
/// running at `reference_ghz`); `cpu_fraction` is the share of that time
/// that scales with core frequency (SZ/ZFP are partially memory-bound).
[[nodiscard]] Workload compression_workload(const ChipSpec& spec,
                                            Seconds native_seconds,
                                            double cpu_fraction,
                                            double activity,
                                            double reference_ghz = 3.0);

}  // namespace lcp::power
