#pragma once
// Tuning evaluation: given a workload on a chip, quantify what a frequency
// change does to power, runtime and energy — the numbers behind the
// paper's 19.4%/11.2%/14.3% headline claims. The DVFS grid searches (the
// energy-optimal point, the fastest point under a power cap) are
// objectives of tuning::plan.

#include "power/chip_model.hpp"
#include "power/workload.hpp"
#include "support/units.hpp"

namespace lcp::tuning {

/// Effect of moving one workload from f_base to f_tuned.
struct SavingsReport {
  GigaHertz f_base;
  GigaHertz f_tuned;
  Watts power_base;
  Watts power_tuned;
  Seconds runtime_base;
  Seconds runtime_tuned;
  Joules energy_base;
  Joules energy_tuned;

  /// 1 - P_tuned / P_base.
  [[nodiscard]] double power_savings() const noexcept {
    return 1.0 - power_tuned / power_base;
  }
  /// t_tuned / t_base - 1.
  [[nodiscard]] double runtime_increase() const noexcept {
    return runtime_tuned / runtime_base - 1.0;
  }
  /// 1 - E_tuned / E_base.
  [[nodiscard]] double energy_savings() const noexcept {
    return 1.0 - energy_tuned / energy_base;
  }
};

/// Noise-free model evaluation of a retune (analysis, not measurement).
[[nodiscard]] SavingsReport evaluate_tuning(const power::ChipSpec& spec,
                                            const power::Workload& workload,
                                            GigaHertz f_base,
                                            GigaHertz f_tuned);

}  // namespace lcp::tuning
