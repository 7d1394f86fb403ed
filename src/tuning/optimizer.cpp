#include "tuning/optimizer.hpp"

namespace lcp::tuning {

SavingsReport evaluate_tuning(const power::ChipSpec& spec,
                              const power::Workload& workload,
                              GigaHertz f_base, GigaHertz f_tuned) {
  SavingsReport r;
  r.f_base = f_base;
  r.f_tuned = f_tuned;
  r.power_base = power::workload_power(workload, spec, f_base);
  r.power_tuned = power::workload_power(workload, spec, f_tuned);
  r.runtime_base = power::workload_runtime(workload, spec, f_base);
  r.runtime_tuned = power::workload_runtime(workload, spec, f_tuned);
  r.energy_base = power::workload_energy(workload, spec, f_base);
  r.energy_tuned = power::workload_energy(workload, spec, f_tuned);
  return r;
}

}  // namespace lcp::tuning
