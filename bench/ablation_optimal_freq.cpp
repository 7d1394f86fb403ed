// Ablation — Eqn 3's fixed fractions vs the true energy-optimal DVFS
// point per chip and stage: how much does the paper's one-size rule leave
// on the table?

#include <cstdio>

#include "common.hpp"
#include "io/transit_model.hpp"
#include "tuning/optimizer.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

int main() {
  using namespace lcp;
  bench::print_banner(
      "A3", "ablation — Eqn 3 fixed rule vs per-workload energy optimum",
      "Eqn 3 uses 0.875/0.85 f_max for every chip; the model can find the "
      "exact grid optimum");

  const auto rule = tuning::paper_rule();
  Table table{{"stage", "chip", "Eqn3 f", "Eqn3 saved", "optimal f",
               "optimal saved", "left on table"}};

  for (power::ChipId id : power::all_chips()) {
    const auto& spec = power::chip(id);
    struct Stage {
      const char* name;
      power::Workload workload;
      GigaHertz rule_f;
    };
    const Stage stages[] = {
        {"compression",
         power::compression_workload(spec, Seconds{10.0}, 0.53, 1.0),
         rule.compression_frequency(spec.f_max)},
        {"data writing", io::transit_workload(spec, Bytes::from_gb(4), {}),
         rule.transit_frequency(spec.f_max)},
    };
    for (const auto& stage : stages) {
      const auto rule_report = tuning::evaluate_tuning(
          spec, stage.workload, spec.f_max, stage.rule_f);
      const auto f_opt =
          tuning::plan(spec, {{stage.name, stage.workload}},
                       tuning::MinEnergy{})
              .value()
              .stages[0]
              .frequency;
      const auto opt_report =
          tuning::evaluate_tuning(spec, stage.workload, spec.f_max, f_opt);
      table.add_row(
          {stage.name, spec.series,
           format_double(stage.rule_f.ghz(), 2) + "GHz",
           format_percent(rule_report.energy_savings(), 1),
           format_double(f_opt.ghz(), 2) + "GHz",
           format_percent(opt_report.energy_savings(), 1),
           format_percent(opt_report.energy_savings() -
                              rule_report.energy_savings(),
                          1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: per-workload optimization beats the fixed rule, at the\n"
      "cost of longer runtimes (the optimum ignores time). Eqn 3 trades a\n"
      "few points of savings for a bounded runtime penalty — the 'future\n"
      "work' per-CPU tuning the paper's conclusion anticipates.\n");
  return 0;
}
