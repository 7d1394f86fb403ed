// Figure 6 — energy dissipation for data dumping: compress 512 GB of NYX
// with SZ and write it over the NFS, base clock vs the Eqn 3 tuned plan,
// across error bounds 1e-1..1e-4. Paper: tuned always lower; 6.5 kJ / 13%
// saved on average.

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "common.hpp"
#include "core/dump_experiment.hpp"

int main() {
  using namespace lcp;
  bench::print_banner(
      "F6", "Fig 6 — energy dissipation for data dumping (512 GB NYX, SZ)",
      "tuned plan always below base clock; mean saving 6.5 kJ = 13%");

  core::DumpConfig cfg;  // defaults: 512 GB, Broadwell, SZ, Eqn 3 rule
  const auto result = core::run_dump_experiment(cfg);
  if (!result) {
    std::fprintf(stderr, "dump experiment failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }

  Table table{{"error bound", "CR", "compressed", "E base (kJ)",
               "E tuned (kJ)", "saved (kJ)", "saved (%)", "runtime +%"}};
  table.set_title("Fig 6 data (reproduced)");
  for (const auto& o : result->outcomes) {
    table.add_row({format_scientific(o.error_bound, 0),
                   format_double(o.compression_ratio, 1),
                   format_double(o.compressed_bytes.gb(), 1) + "GB",
                   format_double(o.plan.base.energy.kj(), 2),
                   format_double(o.plan.tuned.energy.kj(), 2),
                   format_double(o.plan.energy_saved().kj(), 2),
                   format_percent(o.plan.energy_savings(), 1),
                   format_percent(o.plan.runtime_increase(), 1)});
  }
  std::printf("%s", table.render().c_str());

  // Bar-chart style rendering of base vs tuned per bound.
  std::printf("\n");
  for (const auto& o : result->outcomes) {
    const double base_kj = o.plan.base.energy.kj();
    const double tuned_kj = o.plan.tuned.energy.kj();
    const double unit = base_kj / 50.0;
    std::printf("  eb=%-6.0e base  |%s %.1f kJ\n", o.error_bound,
                std::string(static_cast<std::size_t>(base_kj / unit), '#')
                    .c_str(),
                base_kj);
    std::printf("           tuned |%s %.1f kJ\n",
                std::string(static_cast<std::size_t>(tuned_kj / unit), '#')
                    .c_str(),
                tuned_kj);
  }

  bool always_lower = true;
  for (const auto& o : result->outcomes) {
    always_lower &= o.plan.tuned.energy < o.plan.base.energy;
  }
  std::printf("\nShape checks vs the paper:\n");
  bench::print_comparison("tuned always below base clock", "yes",
                          always_lower ? "yes" : "NO");
  bench::print_comparison("mean energy saved", "6.5 kJ",
                          format_double(result->mean_energy_saved().kj(), 2) +
                              " kJ");
  bench::print_comparison("mean energy savings", "13%",
                          format_percent(result->mean_energy_savings(), 1));
  std::printf(
      "\nNote: the paper's own Table IV/V models imply ~5-7%% net energy\n"
      "savings for Eqn 3 (power ratio x runtime ratio); its measured 13%%\n"
      "exceeds what its fitted models predict. This reproduction follows\n"
      "the models (see EXPERIMENTS.md).\n");

  CsvWriter csv{{"error_bound", "cr", "compressed_gb", "energy_base_kj",
                 "energy_tuned_kj"}};
  for (const auto& o : result->outcomes) {
    csv.add_row({format_scientific(o.error_bound, 1),
                 format_double(o.compression_ratio, 2),
                 format_double(o.compressed_bytes.gb(), 2),
                 format_double(o.plan.base.energy.kj(), 3),
                 format_double(o.plan.tuned.energy.kj(), 3)});
  }
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  bench::emit_csv(csv, "bench_out/fig6_data_dumping.csv");
  return 0;
}
