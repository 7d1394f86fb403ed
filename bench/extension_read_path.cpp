// Extension — the read path of the paper's I/O story: fetch 512 GB of
// SZ-compressed NYX from the NFS and decompress it for analysis, base
// clock vs the Eqn 3 fractions applied to the inverse pipeline. Not a
// paper artifact; quantifies how the tuning framework transfers to the
// consumer side.

#include <cstdio>

#include "common.hpp"
#include "core/fetch_experiment.hpp"

int main() {
  using namespace lcp;
  bench::print_banner(
      "X1", "extension — 512 GB read path (fetch + decompress)",
      "no paper counterpart; Eqn 3 fractions applied to read (0.85) and "
      "decompress (0.875) stages");

  core::FetchConfig cfg;
  const auto result = core::run_fetch_experiment(cfg);
  if (!result) {
    std::fprintf(stderr, "fetch experiment failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }

  Table table{{"error bound", "CR", "compressed", "E base (kJ)",
               "E tuned (kJ)", "saved (%)", "runtime +%"}};
  table.set_title("read path, base clock vs tuned");
  for (const auto& o : result->outcomes) {
    table.add_row({format_scientific(o.error_bound, 0),
                   format_double(o.compression_ratio, 1),
                   format_double(o.compressed_bytes.gb(), 1) + "GB",
                   format_double(o.plan.base.energy.kj(), 2),
                   format_double(o.plan.tuned.energy.kj(), 2),
                   format_percent(o.plan.energy_savings(), 1),
                   format_percent(o.plan.runtime_increase(), 1)});
  }
  std::printf("%s", table.render().c_str());

  bench::print_comparison("tuned always below base", "expected",
                          result->mean_energy_savings() > 0.0 ? "yes" : "NO");
  bench::print_comparison(
      "mean energy saved", "(read path, no paper value)",
      format_double(result->mean_energy_saved().kj(), 2) + " kJ");
  std::printf(
      "\nReading: decompression is cheaper than compression, so the read\n"
      "path's absolute energy is lower than Fig 6's dump; the relative\n"
      "savings of frequency tuning carry over to the consumer side.\n");
  return 0;
}
