// Extension — streaming dump overlap ladder. The paper's Figure 6 dump is
// strictly serial: compress everything, then write everything. The
// streaming engine (core/streaming_dump.hpp) pipelines the two stages
// over S slabs, contracting the makespan to max(tc, tt) + min(tc, tt)/S
// and crediting the hidden time against static (package-idle) energy.
// This bench walks that credit across pipeline depth and worker count:
//
//   - depth ladder: runtime/energy of the overlapped tuned plan vs the
//     serial tuned plan as S grows (S = 1 must reproduce serial exactly);
//   - worker ladder: the compression stage's cpu share divides across w
//     workers (the write stage stays wire/disk-bound), shifting which
//     stage is critical and how much overlap there is left to hide.

#include <cstdio>

#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dump_experiment.hpp"
#include "io/transit_model.hpp"
#include "support/ascii_plot.hpp"
#include "support/csv.hpp"
#include "tuning/plan.hpp"

namespace {

/// Compression workload with its core work split across `workers`
/// (chunk-parallel compression; the frequency-invariant share stays).
lcp::power::Workload split_compute(const lcp::power::Workload& w,
                                   std::size_t workers) {
  lcp::power::Workload out = w;
  out.cpu_ghz_seconds /= static_cast<double>(workers == 0 ? 1 : workers);
  return out;
}

/// The Fig. 6 dump pipelined over `depth` slabs, f_max vs the Eqn 3 rule.
lcp::tuning::PlanComparison overlapped(const lcp::power::ChipSpec& spec,
                                       const lcp::power::Workload& compress_w,
                                       const lcp::power::Workload& write_w,
                                       std::size_t depth) {
  using lcp::tuning::StageRole;
  return lcp::tuning::compare(spec,
                              {{"compress", compress_w, StageRole::kCompute},
                               {"write", write_w, StageRole::kTransit}},
                              {lcp::tuning::paper_rule(), depth});
}

}  // namespace

int main() {
  using namespace lcp;
  bench::print_banner(
      "X4", "Extension — overlapped compress/write dump pipeline",
      "pipelining the Fig. 6 dump stages over S slabs hides "
      "min(compress, write) * (1 - 1/S) of runtime and its static energy");

  // Same calibration path as the Fig. 6 dump experiment, CI scale.
  const auto& spec = power::chip(power::ChipId::kBroadwellD1548);
  const io::TransitModelConfig transit;
  const Bytes volume = Bytes::from_gb(512);

  auto cal = core::calibrate_codec(compress::CodecId::kSz,
                                   data::DatasetId::kNyx, 1e-3,
                                   data::Scale::kCi, 20220530);
  LCP_REQUIRE(cal.has_value(), "calibration failed");
  const core::Calibration full = core::scale_to_volume(*cal, volume);
  const power::Workload compress_w = core::workload_from_calibration(full, spec);
  const power::Workload write_w = io::transit_workload(
      spec, core::dump_bytes(full), transit);

  CsvWriter csv{{"pipeline_depth", "workers", "runtime_serial_s",
                 "runtime_overlap_s", "energy_serial_j", "energy_overlap_j",
                 "overlap_saved_s", "energy_savings_vs_base"}};

  // --- Depth ladder at 1 worker -------------------------------------------
  std::printf("  depth ladder (1 worker, tuned clocks):\n");
  std::printf("  %7s %14s %14s %14s %14s\n", "depth", "serial s", "overlap s",
              "serial J", "overlap J");
  PlotSeries depth_series;
  depth_series.name = "runtime vs depth";
  depth_series.glyph = 'D';
  bool depth_monotone = true;
  bool depth1_exact = false;
  double prev_runtime = 0.0;
  for (std::size_t depth : {1, 2, 4, 8, 16, 32}) {
    const auto plan = overlapped(spec, compress_w, write_w, depth);
    const double serial_s = plan.tuned.serial_runtime().seconds();
    const double overlap_s = plan.tuned.runtime.seconds();
    const double serial_j = plan.tuned.serial_energy().joules();
    if (depth == 1) {
      depth1_exact =
          overlap_s == serial_s && plan.tuned.energy.joules() == serial_j;
    } else if (overlap_s > prev_runtime) {
      depth_monotone = false;
    }
    prev_runtime = overlap_s;
    depth_series.x.push_back(static_cast<double>(depth));
    depth_series.y.push_back(overlap_s);
    std::printf("  %7zu %14.1f %14.1f %14.1f %14.1f\n", depth, serial_s,
                overlap_s, serial_j, plan.tuned.energy.joules());
    csv.add_row({std::to_string(depth), "1", format_double(serial_s, 2),
                 format_double(overlap_s, 2), format_double(serial_j, 1),
                 format_double(plan.tuned.energy.joules(), 1),
                 format_double(serial_s - overlap_s, 2),
                 format_double(plan.energy_savings(), 4)});
  }

  PlotOptions opts;
  opts.title = "Overlapped dump runtime vs pipeline depth (tuned)";
  opts.x_label = "depth";
  opts.y_label = "s";
  std::printf("%s\n", render_plot({depth_series}, opts).c_str());

  // --- Worker x depth ladder ----------------------------------------------
  std::printf("  worker ladder (overlapped tuned runtime s / energy kJ):\n");
  std::printf("  %8s %18s %18s %18s\n", "workers", "depth 1", "depth 4",
              "depth 16");
  bool overlap_never_worse = true;
  for (std::size_t workers : {1, 2, 4, 8}) {
    const power::Workload cw = split_compute(compress_w, workers);
    std::printf("  %8zu", workers);
    for (std::size_t depth : {1, 4, 16}) {
      const auto plan = overlapped(spec, cw, write_w, depth);
      const double serial_s = plan.tuned.serial_runtime().seconds();
      if (plan.tuned.runtime.seconds() > serial_s + 1e-9) {
        overlap_never_worse = false;
      }
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.0fs / %.0fkJ",
                    plan.tuned.runtime.seconds(),
                    plan.tuned.energy.joules() / 1e3);
      std::printf(" %18s", cell);
      csv.add_row({std::to_string(depth), std::to_string(workers),
                   format_double(serial_s, 2),
                   format_double(plan.tuned.runtime.seconds(), 2),
                   format_double(plan.tuned.serial_energy().joules(), 1),
                   format_double(plan.tuned.energy.joules(), 1),
                   format_double(serial_s - plan.tuned.runtime.seconds(), 2),
                   format_double(plan.energy_savings(), 4)});
    }
    std::printf("\n");
  }

  // The dump experiment rides the same model: overlap=off leaves the
  // outcome bare, overlap=on adds the streaming schedule next to (not
  // instead of) the serial plan — both price the very same stages, so the
  // f_max pipeline's serial sum must equal the serial base plan of the
  // same run exactly. (Cross-run joule equality is not assertable here:
  // calibration re-measures wall time.)
  core::DumpConfig dc;
  dc.error_bounds = {1e-3};
  auto serial_run = core::run_dump_experiment(dc);
  dc.overlap = true;
  dc.overlap_depth = 16;
  auto overlap_run = core::run_dump_experiment(dc);
  LCP_REQUIRE(serial_run.has_value() && overlap_run.has_value(),
              "dump experiment failed");
  const auto& on = overlap_run->outcomes[0];
  const bool off_identical =
      !serial_run->outcomes[0].overlapped && on.overlapped &&
      on.overlap.base.serial_energy().joules() ==
          on.plan.base.energy.joules() &&
      on.overlap.base.serial_runtime().seconds() ==
          on.plan.base.runtime.seconds();

  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  bench::emit_csv(csv, "bench_out/extension_overlap.csv");
  std::printf("\n");

  bench::print_comparison("depth 1 reproduces the serial plan exactly",
                          "yes", depth1_exact ? "yes" : "NO");
  bench::print_comparison("runtime monotone non-increasing in depth", "yes",
                          depth_monotone ? "yes" : "NO");
  bench::print_comparison("overlap never slower than serial", "yes",
                          overlap_never_worse ? "yes" : "NO");
  bench::print_comparison("overlap=off leaves serial plan untouched", "yes",
                          off_identical ? "yes" : "NO");
  return (depth1_exact && depth_monotone && overlap_never_worse &&
          off_identical)
             ? 0
             : 1;
}
