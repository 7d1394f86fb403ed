// lcpower_cli: a small command-line front end over the library, in the
// spirit of the sz/zfp executables plus the paper's tuning workflow.
//
//   lcpower_cli compress  <dataset> <codec> <abs_eb>     round-trip report
//     codecs: sz | sz2 (second-order predictor) | zfp
//   lcpower_cli sweep     <chip> <codec> <abs_eb>        DVFS sweep + fit
//   lcpower_cli dump      <chip> <gb> <abs_eb>           Fig 6-style plan
//   lcpower_cli datasets                                 list datasets
//
// datasets: cesm | hacc | nyx | isabel    codecs: sz | zfp
// chips: broadwell | skylake

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "compress/common/metrics.hpp"
#include "compress/common/registry.hpp"
#include "core/compression_study.hpp"
#include "core/dump_experiment.hpp"
#include "core/platform.hpp"
#include "core/sweep.hpp"
#include "data/registry.hpp"
#include "model/power_law.hpp"
#include "support/ascii_plot.hpp"
#include "tuning/rule.hpp"

namespace {

using namespace lcp;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s datasets\n"
               "  %s compress <cesm|hacc|nyx|isabel> <sz|sz2|zfp> <abs_eb>\n"
               "  %s sweep <broadwell|skylake> <sz|zfp> <abs_eb>\n"
               "  %s dump <broadwell|skylake> <gb> <abs_eb>\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

bool parse_dataset(const std::string& name, data::DatasetId& out) {
  if (name == "cesm") {
    out = data::DatasetId::kCesmAtm;
  } else if (name == "hacc") {
    out = data::DatasetId::kHacc;
  } else if (name == "nyx") {
    out = data::DatasetId::kNyx;
  } else if (name == "isabel") {
    out = data::DatasetId::kIsabel;
  } else {
    return false;
  }
  return true;
}

bool parse_chip(const std::string& name, power::ChipId& out) {
  if (name == "broadwell") {
    out = power::ChipId::kBroadwellD1548;
  } else if (name == "skylake") {
    out = power::ChipId::kSkylake4114;
  } else {
    return false;
  }
  return true;
}

int cmd_datasets() {
  for (const auto& spec : data::table1_datasets()) {
    std::printf("%-10s paper %-16s ci %-12s %.1f MB\n", spec.domain.c_str(),
                spec.paper_dims.to_string().c_str(),
                spec.ci_dims.to_string().c_str(), spec.paper_size_mb);
  }
  const auto& isabel = data::isabel_dataset();
  std::printf("%-10s paper %-16s ci %-12s (validation set)\n",
              isabel.domain.c_str(), isabel.paper_dims.to_string().c_str(),
              isabel.ci_dims.to_string().c_str());
  return 0;
}

int cmd_compress(const std::string& dataset_name, const std::string& codec_name,
                 double eb) {
  data::DatasetId dataset{};
  if (!parse_dataset(dataset_name, dataset)) {
    return 2;
  }
  auto codec = compress::make_compressor(codec_name);
  if (!codec) {
    std::fprintf(stderr, "%s\n", codec.status().to_string().c_str());
    return 2;
  }
  const auto field = data::generate_dataset(dataset, data::Scale::kCi, 42);
  const auto report = compress::round_trip(
      **codec, field, compress::ErrorBound::absolute(eb));
  if (!report) {
    std::fprintf(stderr, "compress failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf(
      "dataset   : %s %s (%.1f MB)\n"
      "codec     : %s, abs bound %.3e\n"
      "ratio     : %.3fx (%.3f bits/value)\n"
      "max |err| : %.3e (%s)\n"
      "psnr      : %.1f dB\n"
      "compress  : %.1f ms   decompress: %.1f ms\n",
      field.name().c_str(), field.dims().to_string().c_str(),
      field.size_bytes().mb(), report->codec.c_str(), eb,
      report->compression_ratio, report->bit_rate,
      report->error.max_abs_error,
      report->bound_respected ? "within bound" : "BOUND VIOLATED",
      report->error.psnr_db, report->compress_time.ms(),
      report->decompress_time.ms());
  return report->bound_respected ? 0 : 1;
}

int cmd_sweep(const std::string& chip_name, const std::string& codec_name,
              double eb) {
  power::ChipId chip{};
  if (!parse_chip(chip_name, chip)) {
    return 2;
  }
  const compress::CodecId codec_id = codec_name == "sz"
                                         ? compress::CodecId::kSz
                                         : compress::CodecId::kZfp;
  const auto cal = core::calibrate_codec(codec_id, data::DatasetId::kNyx, eb,
                                         data::Scale::kCi, 42);
  if (!cal) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 cal.status().to_string().c_str());
    return 1;
  }
  core::Platform node{chip, power::NoiseModel{}, 7};
  const auto workload = core::workload_from_calibration(*cal, node.spec());
  const auto sweep = core::frequency_sweep(node, workload, 10);
  const auto power_curve =
      core::scale_by_max_frequency(sweep, core::SweepMetric::kPower);
  const auto runtime_curve =
      core::scale_by_max_frequency(sweep, core::SweepMetric::kRuntime);

  PlotSeries p{"power", 'P', power_curve.f_ghz, power_curve.value};
  PlotSeries t{"runtime", 'T', runtime_curve.f_ghz, runtime_curve.value};
  PlotOptions options;
  options.title = "scaled power (P) and runtime (T) vs frequency — " +
                  node.spec().series + " / " + codec_name;
  options.x_label = "GHz";
  options.y_label = "value / value@f_max";
  std::printf("%s", render_plot({p, t}, options).c_str());

  const auto fit = model::fit_power_law(power_curve.f_ghz, power_curve.value);
  if (fit) {
    std::printf("\nfitted: P(f)/P(f_max) = %s  (SSE %.4f RMSE %.4f R^2 %.4f)\n",
                fit->to_string().c_str(), fit->stats.sse, fit->stats.rmse,
                fit->stats.r_squared);
  }
  return 0;
}

int cmd_dump(const std::string& chip_name, double gb, double eb) {
  power::ChipId chip{};
  if (!parse_chip(chip_name, chip) || gb <= 0.0) {
    return 2;
  }
  core::DumpConfig cfg;
  cfg.chip = chip;
  cfg.total_bytes = Bytes::from_gb(gb);
  cfg.error_bounds = {eb};
  const auto result = core::run_dump_experiment(cfg);
  if (!result) {
    std::fprintf(stderr, "dump failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  const auto& o = result->outcomes[0];
  std::printf(
      "dump %.0f GB NYX via SZ(%.0e) on %s over 10GbE NFS\n"
      "  compression ratio : %.2fx -> %.1f GB on the wire\n"
      "  base clock        : %.2f kJ in %.0f s\n"
      "  Eqn 3 tuned       : %.2f kJ in %.0f s\n"
      "  savings           : %.2f kJ (%.1f%%), +%.1f%% runtime\n",
      gb, eb, chip_name.c_str(), o.compression_ratio,
      o.compressed_bytes.gb(), o.plan.base.energy.kj(),
      o.plan.base.runtime.seconds(), o.plan.tuned.energy.kj(),
      o.plan.tuned.runtime.seconds(), o.plan.energy_saved().kj(),
      100.0 * o.plan.energy_savings(),
      100.0 * o.plan.runtime_increase());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage(argv[0]);
  }
  const std::string cmd = argv[1];
  if (cmd == "datasets") {
    return cmd_datasets();
  }
  if (cmd == "compress" && argc == 5) {
    return cmd_compress(argv[2], argv[3], std::atof(argv[4]));
  }
  if (cmd == "sweep" && argc == 5) {
    const std::string codec = argv[3];
    if (codec != "sz" && codec != "zfp") {
      return usage(argv[0]);
    }
    return cmd_sweep(argv[2], codec, std::atof(argv[4]));
  }
  if (cmd == "dump" && argc == 5) {
    return cmd_dump(argv[2], std::atof(argv[3]), std::atof(argv[4]));
  }
  return usage(argv[0]);
}
