// Extension — replicated incremental checkpoint store. A full dump ships
// every slab every generation; the incremental store ships only the slabs
// whose content hash changed, at the price of R-way replication of what
// it does ship. Two ladders:
//
//   1. Model grid: tuning::incremental_dump_stages priced by
//      tuning::compare over dirty fraction x replication factor, gated on
//      (a) d = 1, R = 1 reproducing the full two-stage dump bit-for-bit,
//      (b) energy monotone in d, and (c) the delta dump never costing more
//      than the full dump it replaces at the same R.
//
//   2. Functional ladder: a 3-replica store takes a 3-generation delta
//      chain over a Nyx field, restores every generation byte-identically
//      (against the classic checkpoint pipeline as reference), survives
//      the loss of any single replica, and still restores after dropping
//      a generation and garbage-collecting its slabs. Replication traffic
//      is priced through the transit model per generation.

#include <cstdio>

#include <algorithm>
#include <filesystem>
#include <ranges>
#include <string>
#include <vector>

#include "common.hpp"
#include "compress/common/checkpoint.hpp"
#include "core/compression_study.hpp"
#include "core/incremental_checkpoint.hpp"
#include "data/generators.hpp"
#include "io/replica_set.hpp"
#include "io/transit_model.hpp"
#include "support/ascii_plot.hpp"
#include "support/csv.hpp"
#include "tuning/io_plan.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

namespace {

using namespace lcp;

/// Copy of `field` with `count` elements bumped starting at `offset` —
/// the dirty region of one generation.
data::Field touch_region(const data::Field& field, std::size_t offset,
                         std::size_t count, float delta) {
  data::Field touched = field;
  const auto values = touched.mutable_values();
  const std::size_t end = std::min(values.size(), offset + count);
  for (std::size_t i = offset; i < end; ++i) {
    values[i] += delta;
  }
  return touched;
}

/// Reference decode: what the classic checkpoint pipeline would hand back
/// for `field` (lossy codecs make the raw field the wrong reference).
Expected<data::Field> reference_roundtrip(
    const data::Field& field, const compress::CheckpointOptions& opts) {
  auto bytes = compress::write_checkpoint(field, opts);
  if (!bytes.has_value()) {
    return bytes.status();
  }
  return compress::read_checkpoint(*bytes);
}

}  // namespace

int main() {
  bench::print_banner(
      "X5", "Extension — replicated incremental checkpoint store",
      "content-hash dirty detection makes dump energy proportional to the "
      "touched fraction; R-way replication prices durability per byte and "
      "restores survive any single replica loss");

  const auto& spec = power::chip(power::ChipId::kBroadwellD1548);
  const tuning::TuningRule rule = tuning::paper_rule();
  const io::TransitModelConfig transit;
  const Bytes volume = Bytes::from_gb(512);

  // --- Model grid: dirty fraction x replication ---------------------------
  auto cal = core::calibrate_codec(compress::CodecId::kSz,
                                   data::DatasetId::kNyx, 1e-3,
                                   data::Scale::kCi, 20220530);
  LCP_REQUIRE(cal.has_value(), "calibration failed");
  const core::Calibration full_cal = core::scale_to_volume(*cal, volume);
  const power::Workload compress_w =
      core::workload_from_calibration(full_cal, spec);
  const power::Workload write_w = io::transit_workload(
      spec, core::dump_bytes(full_cal), transit);
  const auto incremental_plan = [&](const tuning::IncrementalDumpSpec& inc) {
    return tuning::compare(
        spec, tuning::incremental_dump_stages(compress_w, write_w, inc),
        {rule});
  };

  const auto full_plan = tuning::compare(
      spec,
      {{"compress", compress_w, tuning::StageRole::kCompute},
       {"write", write_w, tuning::StageRole::kTransit}},
      {rule});

  tuning::IncrementalDumpSpec degenerate;
  degenerate.dirty_fraction = 1.0;
  degenerate.replicas = 1;
  const auto deg = incremental_plan(degenerate);
  const bool degeneracy_exact =
      deg.tuned.energy.joules() == full_plan.tuned.energy.joules() &&
      deg.base.energy.joules() == full_plan.base.energy.joules() &&
      deg.tuned.runtime.seconds() == full_plan.tuned.runtime.seconds() &&
      deg.base.runtime.seconds() == full_plan.base.runtime.seconds();
  bench::print_comparison(
      "incremental plan (d=1, R=1) == two-stage dump plan (bit-for-bit)",
      "yes", degeneracy_exact ? "yes" : "NO");

  const std::vector<double> dirties = {0.02, 0.05, 0.10, 0.25, 0.50, 1.00};
  const std::vector<std::size_t> replication = {1, 2, 3};
  CsvWriter grid_csv{{"dirty_fraction", "replicas", "energy_tuned_j",
                      "runtime_tuned_s", "savings_vs_full"}};
  std::vector<PlotSeries> series;
  bool grid_monotone = true;
  bool never_worse_than_full = true;
  std::printf("\n  tuned dump energy, 512 GB Nyx/sz field:\n");
  std::printf("  %8s %4s %16s %14s %14s\n", "dirty", "R", "energy J",
              "runtime s", "vs full dump");
  for (std::size_t r : replication) {
    PlotSeries s;
    s.name = "R=" + std::to_string(r);
    s.glyph = static_cast<char>('0' + r);
    double prev = 0.0;
    for (double d : dirties) {
      tuning::IncrementalDumpSpec inc_spec;
      inc_spec.dirty_fraction = d;
      inc_spec.replicas = r;
      const auto plan = incremental_plan(inc_spec);
      const double joules = plan.tuned.energy.joules();
      const double saved_vs_full = full_plan.tuned.energy.joules() - joules;
      if (!s.x.empty() && joules < prev) {
        grid_monotone = false;
      }
      prev = joules;
      // At R = 1 the full dump is the ceiling: no dirty fraction may cost
      // more than re-shipping everything (d = 1 meets it exactly).
      if (r == 1 && joules > full_plan.tuned.energy.joules()) {
        never_worse_than_full = false;
      }
      grid_csv.add_row({format_double(d, 2), std::to_string(r),
                        format_double(joules, 2),
                        format_double(plan.tuned.runtime.seconds(), 3),
                        format_double(saved_vs_full, 2)});
      std::printf("  %7.0f%% %4zu %16.2f %14.3f %13.2f J\n", d * 100.0, r,
                  joules, plan.tuned.runtime.seconds(), saved_vs_full);
      s.x.push_back(d * 100.0);
      s.y.push_back(joules);
    }
    series.push_back(std::move(s));
  }
  PlotOptions plot;
  plot.title = "Tuned dump energy vs dirty fraction (512 GB, by replication)";
  plot.x_label = "dirty %";
  plot.y_label = "energy J";
  std::printf("\n%s\n", render_plot(series, plot).c_str());

  std::printf(
      "  slab write amplification: touched 5%% in 4 Ki-element runs -> "
      "dirty %.1f%% of 32 Ki-element slabs\n\n",
      100.0 * tuning::dirty_slab_fraction(0.05, 32768, 4096));

  // --- Functional ladder: 3 replicas, 3 generations -----------------------
  io::NfsServer s0, s1, s2;
  io::ReplicaSetConfig rs_config;
  io::ReplicaSet replicas{{&s0, &s1, &s2}, rs_config};
  core::IncrementalStoreOptions store_opts;
  store_opts.root = "bench";
  store_opts.checkpoint.codec = "sz";
  store_opts.checkpoint.bound = compress::ErrorBound::absolute(1e-3);
  store_opts.checkpoint.chunk_elements = 1024;
  core::IncrementalCheckpointStore store{replicas, store_opts};

  const auto transit_joules = [&](std::uint64_t bytes) {
    if (bytes == 0) return 0.0;
    const auto w = io::transit_workload(spec, Bytes{bytes}, transit);
    return power::workload_energy(w, spec, spec.f_max).joules();
  };

  // Generation chain: full field, then two small disjoint touches.
  std::vector<data::Field> chain;
  chain.push_back(data::generate_nyx(34, /*seed=*/42));
  chain.push_back(touch_region(chain[0], 0, 3 * 1024, 0.125F));
  chain.push_back(touch_region(chain[1], 20 * 1024, 2 * 1024, -0.25F));

  CsvWriter ladder_csv{{"generation", "dirty_slabs", "written_slabs",
                        "payload_bytes", "replicated_bytes",
                        "replication_j"}};
  std::vector<core::DumpSummary> dumps;
  for (const data::Field& field : chain) {
    auto summary = store.dump(field);
    LCP_REQUIRE(summary.has_value(), "incremental dump failed");
    ladder_csv.add_row(
        {std::to_string(summary->generation),
         std::to_string(summary->dirty_slabs),
         std::to_string(summary->written_slabs),
         std::to_string(summary->payload_bytes.bytes()),
         std::to_string(summary->replicated_bytes.bytes()),
         format_double(transit_joules(summary->replicated_bytes.bytes()),
                       6)});
    std::printf(
        "  gen %llu: %zu/%zu slabs dirty, %zu written, %llu B payload, "
        "%llu B replicated (%.6f J)\n",
        static_cast<unsigned long long>(summary->generation),
        summary->dirty_slabs, summary->slab_count, summary->written_slabs,
        static_cast<unsigned long long>(summary->payload_bytes.bytes()),
        static_cast<unsigned long long>(summary->replicated_bytes.bytes()),
        transit_joules(summary->replicated_bytes.bytes()));
    dumps.push_back(*summary);
  }
  const bool delta_cheaper =
      dumps.size() == 3 &&
      dumps[1].replicated_bytes.bytes() < dumps[0].replicated_bytes.bytes() &&
      dumps[2].replicated_bytes.bytes() < dumps[0].replicated_bytes.bytes();
  bench::print_comparison(
      "delta generations replicate fewer bytes than the full generation",
      "yes", delta_cheaper ? "yes" : "NO");

  // Byte-identity of every generation against the classic pipeline.
  compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  bool identical = true;
  for (std::size_t g = 0; g < chain.size(); ++g) {
    const auto restored = store.restore(g + 1, strict);
    const auto reference = reference_roundtrip(chain[g],
                                               store_opts.checkpoint);
    if (!restored.has_value() || !reference.has_value() ||
        !std::ranges::equal(restored->field.values(),
                            reference->values())) {
      identical = false;
    }
  }
  bench::print_comparison(
      "every generation restores byte-identical to the classic pipeline",
      "yes", identical ? "yes" : "NO");

  // Any single replica may be lost.
  bool survives_single_loss = true;
  for (std::size_t down = 0; down < replicas.replica_count(); ++down) {
    replicas.set_replica_down(down, true);
    const auto restored = store.restore_latest(strict);
    if (!restored.has_value() || !restored->complete()) {
      survives_single_loss = false;
    }
    replicas.set_replica_down(down, false);
  }
  bench::print_comparison("latest generation restores with any one replica down",
                          "yes", survives_single_loss ? "yes" : "NO");

  // Drop the full generation, GC its now-unreferenced slabs, and keep
  // restoring the survivors.
  const Bytes stored_before = s0.total_bytes_stored();
  LCP_REQUIRE(store.drop_generation(1).is_ok(), "drop_generation failed");
  const auto gc = store.gc();
  LCP_REQUIRE(gc.has_value(), "gc failed");
  std::printf(
      "  gc after dropping gen 1: removed %zu objects (%llu B freed), "
      "%zu live, replica 0 store %llu -> %llu B\n",
      gc->objects_removed,
      static_cast<unsigned long long>(gc->bytes_freed.bytes()),
      gc->objects_live,
      static_cast<unsigned long long>(stored_before.bytes()),
      static_cast<unsigned long long>(s0.total_bytes_stored().bytes()));
  bool post_gc_ok = gc->objects_removed > 0;
  for (std::uint64_t g : {std::uint64_t{2}, std::uint64_t{3}}) {
    const auto restored = store.restore(g, strict);
    const auto reference = reference_roundtrip(chain[g - 1],
                                               store_opts.checkpoint);
    if (!restored.has_value() || !reference.has_value() ||
        !std::ranges::equal(restored->field.values(),
                            reference->values())) {
      post_gc_ok = false;
    }
  }
  bench::print_comparison(
      "post-gc restores stay byte-identical (gens 2, 3)", "yes",
      post_gc_ok ? "yes" : "NO");

  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  bench::emit_csv(grid_csv, "bench_out/extension_incremental_grid.csv");
  bench::emit_csv(ladder_csv,
                  "bench_out/extension_incremental_ladder.csv");
  std::printf("\n");

  const bool pass = degeneracy_exact && grid_monotone &&
                    never_worse_than_full && delta_cheaper && identical &&
                    survives_single_loss && post_gc_ok;
  bench::print_comparison("all incremental-store gates", "pass",
                          pass ? "pass" : "FAIL");
  return pass ? 0 : 1;
}
