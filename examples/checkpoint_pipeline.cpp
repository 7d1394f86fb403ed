// Checkpoint pipeline: the workload the paper's introduction motivates —
// a long-running simulation (HACC-like) periodically dumps snapshots that
// must be compressed and shipped to an NFS. This example runs the whole
// pipeline end to end: data really moves through the compressor and the
// simulated NFS, while the platform model accounts time and energy for
// both a base-clock and an Eqn 3-tuned schedule.
//
// Build & run:  ./build/examples/checkpoint_pipeline [snapshots]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "compress/common/registry.hpp"
#include "core/platform.hpp"
#include "data/generators.hpp"
#include "io/nfs_client.hpp"
#include "io/transit_model.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

int main(int argc, char** argv) {
  using namespace lcp;
  const int snapshots = argc > 1 ? std::atoi(argv[1]) : 4;
  if (snapshots <= 0 || snapshots > 64) {
    std::fprintf(stderr, "usage: %s [snapshots 1..64]\n", argv[0]);
    return 2;
  }

  const auto& spec = power::chip(power::ChipId::kBroadwellD1548);
  const auto rule = tuning::paper_rule();
  const auto codec = compress::make_compressor(compress::CodecId::kSz);
  const auto bound = compress::ErrorBound::absolute(1e-3);

  io::NfsServer server;
  io::NfsClient client{server};
  io::TransitModelConfig transit;

  std::printf(
      "checkpoint pipeline: %d HACC-like snapshots -> SZ(1e-3 abs) -> NFS "
      "(10 GbE)\nnode: %s (%s)\n\n",
      snapshots, spec.cpu_name.c_str(), spec.series.c_str());

  Joules total_base{0.0};
  Joules total_tuned{0.0};
  Seconds time_base{0.0};
  Seconds time_tuned{0.0};
  Bytes raw_total{0};

  for (int snap = 0; snap < snapshots; ++snap) {
    // Each snapshot: a particle-coordinate stream (timestep-varying seed).
    const auto field =
        data::generate_hacc(1 << 20, 1000 + static_cast<std::uint64_t>(snap));
    auto compressed = codec->compress(field, bound);
    if (!compressed) {
      std::fprintf(stderr, "compress failed: %s\n",
                   compressed.status().to_string().c_str());
      return 1;
    }
    raw_total = raw_total + field.size_bytes();

    // Really ship the container to the NFS server.
    const std::string path = "/ckpt/hacc_" + std::to_string(snap) + ".sz";
    if (const auto status = client.write_file(path, compressed->container);
        !status.is_ok()) {
      std::fprintf(stderr, "nfs write failed: %s\n",
                   status.to_string().c_str());
      return 1;
    }

    // Account energy/time under both schedules.
    const auto compress_w = power::compression_workload(
        spec, compressed->native_wall_time, 0.53, 1.0);
    const auto write_w = io::transit_workload(
        spec, Bytes{compressed->container.size()}, transit);
    const auto cmp = tuning::compare(
        spec,
        {{"compress", compress_w, tuning::StageRole::kCompute},
         {"write", write_w, tuning::StageRole::kTransit}},
        {rule});
    total_base = total_base + cmp.base.energy;
    total_tuned = total_tuned + cmp.tuned.energy;
    time_base = time_base + cmp.base.runtime;
    time_tuned = time_tuned + cmp.tuned.runtime;

    std::printf(
        "snap %2d: %6.1f MB -> %6.1f MB (CR %.2fx)  base %6.2f J | tuned "
        "%6.2f J\n",
        snap, field.size_bytes().mb(),
        static_cast<double>(compressed->container.size()) / 1e6,
        compressed->compression_ratio(), cmp.base.energy.joules(),
        cmp.tuned.energy.joules());
  }

  std::printf("\nNFS server now holds %zu files, %.1f MB total (raw %.1f MB)\n",
              server.file_count(), server.total_bytes_stored().mb(),
              raw_total.mb());
  std::printf(
      "schedule totals:\n"
      "  base clock : %8.2f J in %7.2f s\n"
      "  Eqn 3 tuned: %8.2f J in %7.2f s\n"
      "  saved      : %8.2f J (%.1f%%) for +%.1f%% wall time\n",
      total_base.joules(), time_base.seconds(), total_tuned.joules(),
      time_tuned.seconds(), (total_base - total_tuned).joules(),
      100.0 * (1.0 - total_tuned / total_base),
      100.0 * (time_tuned / time_base - 1.0));

  // Integrity spot-check: read one checkpoint back and decompress it.
  const auto stored = server.read_file("/ckpt/hacc_0.sz");
  if (!stored) {
    std::fprintf(stderr, "readback failed\n");
    return 1;
  }
  auto decoded = compress::decompress_any(*stored);
  if (!decoded) {
    std::fprintf(stderr, "decompress failed: %s\n",
                 decoded.status().to_string().c_str());
    return 1;
  }
  std::printf("\nintegrity check: snapshot 0 decompresses to %s (%zu values)\n",
              decoded->field.dims().to_string().c_str(),
              decoded->field.element_count());
  return 0;
}
