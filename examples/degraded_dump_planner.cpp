// Degraded-dump planner: does the paper's Eqn 3 tuning rule still pay
// off when the NFS link is lossy?
//
//  1. compress a climate field with SZ under an absolute error bound,
//  2. probe a fault-injected link at the requested loss rate and measure
//     the actual retransmit/backoff behavior of the retrying client,
//  3. price the retries into the Table V transit model,
//  4. build the two-stage compressed-dump plan on the clean and on the
//     degraded link and compare energy/runtime/savings.
//
// Build & run:  ./build/examples/degraded_dump_planner [loss_percent]
//               (default 5, i.e. 5% of RPC chunks are dropped)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "compress/common/metrics.hpp"
#include "compress/common/registry.hpp"
#include "data/generators.hpp"
#include "io/fault.hpp"
#include "io/nfs_client.hpp"
#include "io/nfs_server.hpp"
#include "io/transit_model.hpp"
#include "power/chip_model.hpp"
#include "tuning/plan.hpp"
#include "tuning/rule.hpp"

int main(int argc, char** argv) {
  using namespace lcp;

  double loss_percent = 5.0;
  if (argc > 1) {
    loss_percent = std::atof(argv[1]);
  }
  if (loss_percent < 0.0 || loss_percent > 60.0) {
    std::fprintf(stderr, "usage: %s [loss_percent in 0..60]\n", argv[0]);
    return 2;
  }
  const double loss_rate = loss_percent / 100.0;

  // 1. Compress a CESM-ATM-like field with SZ at a 1e-3 absolute bound.
  const auto field = data::generate_cesm_atm(13, 90, 180, /*seed=*/42);
  const auto codec = compress::make_compressor(compress::CodecId::kSz);
  const auto report = compress::round_trip(
      *codec, field, compress::ErrorBound::absolute(1e-3));
  if (!report) {
    std::fprintf(stderr, "compression failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  const Bytes dump_bytes{static_cast<std::uint64_t>(
      field.size_bytes().bytes() / report->compression_ratio)};
  std::printf("dump: %s  %.2f MB raw -> %.2f MB compressed (%.2fx)\n",
              field.name().c_str(), field.size_bytes().mb(), dump_bytes.mb(),
              report->compression_ratio);

  // 2. Probe the lossy link: a real (byte-moving) transfer through the
  //    fault injector measures how much the retry loop actually costs.
  const io::FaultPlan plan = io::FaultPlan::loss(/*seed=*/2026, loss_rate);
  const io::FaultInjector injector{plan};
  io::NfsServer server;
  io::NfsClientConfig client_cfg;
  client_cfg.rpc_chunk_bytes = 64 * 1024;
  io::NfsClient client{server, client_cfg};
  client.attach_fault_injector(&injector);

  std::vector<std::uint8_t> probe(client_cfg.rpc_chunk_bytes * 128);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    probe[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  const Status st = client.write_file("probe", probe);
  if (!st.is_ok()) {
    std::fprintf(stderr, "link unusable at %.1f%% loss: %s\n", loss_percent,
                 st.to_string().c_str());
    return 1;
  }
  const auto profile = io::retry_profile_from_stats(
      client.retry_stats(), Bytes{probe.size()}, dump_bytes);
  std::printf(
      "link probe at %.1f%% loss: %zu rpcs, %zu retries, "
      "%.1f%% bytes retransmitted, %.3f s idle per dump\n",
      loss_percent, client.rpcs_issued(),
      static_cast<std::size_t>(client.retry_stats().retries),
      100.0 * profile.retransmit_fraction, profile.idle_seconds.seconds());

  // 3-4. Price the retries into the transit model and plan the dump on
  //      both chips, clean link vs degraded link.
  const io::TransitModelConfig transit;
  const auto rule = tuning::paper_rule();
  for (power::ChipId chip : power::all_chips()) {
    const auto& spec = power::chip(chip);
    const auto compress_w = power::compression_workload(
        spec, report->compress_time, /*cpu_fraction=*/0.53, /*activity=*/1.0);
    const auto clean_w = io::transit_workload(spec, dump_bytes, transit);
    const auto degraded_w =
        io::transit_workload(spec, dump_bytes, transit, profile);
    const auto dump_over = [&](const power::Workload& write_w) {
      return tuning::compare(spec,
                             {{"compress", compress_w,
                               tuning::StageRole::kCompute},
                              {"write", write_w, tuning::StageRole::kTransit}},
                             {rule});
    };
    const auto clean = dump_over(clean_w);
    const auto degraded = dump_over(degraded_w);

    std::printf(
        "\n%s (%s):\n"
        "  clean link:    tuned %.1f J / %.2f s  (saves %.1f%% energy)\n"
        "  degraded link: tuned %.1f J / %.2f s  (saves %.1f%% energy)\n"
        "  fault overhead on the tuned plan: +%.1f J, +%.3f s\n",
        spec.cpu_name.c_str(), spec.series.c_str(),
        clean.tuned.energy.joules(), clean.tuned.runtime.seconds(),
        100.0 * clean.energy_savings(), degraded.tuned.energy.joules(),
        degraded.tuned.runtime.seconds(), 100.0 * degraded.energy_savings(),
        (degraded.tuned.energy - clean.tuned.energy).joules(),
        (degraded.tuned.runtime - clean.tuned.runtime).seconds());
    if (degraded.energy_savings() > 0.0) {
      std::printf("  => Eqn 3 tuning still pays off on the lossy link\n");
    } else {
      std::printf("  => faults have erased the tuning gain on this chip\n");
    }
  }
  return 0;
}
