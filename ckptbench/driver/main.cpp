// Checkpoint round-trip benchmark driver.
//
//   ckpt_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file.json>] [--fail-op <k>] [--source <id>]
//
// Runs verified dump + restore round trips in a closed loop for --seconds,
// setting the workload up five times spread over the run (setup_s is the
// median).
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the time
// untraced and half traced (their op-time ratio is the tracing overhead),
// then probes single layers, and reports the per-layer metrics. The last
// stdout line is the JSON result; the line before it stamps the build.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "compress/common/registry.hpp"
#include "compress/simd/dispatch.hpp"
#include "measure.hpp"
#include "support/checksum.hpp"
#include "workloads.hpp"

namespace ckptbench {
namespace {

constexpr std::size_t kSetupRepeats = 5;
// A run makes at least this many round trips, so medians and the
// 10-beyond tail rest on enough samples even for a short --seconds.
constexpr std::size_t kMinOps = 40;
// Count metrics sum over the first kCountWindow measured operations, so
// they repeat exactly for a seed however many operations the time allows.
constexpr std::size_t kCountWindow = kMinOps;
constexpr int kProbeRepeats = 7;
constexpr std::uint64_t kProbeOps = 8;
constexpr double kMB = 1e6;
constexpr double kGB = 1e9;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0), as BENCHMARK.json lists them.
constexpr MetricDef kEndToEnd[] = {
    {"dump_mbps", "MB/s"},      {"dump_ms_tail", "ms"},
    {"restore_mbps", "MB/s"},   {"restore_ms_tail", "ms"},
    {"wire_ratio", "ratio"},    {"dump_j_per_gb", "J/GB"},
    {"restore_j_per_gb", "J/GB"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},      {"ok_frac", "ratio"},
};

// The per-layer metrics (--trace 1), as BENCHMARK.json lists them.
constexpr MetricDef kPerLayer[] = {
    {"compress.slab_ms_p50", "ms"},
    {"compress.decompress_ms", "ms"},
    {"compress.ratio_vs_whole", "ratio"},
    {"compress.frame_walk_ms", "ms"},
    {"compress.read_ckpt_ms", "ms"},
    {"compress.read_unattributed_ms", "ms"},
    {"core.stream.compress_busy_s", "s"},
    {"core.stream.write_ms", "ms"},
    {"core.stream.wall_ms", "ms"},
    {"core.stream.pool_util", "ratio"},
    {"core.incr.dump_ms", "ms"},
    {"core.incr.restore_ms", "ms"},
    {"core.incr.gc_ms", "ms"},
    {"core.incr.dirty_frac", "ratio"},
    {"core.incr.dedup_frac", "ratio"},
    {"core.incr.journal_bytes", "bytes"},
    {"core.incr.replicated_bytes", "bytes"},
    {"io.nfs.rpcs", "count"},
    {"io.nfs.bytes_sent", "bytes"},
    {"io.nfs.frame_overhead_bytes", "bytes"},
    {"io.replica.bytes_fetched", "bytes"},
    {"io.replica.read_failovers", "count"},
    {"io.retry.rpc_attempts", "count"},
    {"io.retry.retries", "count"},
    {"io.retry.bytes_retransmitted", "bytes"},
    {"io.retry.timeouts", "count"},
    {"io.retry.checksum_failures", "count"},
    {"io.retry.rejections", "count"},
    {"io.retry.useful_frac", "ratio"},
    {"support.crc32c_gbps", "GB/s"},
    {"power.dump_j_compute", "J/GB"},
    {"power.dump_j_transit", "J/GB"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string source = "unknown";
  std::uint64_t fail_op = ~std::uint64_t{0};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ckpt_bench: %s\nusage: ckpt_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--fail-op <k>] [--source <id>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    usage("expected a whole number");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
      if (!(a.seconds > 0.0)) {
        usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      a.trace = parse_u64(value) != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--fail-op") {
      a.fail_op = parse_u64(value);
    } else if (flag == "--source") {
      a.source = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  return a;
}

constexpr bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::size_t stream_workers() {
  // Caller + writer + workers busy at once stay below the CPU count. A
  // compress thread that anything else on the host preempts stalls the
  // whole parallel_for: on 4 CPUs, one competing busy thread slowed the
  // 2-worker dump by 67% and the 1-worker dump by 14%.
  const std::size_t cpus = std::max(1U, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(cpus > 3 ? cpus - 3 : 1, 1, 2);
}

void print_stamp(const Args& a, std::size_t workers,
                 const std::vector<OpSample>& ops, const Tail& dump_tail,
                 const Tail& restore_tail, std::size_t spans) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) {
    host[0] = '\0';
  }
  std::printf(
      "{\"stamp\":{\"source\":\"%s\",\"host\":\"%s\",\"nproc\":%u,"
      "\"simd\":\"%s\",\"build_type\":\"%s\",\"optimized\":%s,"
      "\"workload\":\"%s\",\"seed\":%llu,\"raw_bytes\":%llu,"
      "\"stream_workers\":%zu,\"ops\":%zu,\"count_window\":%zu,\"dump_tail_pct\":%.2f,"
      "\"restore_tail_pct\":%.2f,\"tail_samples\":%zu,\"tail_blocks\":%zu,"
      "\"dump_ms_p50\":%.3f,\"restore_ms_p50\":%.3f,\"spans\":%zu}}\n",
      a.source.c_str(), host, std::thread::hardware_concurrency(),
      lcp::simd::simd_level_name(lcp::simd::simd_level()),
      CKPT_BENCH_BUILD_TYPE, optimized_build() ? "true" : "false",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      static_cast<unsigned long long>(ops.front().raw_bytes), workers, ops.size(),
      kCountWindow, dump_tail.percentile, restore_tail.percentile,
      dump_tail.samples, dump_tail.blocks, dump_tail.median,
      restore_tail.median, spans);
}

// Operations attempted and failed, over every verified round trip the run
// made (warm-ups and probes included).
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const OpSample& s) {
    ++attempted;
    if (!s.ok) {
      ++failed;
      std::fprintf(stderr, "ckpt_bench: check failed: %s\n", s.failure.c_str());
    }
  }
};

// Sets the workload up from scratch: its inputs, pool, servers, store and
// one verified warm-up round trip. Frees `w` first, keeping peak RSS flat,
// and appends the set-up time to `times`.
lcp::Status set_up(const Args& a, std::size_t workers,
                   std::unique_ptr<Workload>& w, std::vector<double>& times,
                   Tally& tally) {
  w.reset();
  const double t0 = wall_now();
  auto data = make_dataset(a.workload, a.seed);
  if (!data) {
    return data.status();
  }
  w = make_workload(a.workload, std::move(*data), a.seed, workers);
  auto warm = w->setup();
  if (!warm) {
    return warm.status();
  }
  times.push_back(wall_now() - t0);
  tally.add(*warm);
  w->sabotage_op(a.fail_op);
  return lcp::Status::ok();
}

struct Run {
  std::unique_ptr<Workload> workload;  ///< the instance set up last
  std::vector<OpSample> ops;
  double setup_s = 0.0;  ///< median of the kSetupRepeats set-ups
};

// Runs round trips until `seconds` pass and at least `min_ops` ran. The
// workload is set up kSetupRepeats times, each from scratch in place of
// the previous instance: once before round trip 0, then each time another
// share of the run has passed. Host speed drifts in phases of a few
// seconds, and set-ups made back to back would all land in one phase. No
// set-up falls inside the count window, so counts depend on the seed
// alone. With `alternate`, tracing is on for odd round trips only, so
// traced and untraced round trips see the same machine conditions.
lcp::Expected<Run> run_loop(const Args& a, std::size_t workers, Tracer& tracer,
                            std::size_t min_ops, bool alternate, Tally& tally) {
  Run run;
  std::vector<double> times;
  LCP_RETURN_IF_ERROR(set_up(a, workers, run.workload, times, tally));
  const double start = wall_now();
  const double every = a.seconds / static_cast<double>(kSetupRepeats);
  while (run.ops.size() < min_ops || wall_now() < start + a.seconds) {
    if (run.ops.size() >= kCountWindow && times.size() < kSetupRepeats &&
        wall_now() >= start + every * static_cast<double>(times.size())) {
      LCP_RETURN_IF_ERROR(set_up(a, workers, run.workload, times, tally));
    }
    tracer.enable(alternate && run.ops.size() % 2 == 1);
    run.ops.push_back(run.workload->run_op(run.ops.size(), tracer));
    tally.add(run.ops.back());
  }
  tracer.enable(alternate);
  while (times.size() < kSetupRepeats) {  // a run too short to spread them
    LCP_RETURN_IF_ERROR(set_up(a, workers, run.workload, times, tally));
  }
  run.setup_s = median(times);
  return run;
}

std::vector<double> collect(const std::vector<OpSample>& ops,
                            double (*f)(const OpSample&)) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpSample& s : ops) {
    if (s.ok) {
      v.push_back(f(s));
    }
  }
  return v;
}

using Metrics = std::map<std::string, double>;

// Sums over the verified round trips of a run. Throughput and joules per
// byte are ratios of these totals: with host speed drifting in phases of
// a few seconds, a total is steadier from run to run than a median, which
// jumps when the share of fast and slow round trips nears one half.
struct Totals {
  double raw_gb = 0.0;
  double dump_s = 0.0;
  double restore_s = 0.0;
  double dump_compute_j = 0.0;
  double dump_transit_j = 0.0;
  double restore_j = 0.0;
};

Totals totals(const std::vector<OpSample>& ops, const EnergyModel& energy) {
  Totals t;
  for (const OpSample& s : ops) {
    if (!s.ok) {
      continue;
    }
    t.raw_gb += static_cast<double>(s.raw_bytes) / kGB;
    t.dump_s += s.dump_s;
    t.restore_s += s.restore_s;
    t.dump_compute_j += energy.compute_joules(s.dump_cpu_s);
    t.dump_transit_j += energy.transit_joules(s.payload_bytes, s.retry);
    t.restore_j += energy.compute_joules(s.restore_cpu_s) +
                   energy.transit_joules(s.fetch_bytes, {});
  }
  return t;
}

Metrics end_to_end(const std::vector<OpSample>& ops, const EnergyModel& energy,
                   Tail* dump_tail, Tail* restore_tail) {
  Metrics m;
  const Totals t = totals(ops, energy);
  const double raw_mb = t.raw_gb * (kGB / kMB);
  m["dump_mbps"] = raw_mb / t.dump_s;
  m["restore_mbps"] = raw_mb / t.restore_s;
  *dump_tail = tail(collect(ops, [](const OpSample& s) { return s.dump_s * 1e3; }));
  *restore_tail =
      tail(collect(ops, [](const OpSample& s) { return s.restore_s * 1e3; }));
  m["dump_ms_tail"] = dump_tail->value;
  m["restore_ms_tail"] = restore_tail->value;
  m["dump_j_per_gb"] = (t.dump_compute_j + t.dump_transit_j) / t.raw_gb;
  m["restore_j_per_gb"] = t.restore_j / t.raw_gb;

  double raw = 0.0;
  double wire = 0.0;
  for (std::size_t i = 0; i < std::min(kCountWindow, ops.size()); ++i) {
    raw += static_cast<double>(ops[i].raw_bytes);
    wire += static_cast<double>(ops[i].wire_bytes);
  }
  m["wire_ratio"] = wire > 0.0 ? raw / wire : 0.0;
  return m;
}

// Medians of per-operation layer observations, and per-operation means of
// counters over the first kCountWindow operations.
void layer_metrics(const std::vector<OpSample>& ops, const char* prefix,
                   Metrics& m) {
  std::map<std::string, std::vector<double>> layer;
  std::map<std::string, double> counts;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const auto& [k, v] : ops[i].layer) {
      layer[k].push_back(v);
    }
    if (i < kCountWindow) {
      for (const auto& [k, v] : ops[i].counts) {
        counts[k] += v;
      }
    }
  }
  const auto wanted = [&](const std::string& k) {
    return k.rfind(prefix, 0) == 0 && !m.contains(k);
  };
  for (const auto& [k, v] : layer) {
    if (wanted(k)) {
      m[k] = median(v);
    }
  }
  const double window = static_cast<double>(std::min(kCountWindow, ops.size()));
  const auto sum = [&](const char* k) {
    const auto it = counts.find(k);
    return it == counts.end() ? 0.0 : it->second;
  };
  for (const auto& [k, v] : counts) {
    if (wanted(k)) {
      m[k] = v / window;
    }
  }
  if (wanted("core.incr.dirty_frac") && sum("core.incr.slabs") > 0) {
    m["core.incr.dirty_frac"] = sum("core.incr.dirty_slabs") / sum("core.incr.slabs");
    const double dirty = sum("core.incr.dirty_slabs");
    m["core.incr.dedup_frac"] =
        dirty > 0 ? (dirty - sum("core.incr.written_slabs")) / dirty : 0.0;
  }
  if (wanted("io.retry.useful_frac") && sum("io.nfs.rpcs") > 0) {
    // Every attempt that was retried was wasted; the rest landed.
    const double attempts = sum("io.retry.rpc_attempts");
    m["io.retry.useful_frac"] =
        attempts > 0 ? (attempts - sum("io.retry.retries")) / attempts : 1.0;
  }
}

// Times the codec, framing and checksum layers one call at a time on the
// workload's own checkpoint: per-slab compress and decompress, the frame
// walk, the strict read, and what the strict read spends beyond the two.
void probe_codec(const Dataset& d, Tracer& tracer, Tally& tally, Metrics& m) {
  namespace compress = lcp::compress;
  OpSample probe;
  auto bytes = compress::write_checkpoint(d.field, d.options);
  auto codec = compress::make_compressor(d.options.codec);
  if (!bytes || !codec) {
    probe.fail("codec probe could not write its checkpoint");
    tally.add(probe);
    return;
  }
  auto whole = (*codec)->compress(d.field, d.options.bound);
  if (!whole) {
    probe.fail("whole-field compress: " + whole.status().to_string());
  } else {
    const double raw = static_cast<double>(d.field.size_bytes().bytes());
    m["compress.ratio_vs_whole"] =
        (raw / static_cast<double>(bytes->size())) /
        (raw / static_cast<double>(whole->container.size()));
  }
  const std::size_t slabs = compress::checkpoint_slab_count(d.field, d.options);
  std::vector<double> slab_ms;
  std::vector<double> decode_ms;
  std::vector<double> walk_ms;
  std::vector<double> read_ms;
  std::vector<double> unattributed_ms;
  std::vector<double> crc_gbps;
  for (int r = 0; r < kProbeRepeats; ++r) {
    for (std::size_t s = 0; s < slabs; s += std::max<std::size_t>(1, slabs / 8)) {
      const Tracer::Span span{tracer, "compress_checkpoint_slab", "compress"};
      const double t0 = wall_now();
      const auto slab = compress::compress_checkpoint_slab(d.field, d.options, s, **codec);
      slab_ms.push_back((wall_now() - t0) * 1e3);
      if (!slab) {
        probe.fail("compress_checkpoint_slab: " + slab.status().to_string());
      }
    }
    double t0 = wall_now();
    auto frame = [&] {
      const Tracer::Span span{tracer, "recover_framed", "compress"};
      return compress::recover_framed(*bytes);
    }();
    const double walk = (wall_now() - t0) * 1e3;
    if (!frame) {
      probe.fail("recover_framed: " + frame.status().to_string());
      break;
    }
    double decode = 0.0;
    for (std::size_t c = 1; c + 1 < frame->chunks.size(); ++c) {
      const Tracer::Span span{tracer, "decompress", "compress"};
      t0 = wall_now();
      const auto slab = (*codec)->decompress(frame->chunks[c].payload);
      decode_ms.push_back((wall_now() - t0) * 1e3);
      if (!slab) {
        probe.fail("decompress: " + slab.status().to_string());
      }
      decode += decode_ms.back();
    }
    t0 = wall_now();
    auto field = [&] {
      const Tracer::Span span{tracer, "read_checkpoint", "compress"};
      return compress::read_checkpoint(*bytes);
    }();
    const double read = (wall_now() - t0) * 1e3;
    if (!field) {
      probe.fail("read_checkpoint: " + field.status().to_string());
    }
    t0 = wall_now();
    {
      const Tracer::Span span{tracer, "crc32c", "support"};
      const std::uint32_t crc = lcp::crc32c(*bytes);
      (void)crc;
    }
    crc_gbps.push_back(static_cast<double>(bytes->size()) /
                       (wall_now() - t0) / kGB);
    walk_ms.push_back(walk);
    read_ms.push_back(read);
    unattributed_ms.push_back(read - walk - decode);
  }
  m["compress.slab_ms_p50"] = median(slab_ms);
  m["compress.decompress_ms"] = median(decode_ms);
  m["compress.frame_walk_ms"] = median(walk_ms);
  m["compress.read_ckpt_ms"] = median(read_ms);
  m["compress.read_unattributed_ms"] = median(unattributed_ms);
  m["support.crc32c_gbps"] = median(crc_gbps);
  tally.add(probe);
}

// Layers the workload's own loop does not exercise are timed by running a
// few round trips of the workload that does, on this workload's dataset.
void probe_layer(const char* other, const char* prefix, const Args& a,
                 std::size_t workers, Tracer& tracer, Tally& tally,
                 Metrics& m) {
  auto data = make_dataset(a.workload, a.seed);
  if (!data) {
    return;
  }
  auto w = make_workload(other, std::move(*data), a.seed, workers);
  auto warm = w->setup();
  if (!warm) {
    OpSample failed;
    failed.fail(std::string{other} + " probe setup: " + warm.status().to_string());
    tally.add(failed);
    return;
  }
  tally.add(*warm);
  std::vector<OpSample> ops;
  for (std::uint64_t i = 0; i < kProbeOps; ++i) {
    ops.push_back(w->run_op(i, tracer));
    tally.add(ops.back());
  }
  layer_metrics(ops, prefix, m);
}

void print_result(const Tally& tally, const Metrics& m,
                  const MetricDef* defs, std::size_t count) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < count; ++i) {
    // A metric with no successful sample to rest on (every round trip
    // failed, so "correct" is already false) prints as 0, keeping the
    // line valid JSON.
    const auto it = m.find(defs[i].name);
    const double v =
        it == m.end() || !std::isfinite(it->second) ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "ckpt_bench: REFUSING TO RUN: NOT AN OPTIMIZED BUILD (%s); "
                 "timings would be meaningless\n",
                 CKPT_BENCH_BUILD_TYPE);
    return 3;
  }
  const std::size_t workers = stream_workers();
  Tally tally;
  Tracer tracer;
  auto run = run_loop(a, workers, tracer, a.trace ? 2 * kMinOps : kMinOps,
                      a.trace, tally);
  if (!run) {
    std::fprintf(stderr, "ckpt_bench: setup failed: %s\n",
                 run.status().to_string().c_str());
    return 1;
  }
  const Workload& w = *run->workload;
  const std::vector<OpSample>& ops = run->ops;
  const EnergyModel energy{w.dataset().options.codec};
  Tail dump_tail;
  Tail restore_tail;
  if (!a.trace) {
    Metrics m = end_to_end(ops, energy, &dump_tail, &restore_tail);
    m["setup_s"] = run->setup_s;
    m["peak_rss_mb"] = peak_rss_mb();
    m["ok_frac"] = static_cast<double>(tally.attempted - tally.failed) /
                   static_cast<double>(tally.attempted);
    print_stamp(a, workers, ops, dump_tail, restore_tail, 0);
    print_result(tally, m, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  // Traced run: odd round trips were traced, even ones not; then the
  // single-layer probes run traced.
  (void)end_to_end(ops, energy, &dump_tail, &restore_tail);  // for the stamp
  Metrics m;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].ok) {
      (i % 2 == 1 ? traced_ms : untraced_ms)
          .push_back((ops[i].dump_s + ops[i].restore_s) * 1e3);
    }
  }
  m["trace.overhead_frac"] = median(traced_ms) / median(untraced_ms) - 1.0;

  layer_metrics(ops, "", m);
  const Totals t = totals(ops, energy);
  m["power.dump_j_compute"] = t.dump_compute_j / t.raw_gb;
  m["power.dump_j_transit"] = t.dump_transit_j / t.raw_gb;

  probe_codec(w.dataset(), tracer, tally, m);
  if (a.workload != "ckpt_stream") {
    probe_layer("ckpt_stream", "core.stream.", a, workers, tracer, tally, m);
  }
  if (a.workload != "ckpt_incremental") {
    probe_layer("ckpt_incremental", "core.incr.", a, workers, tracer, tally, m);
  }

  if (!a.trace_out.empty()) {
    const lcp::Status st = tracer.write_chrome_trace(a.trace_out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "ckpt_bench: %s\n", st.to_string().c_str());
    }
  }
  print_stamp(a, workers, ops, dump_tail, restore_tail, tracer.span_count());
  print_result(tally, m, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace ckptbench

int main(int argc, char** argv) {
  return ckptbench::run(ckptbench::parse_args(argc, argv));
}
