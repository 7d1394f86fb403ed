// Micro-benchmarks for the hot paths touched by the kernel overhaul:
// thread-pool dispatch, the fused SZ predict+quantize pass, canonical
// Huffman encode/decode (whole field and checkpoint slabs), raw bitstream
// write/read, the byte-shuffle and zlite lossless kernels, the CRC32C and
// batched FNV-1a integrity hashes, ZFP embedded plane coding, the
// streaming dump engine (the pooled slab compression path) across worker
// counts, and write_checkpoint's slab encode and read_checkpoint's slab
// decode, each inline vs on the shared team.
//
// Unlike the figure/table benches this is a plain timing harness (no
// google-benchmark) so it can emit a stable machine-readable summary:
//   micro_hotpaths [--quick] [--json [path]]
// --json merges into BENCH_hotpaths.json (default path): records are
// keyed by (op, workers, dispatch) — an existing record with the same key
// is replaced in place, unknown keys are preserved, new keys are appended
// — so one bench run never wipes another's rows, and scalar rows survive
// an AVX2-host run (and vice versa). Every row a run writes is stamped
// with the source it was built from (git SHA, or a digest of the source
// trees outside a repository), the host, its CPU count and the build
// type.
//
// SIMD discipline: every vectorized kernel runs as a scalar/avx2 pair
// (interleaved, best-of-N — this host is a noisy shared VM and min-of-
// interleaved is robust where mean-of-batch is not) with a bit-identity
// spot check between the two dispatch levels' outputs. Gates (exit code):
//   sz/predict_quantize_fused: avx2 >= 2x scalar at full scale (>= 1.5x
//     at --quick scale) when the host has AVX2
//   every other paired kernel (support/crc32c and support/fnv1a64_many
//     among them): avx2 never worse than scalar beyond a 0.85x noise
//     tolerance
//   support/crc32c_one_stream: the one-chain SSE4.2 kernel the avx2 level
//     ran before three chains; the same CRC at every scale, and at full
//     scale support/crc32c at avx2 >= 2x its speed
//   framing/read_framed: the strict frame walk on the NYX 128^3 SZ 1e-2
//     checkpoint frame against a two-pass reference walk on the
//     reference kernel; the same chunks at every scale, and at full scale
//     at avx2 read_framed <= 0.5x the reference's time
//   identity: paired outputs bit-identical across dispatch levels
//   zfp/{encode,decode}_planes{_n4,_n16,}: the plane coder has no
//     dispatch, so each block size runs once; encoded bytes must equal the
//     per-call reference coder's and decoding must return the input
//   huffman/decode: the decoder has no dispatch; at the level the host
//     runs it must be >= 2x the single-symbol reference decoder
//     (tests/compress/huffman_reference.hpp) at full scale (>= 1.5x at
//     --quick scale), interleaved best-of-N, and return exactly the
//     reference's symbols
//   huffman/decode_slab: per-symbol throughput on 32 Ki-symbol slabs at
//     least 0.5x the whole-field huffman/decode row
// On scalar-only hosts (or under LCP_FORCE_SCALAR=1) the dispatch-pair
// gates pass trivially: there is nothing to compare. The reference and
// slab gates hold at every level.
//
// Scaling discipline: wall-clock rows are real measurements. They can
// stay flat even on a multi-CPU host: large per-call allocations
// serialize concurrent slab compressions on the process's memory-map
// lock, so measured scaling tracks the allocator, not the CPU count. The
// *_modeled rows are LPT makespans of the *measured* per-slab durations —
// the same modeled-time accounting the rest of the repo uses — and those
// are what the scaling gates (exit code) enforce:
//   dump/streaming_scaling_modeled: 1-worker slab durations plus that
//     run's serial share (shipping): >= 1.5x at 4 workers, >= 3x at 8
//   dump/streaming_modeled: overlapped makespan strictly below the
//     serial compress + write sum at every worker count
// The write and restore rows are measured wall clock, gated on it at full
// scale: when the host has >= 4 CPUs, dump/write_checkpoint and
// restore/read_checkpoint on the shared team (each row records the
// compute threads, workers + caller) must be >= 1.5x faster than the same
// encode or decode walk inline. At every scale the two frames must be
// byte-identical and the two fields bit-identical.
//
// The Eqn 3 section re-derives the compute/transit crossover bandwidth B*
// from each dispatch level's measured end-to-end codec throughput
// (tuning/codec_choice.hpp): a faster codec shrinks the compute term and
// moves B* upward, so the gate checks B*_avx2 >= B*_scalar when avx2
// measured faster, and that the compress-or-raw decision actually flips
// between the two crossovers (the higher-B* profile compresses at their
// geometric mean, the other ships raw). The two levels' codec runs
// interleave rep by rep, like the paired kernels.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "compress/common/checkpoint.hpp"
#include "compress/common/framing.hpp"
#include "compress/lossless/shuffle_codec.hpp"
#include "compress/sz/huffman.hpp"
#include "compress/sz/pipeline.hpp"
#include "compress/sz/quantizer.hpp"
#include "compress/sz/sz_compressor.hpp"
#include "compress/sz/zlite.hpp"
#include "compress/zfp/embedded_coder.hpp"
#include "core/streaming_dump.hpp"
#include "data/generators.hpp"
#include "io/nfs_client.hpp"
#include "io/transit_model.hpp"
#include "power/chip_model.hpp"
#include "support/bitstream.hpp"
#include "support/checksum.hpp"
#include "support/dispatch.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"
#include "tuning/codec_choice.hpp"
#include "tuning/rule.hpp"
#include "encode_slabs_frame.hpp"
#include "huffman_reference.hpp"
#include "zfp_reference_coder.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::string current_dispatch_name() {
  return lcp::simd::simd_level_name(lcp::simd::simd_level());
}

/// Where a row was measured: the source it was built from, the host and
/// its CPU count, and the build type.
struct Stamp {
  std::string source;  // "git:<sha>[-dirty]", else "fnv1a64:<digest>"
  std::string host;
  std::size_t nproc = 0;
  std::string build_type;
};

struct BenchRecord {
  std::string op;
  double ns_per_op = 0.0;
  double bytes_per_sec = 0.0;  // 0 when the op has no natural byte volume
  std::size_t workers = 0;     // 0 for single-threaded kernels
  std::string dispatch;        // simd level the op ran at ("scalar"/"avx2")
  std::size_t compute_threads = 0;  // threads the op computed on; 0 = unset
  Stamp stamp;                 // empty on rows written before stamping
};

std::vector<BenchRecord> g_records;

/// stdout of `command`, trailing newline dropped; empty when it fails.
std::string command_output(const std::string& command) {
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return {};
  }
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  if (::pclose(pipe) != 0) {
    return {};
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// The git commit of the source tree (suffixed -dirty when tracked files
/// under src/, bench/ or tests/ differ from it; the bench includes test
/// oracles), or outside a repository an FNV-1a 64 digest of every file's
/// path and bytes under those three trees.
std::string source_id() {
  const std::string root = LCP_SOURCE_DIR;
  const std::string git = "git -C '" + root + "' ";
  const std::string sha = command_output(git + "rev-parse HEAD 2>/dev/null");
  if (!sha.empty()) {
    const std::string changes = command_output(
        git + "status --porcelain --untracked-files=no -- src bench tests "
              "2>/dev/null");
    return "git:" + sha + (changes.empty() ? "" : "-dirty");
  }
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const char* top : {"src", "bench", "tests"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it{fs::path{root} / top, ec}, end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec)) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t digest = lcp::kFnv1a64Init;
  for (const auto& path : files) {
    const std::string rel = fs::relative(path, root).generic_string();
    digest = lcp::fnv1a64_update(
        digest, {reinterpret_cast<const std::uint8_t*>(rel.data()), rel.size()});
    std::ifstream in{path, std::ios::binary};
    const std::vector<char> bytes{std::istreambuf_iterator<char>{in}, {}};
    digest = lcp::fnv1a64_update(
        digest, {reinterpret_cast<const std::uint8_t*>(bytes.data()),
                 bytes.size()});
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  return std::string{"fnv1a64:"} + hex;
}

/// This run's stamp, put on every row it writes.
const Stamp& run_stamp() {
  static const Stamp stamp = [] {
    Stamp s;
    s.source = source_id();
    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) == 0) {
      s.host = host;
    }
    s.nproc = std::thread::hardware_concurrency();
    s.build_type = LCP_BUILD_TYPE;
    return s;
  }();
  return stamp;
}

void push_record(const std::string& op, double ns_per_op, std::size_t bytes,
                 std::size_t iters, std::size_t workers,
                 const std::string& dispatch, std::size_t compute_threads = 0) {
  BenchRecord rec;
  rec.op = op;
  rec.ns_per_op = ns_per_op;
  rec.workers = workers;
  rec.dispatch = dispatch;
  rec.compute_threads = compute_threads;
  rec.stamp = run_stamp();
  if (bytes > 0 && ns_per_op > 0.0) {
    rec.bytes_per_sec = static_cast<double>(bytes) / (ns_per_op * 1e-9);
  }
  (void)iters;
  g_records.push_back(rec);
  std::printf("%-34s %12.1f ns/op", rec.op.c_str(), rec.ns_per_op);
  if (rec.bytes_per_sec > 0.0) {
    std::printf(" %9.1f MB/s", rec.bytes_per_sec / 1e6);
  }
  if (rec.workers > 0) {
    std::printf("  workers=%zu", rec.workers);
  }
  if (rec.compute_threads > 0) {
    std::printf("  compute_threads=%zu", rec.compute_threads);
  }
  std::printf("  [%s]\n", rec.dispatch.c_str());
}

/// Times `body` (which must process `bytes` payload bytes per call) over
/// `iters` iterations and records + prints one line at the current
/// dispatch level.
template <typename Body>
void run_case(const std::string& op, std::size_t iters, std::size_t bytes,
              std::size_t workers, Body&& body) {
  body();  // warm-up (also primes pool workers / page-faults the buffers)
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    body();
  }
  const auto stop = Clock::now();
  const double total_ns =
      std::chrono::duration<double, std::nano>(stop - start).count();
  push_record(op, total_ns / static_cast<double>(iters), bytes, iters, workers,
              current_dispatch_name());
}

/// Records a row computed from modeled (not measured-in-place) seconds.
void record_modeled(const std::string& op, double seconds, std::size_t bytes,
                    std::size_t workers) {
  push_record(op, seconds * 1e9, bytes, 1, workers, current_dispatch_name());
}

/// Best-of times of one body under both dispatch levels.
struct PairedTimes {
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  bool has_simd = false;  // host+build actually reach kAvx2

  [[nodiscard]] double speedup() const {
    return has_simd && simd_ns > 0.0 ? scalar_ns / simd_ns : 1.0;
  }
};

/// Runs `body` under forced-scalar and (when available) AVX2 dispatch,
/// interleaving the levels rep by rep and keeping each level's best time.
/// Emits one record per level, keyed by the dispatch name.
template <typename Body>
PairedTimes run_paired(const std::string& op, std::size_t reps,
                       std::size_t bytes, Body&& body) {
  using lcp::simd::ScopedSimdLevel;
  using lcp::simd::SimdLevel;
  PairedTimes times;
  times.has_simd =
      lcp::simd::hardware_simd_level() >= SimdLevel::kAvx2;
  const SimdLevel levels[2] = {SimdLevel::kScalar, SimdLevel::kAvx2};
  const std::size_t nlevels = times.has_simd ? 2 : 1;
  double best[2] = {0.0, 0.0};
  for (std::size_t l = 0; l < nlevels; ++l) {
    ScopedSimdLevel guard{levels[l]};
    body();  // warm-up: page-faults buffers, primes pooled scratch
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t l = 0; l < nlevels; ++l) {
      ScopedSimdLevel guard{levels[l]};
      const auto start = Clock::now();
      body();
      const auto stop = Clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      if (best[l] == 0.0 || ns < best[l]) {
        best[l] = ns;
      }
    }
  }
  times.scalar_ns = best[0];
  times.simd_ns = times.has_simd ? best[1] : best[0];
  for (std::size_t l = 0; l < nlevels; ++l) {
    push_record(op, best[l], bytes, reps, 0,
                lcp::simd::simd_level_name(levels[l]));
  }
  if (times.has_simd) {
    std::printf("  %s: avx2 speedup %.2fx\n", op.c_str(), times.speedup());
  }
  return times;
}

/// Gate: avx2 must beat scalar by `min_speedup` (no-op without AVX2).
void gate_speedup(std::vector<std::string>& failures, const std::string& op,
                  const PairedTimes& t, double min_speedup) {
  if (!t.has_simd) {
    return;
  }
  if (t.speedup() < min_speedup) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s avx2 speedup %.2fx below %.2fx gate",
                  op.c_str(), t.speedup(), min_speedup);
    failures.emplace_back(buf);
  }
}

/// Gate: avx2 must not lose to scalar beyond a noise tolerance.
void gate_never_worse(std::vector<std::string>& failures, const std::string& op,
                      const PairedTimes& t) {
  constexpr double kTolerance = 0.85;
  if (!t.has_simd) {
    return;
  }
  if (t.speedup() < kTolerance) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s avx2 is %.2fx of scalar (never-worse tolerance %.2fx)",
                  op.c_str(), t.speedup(), kTolerance);
    failures.emplace_back(buf);
  }
}

void gate_identity(std::vector<std::string>& failures, const std::string& op,
                   bool identical,
                   const char* reference = "between scalar and avx2 dispatch") {
  if (!identical) {
    failures.push_back(op + " outputs differ " + reference);
  }
}

/// Best-of times of a library body and of the test oracle it replaced.
struct ReferenceTimes {
  double library_ns = 0.0;
  double reference_ns = 0.0;

  [[nodiscard]] double speedup() const {
    return library_ns > 0.0 ? reference_ns / library_ns : 1.0;
  }
};

/// Runs `body` and `reference` at the current dispatch level, interleaved
/// rep by rep, keeping each one's best time. Emits `op` and
/// `op`_reference records.
template <typename Body, typename Reference>
ReferenceTimes run_with_reference(const std::string& op, std::size_t reps,
                                  std::size_t bytes, Body&& body,
                                  Reference&& reference) {
  const auto time_ns = [](auto& fn) {
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  body();  // warm-up: page-faults buffers, primes pooled scratch
  reference();
  ReferenceTimes times;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double lib = time_ns(body);
    const double ref = time_ns(reference);
    if (times.library_ns == 0.0 || lib < times.library_ns) {
      times.library_ns = lib;
    }
    if (times.reference_ns == 0.0 || ref < times.reference_ns) {
      times.reference_ns = ref;
    }
  }
  push_record(op, times.library_ns, bytes, reps, 0, current_dispatch_name());
  push_record(op + "_reference", times.reference_ns, bytes, reps, 0,
              current_dispatch_name());
  std::printf("  %s: %.2fx the reference\n", op.c_str(), times.speedup());
  return times;
}

/// The value of `"key": ` in one record line, without quotes; nullopt
/// when the line has no such key.
std::optional<std::string> record_field(const std::string& line,
                                        const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) {
    return std::nullopt;
  }
  std::size_t begin = at + tag.size();
  std::size_t end = 0;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
  } else {
    end = line.find_first_of(",}", begin);
  }
  if (end == std::string::npos) {
    return std::nullopt;
  }
  return line.substr(begin, end - begin);
}

/// Parses records previously written by write_json, one per line.
/// Best-effort: a line without an op and a time is skipped. Records from
/// before the dispatch field keep an empty dispatch key, and records from
/// before stamping an empty stamp.
std::vector<BenchRecord> load_existing(const std::string& path) {
  std::vector<BenchRecord> records;
  std::ifstream in{path};
  std::string line;
  const auto number = [&line](const char* key) {
    const auto text = record_field(line, key);
    return text ? std::strtod(text->c_str(), nullptr) : 0.0;
  };
  const auto text = [&line](const char* key) {
    return record_field(line, key).value_or("");
  };
  while (std::getline(in, line)) {
    const auto op = record_field(line, "op");
    if (!op || !record_field(line, "ns_per_op")) {
      continue;
    }
    BenchRecord rec;
    rec.op = *op;
    rec.ns_per_op = number("ns_per_op");
    rec.bytes_per_sec = number("bytes_per_sec");
    rec.workers = static_cast<std::size_t>(number("workers"));
    rec.dispatch = text("dispatch");
    rec.compute_threads = static_cast<std::size_t>(number("compute_threads"));
    rec.stamp.source = text("source");
    rec.stamp.host = text("host");
    rec.stamp.nproc = static_cast<std::size_t>(number("nproc"));
    rec.stamp.build_type = text("build_type");
    records.push_back(std::move(rec));
  }
  return records;
}

/// Merge-or-append semantics keyed by (op, workers, dispatch): rows this
/// run did not produce survive, rows it did produce are updated in place.
void write_json(const std::string& path) {
  std::vector<BenchRecord> merged = load_existing(path);
  const std::size_t preserved = merged.size();
  std::size_t replaced = 0;
  for (const auto& rec : g_records) {
    auto it = std::find_if(merged.begin(), merged.end(), [&](const auto& m) {
      return m.op == rec.op && m.workers == rec.workers &&
             m.dispatch == rec.dispatch;
    });
    if (it != merged.end()) {
      *it = rec;
      ++replaced;
    } else {
      merged.push_back(rec);
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_hotpaths: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const auto& r = merged[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"bytes_per_sec\": %.3f, \"workers\": %zu, "
                 "\"dispatch\": \"%s\"",
                 r.op.c_str(), r.ns_per_op, r.bytes_per_sec, r.workers,
                 r.dispatch.c_str());
    if (r.compute_threads > 0) {
      std::fprintf(f, ", \"compute_threads\": %zu", r.compute_threads);
    }
    if (!r.stamp.source.empty()) {
      std::fprintf(f,
                   ", \"source\": \"%s\", \"host\": \"%s\", "
                   "\"nproc\": %zu, \"build_type\": \"%s\"",
                   r.stamp.source.c_str(), r.stamp.host.c_str(), r.stamp.nproc,
                   r.stamp.build_type.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < merged.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records: %zu kept, %zu replaced, %zu new)\n",
              path.c_str(), merged.size(), preserved - replaced, replaced,
              merged.size() - preserved);
}

/// Longest-processing-time-first makespan of `durations` over `workers`
/// identical workers: the best case for parallel_for's shared-cursor claims
/// on few heavy chunks (the cursor hands chunks out in index order, so a
/// real schedule can be longer).
double lpt_makespan(std::vector<double> durations, std::size_t workers) {
  if (workers == 0) {
    workers = 1;
  }
  std::sort(durations.begin(), durations.end(), std::greater<>());
  std::vector<double> load(workers, 0.0);
  for (double d : durations) {
    *std::min_element(load.begin(), load.end()) += d;
  }
  return *std::max_element(load.begin(), load.end());
}

void bench_pool_dispatch(bool quick) {
  const std::size_t tasks = quick ? 2000 : 20000;
  // Each index writes its own slot: a shared counter would time cache-line
  // contention between the compute threads, not the pool's dispatch.
  std::vector<std::uint64_t> out(tasks);
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    lcp::ThreadPool pool{workers};
    run_case("pool/parallel_for_" + std::to_string(tasks), quick ? 3 : 10, 0,
             workers, [&] {
               pool.parallel_for(0, tasks, [&](std::size_t i) {
                 out[i] = i * 2654435761u;
               });
             });
  }
}

void bench_fused_pipeline(bool quick, std::vector<std::string>& failures) {
  const std::size_t n = quick ? 64 : 192;
  const auto field = lcp::data::generate_nyx(n, 7);
  const lcp::sz::LinearQuantizer quantizer{1e-3};
  std::vector<std::uint32_t> codes;
  std::vector<std::uint32_t> exact;
  const std::size_t bytes = field.element_count() * sizeof(float);
  const auto pq = run_paired(
      "sz/predict_quantize_fused", quick ? 5 : 7, bytes, [&] {
        codes.clear();
        exact.clear();
        lcp::sz::predict_quantize_fused(field.values(),
                                        field.dims().extents(),
                                        lcp::sz::SzPredictor::kFirstOrder,
                                        quantizer, codes, exact);
      });
  gate_speedup(failures, "sz/predict_quantize_fused", pq, quick ? 1.5 : 2.0);

  // Dispatch identity spot check: the quantization codes and exact-value
  // side stream must match bit for bit across levels.
  {
    std::vector<std::uint32_t> codes_s;
    std::vector<std::uint32_t> exact_s;
    {
      lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kScalar};
      lcp::sz::predict_quantize_fused(field.values(), field.dims().extents(),
                                      lcp::sz::SzPredictor::kFirstOrder,
                                      quantizer, codes_s, exact_s);
    }
    {
      lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kAvx2};
      codes.clear();
      exact.clear();
      lcp::sz::predict_quantize_fused(field.values(), field.dims().extents(),
                                      lcp::sz::SzPredictor::kFirstOrder,
                                      quantizer, codes, exact);
    }
    const bool same = codes == codes_s && exact == exact_s;
    gate_identity(failures, "sz/predict_quantize_fused", same);
  }

  std::vector<float> exact_f(exact.size());
  std::memcpy(exact_f.data(), exact.data(), exact.size() * sizeof(float));
  std::vector<float> out(field.element_count());
  const auto rec = run_paired("sz/reconstruct_fused", quick ? 5 : 7, bytes,
                              [&] {
                                std::size_t consumed = 0;
                                const bool ok = lcp::sz::reconstruct_fused(
                                    codes, exact_f, field.dims().extents(),
                                    lcp::sz::SzPredictor::kFirstOrder,
                                    quantizer, out, consumed);
                                LCP_REQUIRE(
                                    ok,
                                    "fused reconstruction failed in benchmark");
                              });
  gate_never_worse(failures, "sz/reconstruct_fused", rec);
  {
    std::vector<float> out_s(field.element_count());
    std::size_t consumed = 0;
    lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kScalar};
    const bool ok = lcp::sz::reconstruct_fused(
        codes, exact_f, field.dims().extents(),
        lcp::sz::SzPredictor::kFirstOrder, quantizer, out_s, consumed);
    gate_identity(failures, "sz/reconstruct_fused",
                  ok && std::memcmp(out.data(), out_s.data(),
                                    out.size() * sizeof(float)) == 0);
  }
}

/// Slab-shaped entropy rows: every framed path (streaming dump, strict
/// restore, incremental store) runs SZ on 32 Ki-element 1-D slabs, where
/// the per-call table work weighs far more than on a whole field. Each
/// body codes every 32 Ki slab of a NYX field at 1e-2, the ckpt_stream
/// shape. Gate: slab decode must reach at least half the whole-field
/// row's per-symbol throughput.
void bench_huffman_slabs(bool quick, std::vector<std::string>& failures,
                         double whole_ns_per_symbol) {
  constexpr std::size_t kSlab = std::size_t{1} << 15;
  constexpr double kBound = 1e-2;
  const auto field = lcp::data::generate_nyx(quick ? 64 : 128, 11);
  const auto values = field.values();
  const std::size_t slabs = field.element_count() / kSlab;
  const lcp::sz::LinearQuantizer quantizer{kBound};
  const lcp::sz::SzCompressor codec{{}};
  std::vector<std::vector<std::uint32_t>> symbols(slabs);
  std::vector<std::vector<std::uint8_t>> blobs(slabs);
  std::vector<std::vector<std::uint8_t>> containers(slabs);
  for (std::size_t s = 0; s < slabs; ++s) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(s * kSlab);
    const lcp::data::Field slab{"slab", lcp::data::Dims::d1(kSlab),
                                std::vector<float>(first, first + kSlab)};
    std::vector<std::uint32_t> exact;
    lcp::sz::predict_quantize_fused(slab.values(), slab.dims().extents(),
                                    lcp::sz::SzPredictor::kFirstOrder,
                                    quantizer, symbols[s], exact);
    auto compressed =
        codec.compress(slab, lcp::compress::ErrorBound::absolute(kBound));
    LCP_REQUIRE(compressed.has_value(), "slab compress failed in benchmark");
    containers[s] = std::move(compressed->container);
  }
  const std::size_t count = slabs * kSlab;
  const std::size_t bytes = count * sizeof(std::uint32_t);

  run_case("huffman/encode_slab", quick ? 5 : 7, bytes, 0, [&] {
    for (std::size_t s = 0; s < slabs; ++s) {
      blobs[s] = lcp::sz::huffman_encode(symbols[s], quantizer.alphabet_size());
    }
  });

  std::vector<std::uint32_t> decoded;
  bool identical = true;
  const auto dec = run_with_reference(
      "huffman/decode_slab", quick ? 5 : 7, bytes,
      [&] {
        for (std::size_t s = 0; s < slabs; ++s) {
          const auto status =
              lcp::sz::huffman_decode_into(blobs[s], kSlab, decoded);
          LCP_REQUIRE(status.is_ok(),
                      "huffman slab decode failed in benchmark");
          identical = identical && decoded == symbols[s];
        }
      },
      [&] {
        for (const auto& blob : blobs) {
          const auto status =
              lcp::sz::reference::huffman_decode_into(blob, kSlab, decoded);
          LCP_REQUIRE(status.is_ok(),
                      "reference slab decode failed in benchmark");
        }
      });
  gate_identity(failures, "huffman/decode_slab", identical,
                "from the encoder's input");
  const double slab_ns_per_symbol =
      dec.library_ns / static_cast<double>(count);
  const double relative = whole_ns_per_symbol / slab_ns_per_symbol;
  std::printf("  huffman/decode_slab: %.2fx the whole-field per-symbol rate\n",
              relative);
  if (relative < 0.5) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "huffman/decode_slab per-symbol throughput %.2fx of the "
                  "whole-field row, below the 0.50x gate",
                  relative);
    failures.emplace_back(buf);
  }

  const auto sz_dec = run_paired(
      "sz/decompress_slab", quick ? 5 : 7, count * sizeof(float), [&] {
        for (const auto& container : containers) {
          const auto restored = codec.decompress(container);
          LCP_REQUIRE(restored.has_value(),
                      "sz slab decompress failed in benchmark");
        }
      });
  gate_never_worse(failures, "sz/decompress_slab", sz_dec);
}

void bench_huffman(bool quick, std::vector<std::string>& failures) {
  // Production-shaped symbols: the quantization codes of a real Nyx field,
  // whose ~8-bit average code length is exactly what the wide-window
  // multi-symbol decoder is tuned for. Synthetic near-uniform deltas would
  // flatter the decoder (every pair fits one probe).
  const std::size_t n = quick ? 64 : 128;
  const auto field = lcp::data::generate_nyx(n, 11);
  const lcp::sz::LinearQuantizer quantizer{1e-3};
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint32_t> exact;
  lcp::sz::predict_quantize_fused(field.values(), field.dims().extents(),
                                  lcp::sz::SzPredictor::kFirstOrder, quantizer,
                                  symbols, exact);
  const std::size_t count = symbols.size();
  const std::size_t bytes = count * sizeof(std::uint32_t);

  std::vector<std::uint8_t> blob;
  run_case("huffman/encode", quick ? 5 : 7, bytes, 0, [&] {
    blob = lcp::sz::huffman_encode(symbols, quantizer.alphabet_size());
  });

  // The decoder has no dispatch: it is timed at the level the host runs,
  // against the single-symbol reference decoder it replaced.
  std::vector<std::uint32_t> decoded;
  std::vector<std::uint32_t> oracle;
  const auto dec = run_with_reference(
      "huffman/decode", quick ? 5 : 7, bytes,
      [&] {
        const auto status = lcp::sz::huffman_decode_into(blob, count, decoded);
        LCP_REQUIRE(status.is_ok() && decoded.size() == count,
                    "huffman decode failed in benchmark");
      },
      [&] {
        const auto status =
            lcp::sz::reference::huffman_decode_into(blob, count, oracle);
        LCP_REQUIRE(status.is_ok() && oracle.size() == count,
                    "reference huffman decode failed in benchmark");
      });
  const double min_speedup = quick ? 1.5 : 2.0;
  if (dec.speedup() < min_speedup) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "huffman/decode is %.2fx the reference decoder, below the "
                  "%.2fx gate",
                  dec.speedup(), min_speedup);
    failures.emplace_back(buf);
  }
  gate_identity(failures, "huffman/decode",
                decoded == oracle && decoded == symbols,
                "from the reference decoder");
  bench_huffman_slabs(quick, failures,
                      dec.library_ns / static_cast<double>(count));
}

void bench_bitstream(bool quick) {
  const std::size_t n = quick ? (1u << 16) : (1u << 20);
  lcp::Rng rng{23};
  std::vector<std::uint64_t> words(n);
  std::vector<unsigned> widths(n);
  for (std::size_t i = 0; i < n; ++i) {
    widths[i] = 1 + static_cast<unsigned>(rng.next_u64() % 24);
    words[i] = rng.next_u64() & ((1ULL << widths[i]) - 1);
  }
  std::size_t payload_bits = 0;
  for (unsigned w : widths) {
    payload_bits += w;
  }
  const std::size_t bytes = payload_bits / 8;

  std::vector<std::uint8_t> buffer;
  run_case("bitstream/write_bits", quick ? 3 : 10, bytes, 0, [&] {
    lcp::BitWriter writer;
    for (std::size_t i = 0; i < n; ++i) {
      writer.write_bits(words[i], widths[i]);
    }
    buffer = writer.finish();
  });
  run_case("bitstream/read_bits", quick ? 3 : 10, bytes, 0, [&] {
    lcp::BitReader reader{buffer};
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sink ^= reader.read_bits(widths[i]);
    }
    LCP_REQUIRE(!reader.overflowed(), "bitstream benchmark overflow");
  });
}

void bench_shuffle(bool quick, std::vector<std::string>& failures) {
  const std::size_t n = quick ? (1u << 18) : (1u << 22);
  lcp::Rng rng{31};
  std::vector<float> values(n);
  for (auto& v : values) {
    v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  const std::size_t bytes = n * sizeof(float);
  std::vector<std::uint8_t> planes(bytes);
  const auto sh = run_paired("shuffle/shuffle_bytes", quick ? 5 : 7, bytes,
                             [&] {
                               lcp::lossless::shuffle_bytes(values, planes);
                             });
  gate_never_worse(failures, "shuffle/shuffle_bytes", sh);
  {
    std::vector<std::uint8_t> planes_s(bytes);
    lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kScalar};
    lcp::lossless::shuffle_bytes(values, planes_s);
    gate_identity(failures, "shuffle/shuffle_bytes", planes == planes_s);
  }

  std::vector<float> restored(n);
  const auto un = run_paired("shuffle/unshuffle_bytes", quick ? 5 : 7, bytes,
                             [&] {
                               lcp::lossless::unshuffle_bytes(planes, restored);
                             });
  gate_never_worse(failures, "shuffle/unshuffle_bytes", un);
  {
    std::vector<float> restored_s(n);
    lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kScalar};
    lcp::lossless::unshuffle_bytes(planes, restored_s);
    gate_identity(failures, "shuffle/unshuffle_bytes",
                  std::memcmp(restored.data(), restored_s.data(), bytes) == 0 &&
                      std::memcmp(restored.data(), values.data(), bytes) == 0);
  }
}

void bench_zlite(bool quick, std::vector<std::string>& failures) {
  // Shuffled float planes: the exact byte stream the lossless codec hands
  // to zlite in production (long exponent-byte runs, compressible). zlite
  // has no dispatch, so each row runs once, gated on an exact round trip.
  const std::size_t side = quick ? 48 : 96;
  const auto field = lcp::data::generate_nyx(side, 13);
  const std::size_t bytes = field.element_count() * sizeof(float);
  std::vector<std::uint8_t> planes(bytes);
  lcp::lossless::shuffle_bytes(field.values(), planes);
  const std::size_t reps = quick ? 5 : 7;

  std::vector<std::uint8_t> packed;
  run_case("zlite/compress", reps, bytes, 0,
           [&] { packed = lcp::sz::zlite_compress(planes); });

  std::vector<std::uint8_t> restored;
  run_case("zlite/decompress", reps, bytes, 0, [&] {
    auto out = lcp::sz::zlite_decompress(packed, bytes);
    LCP_REQUIRE(out.has_value(), "zlite decompress failed in benchmark");
    restored = std::move(*out);
  });
  gate_identity(failures, "zlite/round_trip", restored == planes,
                "from the input planes");
}

#if defined(__x86_64__)
/// The one-chain SSE4.2 CRC32C kernel the AVX2 level ran before it ran
/// three chains: one `crc32` per 8-byte word on one dependency chain. Only
/// called when the host reaches kAvx2, which requires SSE4.2.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_one_stream(
    std::uint32_t state, std::span<const std::uint8_t> data) {
  std::uint64_t crc = state;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; i < data.size(); ++i) {
    crc32 = _mm_crc32_u8(crc32, data[i]);
  }
  return crc32;
}
#endif

/// The CRC32C update the reference rows run: at kAvx2 the one-chain
/// kernel, at kScalar the library's portable slice-by-4 one.
std::uint32_t reference_crc32c_update(std::uint32_t state,
                                      std::span<const std::uint8_t> data) {
#if defined(__x86_64__)
  if (lcp::simd::simd_level() >= lcp::simd::SimdLevel::kAvx2) {
    return crc32c_one_stream(state, data);
  }
#endif
  return lcp::crc32c_update(state, data);
}

void bench_checksums(bool quick, std::vector<std::string>& failures) {
  // One 8 MiB stream for CRC32C (a raw NYX 128^3 field), and the same
  // bytes cut into 128 KiB slab views plus a ragged tail for the store's
  // raw-hash pass.
  const std::size_t mib = quick ? 1 : 8;
  const std::size_t n = (mib << 20) + (std::size_t{12} << 10);
  lcp::Rng rng{37};
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }

  std::uint32_t crc = 0;
  const std::size_t crc_reps = quick ? 5 : 9;
  const auto c = run_paired("support/crc32c", crc_reps, n,
                            [&] { crc = lcp::crc32c(bytes); });
  gate_never_worse(failures, "support/crc32c", c);
  {
    lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kScalar};
    gate_identity(failures, "support/crc32c", lcp::crc32c(bytes) == crc);
  }
  if (c.has_simd) {
    // The three-chain kernel against the one-chain kernel it replaced, both
    // at kAvx2, interleaved rep by rep.
    lcp::simd::ScopedSimdLevel guard{lcp::simd::SimdLevel::kAvx2};
    std::uint32_t one = 0;
    double best[2] = {0.0, 0.0};
    for (std::size_t rep = 0; rep <= crc_reps; ++rep) {  // rep 0 warms up
      for (std::size_t k = 0; k < 2; ++k) {
        const auto start = Clock::now();
        if (k == 0) {
          crc = lcp::crc32c(bytes);
        } else {
          one = lcp::crc32c_finish(
              reference_crc32c_update(lcp::kCrc32cInit, bytes));
        }
        const double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - start)
                .count();
        if (rep > 0 && (best[k] == 0.0 || ns < best[k])) {
          best[k] = ns;
        }
      }
    }
    push_record("support/crc32c_one_stream", best[1], n, crc_reps, 0,
                current_dispatch_name());
    gate_identity(failures, "support/crc32c", one == crc,
                  "from the one-stream kernel");
    const double speedup = best[1] / best[0];
    std::printf("  support/crc32c: avx2 %.2fx the one-stream kernel\n",
                speedup);
    // Full scale only, like the team gates: --quick runs beside the rest of
    // the suite.
    if (!quick && speedup < 2.0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "support/crc32c avx2 %.2fx the one-stream kernel "
                    "(gate 2x)",
                    speedup);
      failures.emplace_back(buf);
    }
  }

  constexpr std::size_t kSlabBytes = std::size_t{128} << 10;
  std::vector<std::span<const std::uint8_t>> slabs;
  for (std::size_t at = 0; at < n; at += kSlabBytes) {
    slabs.emplace_back(bytes.data() + at, std::min(kSlabBytes, n - at));
  }
  std::vector<std::uint64_t> hashes(slabs.size());
  const auto f = run_paired("support/fnv1a64_many", quick ? 5 : 7, n,
                            [&] { lcp::fnv1a64_many(slabs, hashes); });
  gate_never_worse(failures, "support/fnv1a64_many", f);
  bool serial_equal = true;
  for (std::size_t i = 0; i < slabs.size(); ++i) {
    serial_equal = serial_equal && hashes[i] == lcp::fnv1a64(slabs[i]);
  }
  gate_identity(failures, "support/fnv1a64_many", serial_equal,
                "from the serial fnv1a64");
}

/// One block size of the ZFP plane coder: blocks of `block` negabinary
/// coefficients with a low-frequency-first magnitude decay, mimicking
/// post-transform ZFP blocks (4 coefficients for 1-D fields, as in
/// ckpt_recover's HACC slabs; 16 for 2-D; 64 for 3-D). The coder has no
/// dispatch, so each row runs once, gated on bytes identical to the
/// per-call reference coder and on an exact round trip.
void bench_zfp_block_size(std::size_t block, bool quick,
                          std::vector<std::string>& failures) {
  const std::size_t blocks = (quick ? 32768 : 131072) / block;
  lcp::Rng rng{37};
  std::vector<std::uint64_t> nb(blocks * block);
  std::vector<unsigned> plane_hi(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t all = 0;
    for (std::size_t i = 0; i < block; ++i) {
      const unsigned shift = 20 + static_cast<unsigned>((i * 40) / block);
      nb[b * block + i] = rng.next_u64() >> shift;
      all |= nb[b * block + i];
    }
    if (all == 0) {
      nb[b * block] = 1;
      all = 1;
    }
    plane_hi[b] = static_cast<unsigned>(std::bit_width(all) - 1);
  }
  const std::size_t bytes = nb.size() * sizeof(std::uint64_t);
  // The 64-coefficient rows keep their historical names.
  const std::string suffix = block == 64 ? "" : "_n" + std::to_string(block);
  const std::size_t reps = quick ? 5 : 7;

  const std::string enc_op = "zfp/encode_planes" + suffix;
  std::vector<std::uint8_t> blob;
  run_case(enc_op, reps, bytes, 0, [&] {
    lcp::BitWriter writer;
    for (std::size_t b = 0; b < blocks; ++b) {
      lcp::zfp::encode_block_planes({nb.data() + b * block, block},
                                    plane_hi[b], 0, writer);
    }
    blob = writer.finish();
  });
  {
    lcp::BitWriter writer;
    for (std::size_t b = 0; b < blocks; ++b) {
      lcp::zfp::reference::encode_block_planes({nb.data() + b * block, block},
                                               plane_hi[b], 0, writer);
    }
    gate_identity(failures, enc_op, writer.finish() == blob,
                  "from the per-call reference coder");
  }

  const std::string dec_op = "zfp/decode_planes" + suffix;
  std::vector<std::uint64_t> coeffs(nb.size());
  run_case(dec_op, reps, bytes, 0, [&] {
    lcp::BitReader reader{blob};
    std::fill(coeffs.begin(), coeffs.end(), 0);
    for (std::size_t b = 0; b < blocks; ++b) {
      const bool ok = lcp::zfp::decode_block_planes(
          {coeffs.data() + b * block, block}, plane_hi[b], 0, reader);
      LCP_REQUIRE(ok, "zfp plane decode failed in benchmark");
    }
  });
  gate_identity(failures, dec_op, coeffs == nb,
                "from the encoded coefficients");
}

void bench_zfp_planes(bool quick, std::vector<std::string>& failures) {
  for (std::size_t block : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    bench_zfp_block_size(block, quick, failures);
  }
}

void bench_streaming_dump(bool quick, std::vector<std::string>& failures) {
  const std::size_t n = quick ? 48 : 96;
  const auto field = lcp::data::generate_nyx(n, 5);
  const std::size_t bytes = field.element_count() * sizeof(float);

  lcp::core::StreamingDumpConfig cfg;
  cfg.checkpoint.codec = "sz";
  cfg.checkpoint.bound = lcp::compress::ErrorBound::absolute(1e-3);
  cfg.checkpoint.chunk_elements =
      std::max<std::size_t>(1, field.element_count() / 16);

  double baseline_ns = 0.0;
  lcp::core::StreamingDumpStats uncontended;  // from the 1-worker run
  for (std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    lcp::ThreadPool pool{workers};
    lcp::io::NfsServer server;
    lcp::io::NfsClient client{server};
    lcp::core::StreamingDumpStats stats;
    run_case("dump/streaming", 1, bytes, workers, [&] {
      auto result =
          lcp::core::streaming_dump(field, pool, client, "bench.dump", cfg);
      LCP_REQUIRE(result.has_value(), "streaming_dump failed in benchmark");
      stats = std::move(*result);
    });
    const double wall_ns = g_records.back().ns_per_op;
    if (workers == 1) {
      baseline_ns = wall_ns;
      // Best of several uncontended runs, slab by slab: on a noisy host
      // one preempted slab would otherwise set the modeled makespan.
      uncontended = stats;
      for (int rep = 0; rep < 4; ++rep) {
        auto again =
            lcp::core::streaming_dump(field, pool, client, "bench.dump", cfg);
        LCP_REQUIRE(again.has_value(), "streaming_dump failed in benchmark");
        for (std::size_t s = 0; s < again->slab_seconds.size(); ++s) {
          uncontended.slab_seconds[s] =
              std::min(uncontended.slab_seconds[s], again->slab_seconds[s]);
        }
        uncontended.write_seconds =
            std::min(uncontended.write_seconds, again->write_seconds);
      }
    } else if (baseline_ns > 0.0) {
      std::printf("  wall speedup vs 1 worker: %.2fx\n", baseline_ns / wall_ns);
    }

    // Overlap credit on the measured slab durations: compress makespan
    // from LPT over this worker count, write time from the link model of
    // the bytes the engine actually shipped.
    std::vector<double> slab_s;
    slab_s.reserve(stats.slab_seconds.size());
    for (const auto s : stats.slab_seconds) {
      slab_s.push_back(s.seconds());
    }
    const double tc = lpt_makespan(slab_s, workers);
    const double tt =
        client.config().link.wire_time(stats.wire_bytes).seconds();
    const double depth = static_cast<double>(std::max<std::size_t>(1,
                                                                   stats.slabs));
    const double serial_sum = tc + tt;
    const double overlapped =
        std::max(tc, tt) + std::min(tc, tt) / depth;
    record_modeled("dump/streaming_modeled", overlapped, bytes, workers);
    if (!(overlapped < serial_sum)) {
      failures.push_back(
          "dump/streaming modeled runtime not below serial compress+write "
          "sum at " + std::to_string(workers) + " workers");
    }
  }

  // Modeled worker scaling: LPT makespan of the slab durations measured in
  // the uncontended 1-worker run, plus that run's serial share — its
  // shipping time, since one thread at a time holds the stream.
  std::vector<double> slab_s;
  slab_s.reserve(uncontended.slab_seconds.size());
  for (const auto s : uncontended.slab_seconds) {
    slab_s.push_back(s.seconds());
  }
  const double serial_s = uncontended.write_seconds.seconds();
  double modeled_1w = 0.0;
  for (std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const double makespan = serial_s + lpt_makespan(slab_s, workers);
    record_modeled("dump/streaming_scaling_modeled", makespan, bytes, workers);
    const double speedup = modeled_1w > 0.0 ? modeled_1w / makespan : 1.0;
    if (workers == 1) {
      modeled_1w = makespan;
    } else {
      std::printf("  modeled speedup vs 1 worker: %.2fx\n", speedup);
    }
    if (workers == 4 && speedup < 1.5) {
      failures.push_back("dump/streaming modeled speedup at 4 workers "
                         "below 1.5x (" + std::to_string(speedup) + "x)");
    }
    if (workers == 8 && speedup < 3.0) {
      failures.push_back("dump/streaming modeled speedup at 8 workers "
                         "below 3x (" + std::to_string(speedup) + "x)");
    }
  }
}

/// write_checkpoint of NYX 96^3 (SZ 1e-2, default slab size) on the shared
/// team against the same encode walk inline on the calling thread, framed
/// by a plain FramedWriter sink (the tests' oracle frame): the true
/// one-thread dump baseline. Reps interleave the two and keep each one's
/// best, like the paired kernels.
void bench_dump_write(bool quick, std::vector<std::string>& failures) {
  const auto field = lcp::data::generate_nyx(96, 5);
  const std::size_t bytes = field.element_count() * sizeof(float);
  lcp::compress::CheckpointOptions opts;
  opts.codec = "sz";
  opts.bound = lcp::compress::ErrorBound::absolute(1e-2);
  const auto write_inline = [&] {
    auto frame = lcp::compress::encode_slabs_frame(field, opts);
    LCP_REQUIRE(frame.has_value(), "inline encode failed in dump bench");
    return std::move(*frame);
  };
  const auto write_team = [&] {
    auto frame = lcp::compress::write_checkpoint(field, opts);
    LCP_REQUIRE(frame.has_value(), "write_checkpoint failed in dump bench");
    return std::move(*frame);
  };

  gate_identity(failures, "dump/write_checkpoint",
                write_inline() == write_team(),
                "between the inline walk and the shared team");

  const std::size_t reps = quick ? 5 : 15;
  double best[2] = {0.0, 0.0};
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < 2; ++k) {
      const auto start = Clock::now();
      const auto frame = k == 0 ? write_inline() : write_team();
      const auto stop = Clock::now();
      LCP_REQUIRE(!frame.empty(), "dump bench wrote no frame");
      const double ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      if (best[k] == 0.0 || ns < best[k]) {
        best[k] = ns;
      }
    }
  }
  const std::size_t team_workers = lcp::shared_pool().worker_count();
  push_record("dump/write_checkpoint", best[0], bytes, reps, 0,
              current_dispatch_name(), 1);
  push_record("dump/write_checkpoint", best[1], bytes, reps, team_workers,
              current_dispatch_name(), team_workers + 1);
  const double speedup = best[0] / best[1];
  std::printf("  shared team speedup vs inline: %.2fx on %zu compute threads\n",
              speedup, team_workers + 1);
  // Full scale only, as for restore/read_checkpoint.
  if (!quick && std::thread::hardware_concurrency() >= 4 && speedup < 1.5) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "dump/write_checkpoint shared team %.2fx of inline on "
                  "%zu compute threads (gate 1.5x at >= 4 CPUs)",
                  speedup, team_workers + 1);
    failures.emplace_back(buf);
  }
}

/// The strict frame walk as it ran before each payload byte was hashed
/// once: per chunk one CRC pass over (seq, length, payload) for the chunk
/// CRC and a second over the payload for the whole-payload CRC, both on
/// reference_crc32c_update. Checks what read_framed checks and returns the
/// chunk payloads, or nothing when the frame fails a check.
std::optional<std::vector<std::span<const std::uint8_t>>> two_pass_walk(
    std::span<const std::uint8_t> frame) {
  using lcp::compress::kChunkHeaderBytes;
  using lcp::compress::kFrameHeaderBytes;
  using lcp::compress::kFrameTrailerBytes;
  const auto u32 = [&frame](std::size_t at) {
    std::uint32_t v = 0;
    std::memcpy(&v, frame.data() + at, sizeof(v));
    return v;
  };
  const auto u64 = [&frame](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, frame.data() + at, sizeof(v));
    return v;
  };
  if (frame.size() < kFrameHeaderBytes + kFrameTrailerBytes) {
    return std::nullopt;
  }
  const std::size_t body_end = frame.size() - kFrameTrailerBytes;
  // Header and trailer: CRC-valid records with the same 28-byte body.
  for (const std::size_t at : {std::size_t{0}, body_end}) {
    if (lcp::crc32c(frame.subspan(at + 4, 28)) != u32(at + 32) ||
        std::memcmp(frame.data() + 4, frame.data() + at + 4, 28) != 0) {
      return std::nullopt;
    }
  }
  const std::uint32_t chunk_count = u32(8);
  std::vector<std::span<const std::uint8_t>> payloads;
  payloads.reserve(chunk_count);
  std::uint32_t payload_state = lcp::kCrc32cInit;
  std::uint64_t payload_bytes = 0;
  std::size_t pos = kFrameHeaderBytes;
  for (std::uint32_t seq = 0; seq < chunk_count; ++seq) {
    if (body_end - pos < kChunkHeaderBytes || u32(pos + 4) != seq) {
      return std::nullopt;
    }
    const std::uint32_t length = u32(pos + 8);
    if (length > body_end - pos - kChunkHeaderBytes) {
      return std::nullopt;
    }
    const auto head = frame.subspan(pos + 4, 8);
    const auto payload = frame.subspan(pos + kChunkHeaderBytes, length);
    const std::uint32_t chunk_crc = lcp::crc32c_finish(reference_crc32c_update(
        reference_crc32c_update(lcp::kCrc32cInit, head), payload));
    if (chunk_crc != u32(pos + 12)) {
      return std::nullopt;
    }
    payload_state = reference_crc32c_update(payload_state, payload);
    payload_bytes += length;
    payloads.push_back(payload);
    pos += kChunkHeaderBytes + length;
  }
  if (pos != body_end || payload_bytes != u64(20) ||
      lcp::crc32c_finish(payload_state) != u32(28)) {
    return std::nullopt;
  }
  return payloads;
}

/// read_framed, the one strict frame walk, on the NYX 128^3 SZ 1e-2
/// checkpoint frame (the ckpt_stream frame) against two_pass_walk at the
/// same dispatch level, interleaved. Both must accept the frame and find
/// the same chunk payloads. At full scale and kAvx2 read_framed must take
/// at most half the reference's time: it hashes each payload byte once, on
/// three chains.
void bench_read_framed(bool quick, std::vector<std::string>& failures) {
  const std::size_t side = quick ? 64 : 128;
  const auto field = lcp::data::generate_nyx(side, 3);
  lcp::compress::CheckpointOptions opts;
  opts.codec = "sz";
  opts.bound = lcp::compress::ErrorBound::absolute(1e-2);
  const auto frame = lcp::compress::write_checkpoint(field, opts);
  LCP_REQUIRE(frame.has_value(), "write_checkpoint failed in frame bench");

  std::size_t chunks = 0;
  std::size_t reference_chunks = 0;
  const auto t = run_with_reference(
      "framing/read_framed", quick ? 5 : 15, frame->size(),
      [&] {
        const auto rec = lcp::compress::read_framed(*frame);
        LCP_REQUIRE(rec.has_value(), "read_framed failed in frame bench");
        chunks = rec->chunks.size();
      },
      [&] {
        const auto payloads = two_pass_walk(*frame);
        LCP_REQUIRE(payloads.has_value(), "reference walk rejected the frame");
        reference_chunks = payloads->size();
      });
  const auto rec = lcp::compress::read_framed(*frame);
  const auto payloads = two_pass_walk(*frame);
  bool same = rec.has_value() && payloads.has_value() &&
              chunks == reference_chunks && rec->chunks.size() == chunks;
  for (std::size_t i = 0; same && i < chunks; ++i) {
    same = rec->chunks[i].payload.data() == (*payloads)[i].data() &&
           rec->chunks[i].payload.size() == (*payloads)[i].size();
  }
  gate_identity(failures, "framing/read_framed", same,
                "from the two-pass reference walk");
  const double ratio = t.library_ns / t.reference_ns;
  if (!quick && lcp::simd::simd_level() >= lcp::simd::SimdLevel::kAvx2 &&
      ratio > 0.5) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "framing/read_framed takes %.2fx the two-pass reference "
                  "walk (gate 0.5x at avx2)",
                  ratio);
    failures.emplace_back(buf);
  }
}

/// read_checkpoint of NYX 96^3 (SZ 1e-2, default slab size) on the shared
/// team against the same walk inline on the calling thread. Both rows run
/// read_framed, the one strict frame walk (chunk CRCs and the
/// whole-payload CRC), then decode every slab, so they differ only by the
/// pool. Reps interleave the two and keep each one's best, like the
/// paired kernels.
void bench_restore(bool quick, std::vector<std::string>& failures) {
  const auto field = lcp::data::generate_nyx(96, 5);
  const std::size_t bytes = field.element_count() * sizeof(float);
  lcp::compress::CheckpointOptions opts;
  opts.codec = "sz";
  opts.bound = lcp::compress::ErrorBound::absolute(1e-2);
  const auto ckpt = lcp::compress::write_checkpoint(field, opts);
  LCP_REQUIRE(ckpt.has_value(), "write_checkpoint failed in restore bench");
  const auto layout = lcp::compress::SlabLayout::of(field, opts);
  lcp::compress::RecoveryPolicy strict;
  strict.fail_on_any_loss = true;

  const auto read_inline = [&] {
    auto rec = lcp::compress::read_framed(*ckpt);
    LCP_REQUIRE(rec.has_value(), "read_framed failed in restore bench");
    auto report = lcp::compress::decode_slabs(
        layout,
        [&rec](std::size_t s) {
          const auto& chunk = rec->chunks[s + 1];
          return lcp::compress::SlabBytes{static_cast<std::uint32_t>(s + 1),
                                          chunk.state, chunk.status,
                                          chunk.payload, {}};
        },
        strict);
    LCP_REQUIRE(report.has_value(), "inline decode failed in restore bench");
    return std::move(report->field);
  };
  const auto read_team = [&] {
    auto restored = lcp::compress::read_checkpoint(*ckpt);
    LCP_REQUIRE(restored.has_value(), "read_checkpoint failed in restore bench");
    return std::move(*restored);
  };

  const auto inline_field = read_inline();
  const auto team_field = read_team();  // also builds the team
  const auto a = inline_field.values();
  const auto b = team_field.values();
  gate_identity(failures, "restore/read_checkpoint",
                a.size() == b.size() &&
                    std::memcmp(a.data(), b.data(), a.size_bytes()) == 0,
                "between the inline walk and the shared team");

  const std::size_t reps = quick ? 5 : 15;
  double best[2] = {0.0, 0.0};
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < 2; ++k) {
      const auto start = Clock::now();
      const auto restored = k == 0 ? read_inline() : read_team();
      const auto stop = Clock::now();
      LCP_REQUIRE(restored.element_count() == field.element_count(),
                  "restore bench decoded the wrong size");
      const double ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      if (best[k] == 0.0 || ns < best[k]) {
        best[k] = ns;
      }
    }
  }
  const std::size_t team_workers = lcp::shared_pool().worker_count();
  push_record("restore/read_checkpoint", best[0], bytes, reps, 0,
              current_dispatch_name(), 1);
  push_record("restore/read_checkpoint", best[1], bytes, reps, team_workers,
              current_dispatch_name(), team_workers + 1);
  const double speedup = best[0] / best[1];
  std::printf("  shared team speedup vs inline: %.2fx on %zu compute threads\n",
              speedup, team_workers + 1);
  // Full scale only: --quick runs as a smoke test beside the rest of the
  // suite, where other tests hold the CPUs the team would use.
  if (!quick && std::thread::hardware_concurrency() >= 4 && speedup < 1.5) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "restore/read_checkpoint shared team %.2fx of inline on "
                  "%zu compute threads (gate 1.5x at >= 4 CPUs)",
                  speedup, team_workers + 1);
    failures.emplace_back(buf);
  }
}

void bench_eqn3_crossover(bool quick, std::vector<std::string>& failures) {
  // Re-derive Eqn 3's compute/transit crossover from each dispatch level's
  // measured end-to-end codec cost. The profile feeds the same
  // compress-or-raw pricing the planner uses; B* is the link bandwidth at
  // which shipping raw starts to beat compress-then-ship.
  using lcp::simd::ScopedSimdLevel;
  using lcp::simd::SimdLevel;
  const std::size_t n = quick ? 64 : 128;
  const auto field = lcp::data::generate_nyx(n, 9);
  const lcp::sz::SzCompressor codec{{}};
  const auto bound = lcp::compress::ErrorBound::absolute(1e-3);
  const double input_bytes = static_cast<double>(field.size_bytes().bytes());

  const bool has_simd =
      lcp::simd::hardware_simd_level() >= SimdLevel::kAvx2;
  const SimdLevel levels[2] = {SimdLevel::kScalar, SimdLevel::kAvx2};
  const std::size_t nlevels = has_simd ? 2 : 1;

  const auto& spec = lcp::power::chip(lcp::power::ChipId::kSkylake4114);
  const lcp::io::TransitModelConfig transit;
  const auto rule = lcp::tuning::paper_rule();
  const lcp::Bytes dump_bytes{std::uint64_t{4} << 30};  // one 4 GiB dump

  // The two levels are timed rep by rep, interleaved, so host load lands
  // on both profiles alike instead of on whichever level ran second.
  const std::size_t reps = quick ? 2 : 4;
  double best_ns[2] = {0.0, 0.0};
  double ratio[2] = {1.0, 1.0};
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    for (std::size_t l = 0; l < nlevels; ++l) {
      ScopedSimdLevel guard{levels[l]};
      const auto start = Clock::now();
      auto result = codec.compress(field, bound);
      const auto stop = Clock::now();
      LCP_REQUIRE(result.has_value(), "sz compress failed in eqn3 bench");
      ratio[l] =
          static_cast<double>(result->output_bytes.bytes()) / input_bytes;
      const double ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      if (rep > 0 && (best_ns[l] == 0.0 || ns < best_ns[l])) {
        best_ns[l] = ns;  // rep 0 is warm-up
      }
    }
  }

  double bstar[2] = {0.0, 0.0};
  double throughput[2] = {0.0, 0.0};
  lcp::tuning::CodecCostProfile profiles[2];
  for (std::size_t l = 0; l < nlevels; ++l) {
    throughput[l] = input_bytes / best_ns[l];  // bytes per ns == GB/s
    push_record("sz/compress_e2e", best_ns[l],
                static_cast<std::size_t>(input_bytes), reps, 0,
                lcp::simd::simd_level_name(levels[l]));

    auto& profile = profiles[l];
    profile.name =
        std::string{"sz/"} + lcp::simd::simd_level_name(levels[l]);
    profile.gigabytes_per_second = throughput[l];
    profile.ratio = ratio[l];
    bstar[l] = lcp::tuning::crossover_bandwidth_gbps(spec, profile,
                                                     dump_bytes, transit,
                                                     rule);
    // The record stores the crossover as a bandwidth (bytes/sec): B* is
    // the quantity of interest, not a per-op latency.
    BenchRecord rec;
    rec.op = "eqn3/crossover";
    rec.bytes_per_sec = bstar[l] * 1e9 / 8.0;
    rec.dispatch = lcp::simd::simd_level_name(levels[l]);
    rec.stamp = run_stamp();
    g_records.push_back(rec);
    std::printf("%-34s  B* = %.2f Gbit/s  (%.2f GB/s codec, ratio %.3f) [%s]\n",
                "eqn3/crossover", bstar[l], throughput[l], ratio[l],
                rec.dispatch.c_str());
  }

  if (!has_simd) {
    return;  // single profile: nothing to compare
  }
  // Faster kernels must push the crossover up (or the model broke), and at
  // a bandwidth between the two crossovers the plans must actually differ:
  // the profile with the higher crossover still compresses where the other
  // ships raw. Which level that is depends on which measured faster.
  if (throughput[1] > throughput[0] && bstar[1] < bstar[0] * 0.999) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "eqn3 crossover moved down under avx2 (%.2f -> %.2f Gbit/s)",
                  bstar[0], bstar[1]);
    failures.emplace_back(buf);
  }
  if (std::fabs(bstar[1] - bstar[0]) > 0.01 * bstar[0]) {
    const std::size_t high = bstar[1] > bstar[0] ? 1 : 0;
    const std::size_t low = 1 - high;
    auto mid_transit = transit;
    mid_transit.link.gigabits_per_second = std::sqrt(bstar[0] * bstar[1]);
    const auto high_plan = lcp::tuning::compress_or_raw(
        spec, profiles[high], dump_bytes, mid_transit, rule);
    const auto low_plan = lcp::tuning::compress_or_raw(
        spec, profiles[low], dump_bytes, mid_transit, rule);
    std::printf("  at %.2f Gbit/s: %s plan %s, %s plan %s\n",
                mid_transit.link.gigabits_per_second,
                lcp::simd::simd_level_name(levels[low]),
                low_plan.compress ? "compress" : "raw",
                lcp::simd::simd_level_name(levels[high]),
                high_plan.compress ? "compress" : "raw");
    if (low_plan.compress || !high_plan.compress) {
      failures.push_back(
          "eqn3 decision did not flip between scalar and avx2 crossovers");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_hotpaths.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        json_path = argv[++i];
      }
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json [path]]\n", argv[0]);
      return 1;
    }
  }

  std::printf("== micro_hotpaths (%s scale, dispatch %s) ==\n",
              quick ? "quick" : "full", current_dispatch_name().c_str());
  std::vector<std::string> failures;
  bench_pool_dispatch(quick);
  bench_fused_pipeline(quick, failures);
  bench_huffman(quick, failures);
  bench_bitstream(quick);
  bench_shuffle(quick, failures);
  bench_zlite(quick, failures);
  bench_checksums(quick, failures);
  bench_read_framed(quick, failures);
  bench_zfp_planes(quick, failures);
  bench_streaming_dump(quick, failures);
  bench_dump_write(quick, failures);
  bench_restore(quick, failures);
  bench_eqn3_crossover(quick, failures);

  if (json) {
    write_json(json_path);
  }
  if (!failures.empty()) {
    for (const auto& f : failures) {
      std::fprintf(stderr, "BENCH GATE FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("all bench gates passed\n");
  return 0;
}
