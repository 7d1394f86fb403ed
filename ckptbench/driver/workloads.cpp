#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>

#include "core/incremental_checkpoint.hpp"
#include "core/streaming_dump.hpp"
#include "data/generators.hpp"
#include "io/fault.hpp"
#include "io/nfs_server.hpp"
#include "io/replica_set.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ckptbench {
namespace {

using lcp::Expected;
using lcp::Status;
namespace compress = lcp::compress;
namespace core = lcp::core;
namespace data = lcp::data;
namespace io = lcp::io;

// Index of the untimed warm-up round trip run by setup().
constexpr std::uint64_t kWarmUpOp = ~std::uint64_t{0} - 1;

// Input sizes. Fixed, never derived from the seed.
constexpr std::size_t kNyxEdge = 128;                    // 2 Mi elements
constexpr std::array<std::size_t, 3> kCesmDims{32, 180, 360};  // 64 slabs
constexpr std::size_t kHaccParticles = std::size_t{1} << 20;   // 32 slabs
constexpr double kBound = 1e-2;

// ckpt_incremental: share of slabs re-written per generation, how often
// old generations are dropped and collected, and how many survive.
constexpr double kDirtyShare = 0.05;
constexpr std::size_t kMinDirty = 2;
constexpr std::uint64_t kGcEvery = 4;
constexpr std::size_t kKeepGenerations = 2;

// ckpt_recover: faults per dump and slabs damaged at rest per restore.
// Fixed counts at seeded positions keep retry work, and so modeled
// transit joules, the same for every operation and every seed; only
// where the faults land changes.
constexpr std::size_t kRecoverRpcBytes = 64 * 1024;
constexpr std::size_t kDropsPerDump = 1;
constexpr std::size_t kCorruptsPerDump = 2;
constexpr std::size_t kDamagedSlabs = 2;

// Distinct, reproducible stream for (seed, operation, purpose).
std::uint64_t mix(std::uint64_t seed, std::uint64_t op, std::uint64_t salt) {
  std::uint64_t x = seed ^ (op + 1) * 0x9E3779B97F4A7C15ULL ^ salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 29);
}

// `count` distinct indices below `n`, ascending (partial Fisher-Yates).
std::vector<std::size_t> pick_distinct(std::size_t n, std::size_t count,
                                       lcp::Rng& rng) {
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  count = std::min(count, n);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.uniform_index(n - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

// Wall and CPU clocks around one timed phase, plus its span.
class Phase {
 public:
  Phase(Tracer& tracer, const char* name)
      : span_(tracer, name, "bench"),
        wall0_(wall_now()),
        cpu0_(process_cpu_now()) {}
  void add_to(double& wall, double& cpu) const {
    wall += wall_now() - wall0_;
    cpu += process_cpu_now() - cpu0_;
  }

 private:
  Tracer::Span span_;
  double wall0_;
  double cpu0_;
};

std::vector<std::uint8_t> copy_file(const io::NfsServer& server,
                                    const std::string& path) {
  auto file = server.read_file(path);
  if (!file) {
    return {};
  }
  return {file->begin(), file->end()};
}

void add_retry_counts(const io::RetryStats& r, OpSample& s) {
  s.counts["io.retry.rpc_attempts"] += static_cast<double>(r.rpc_attempts);
  s.counts["io.retry.retries"] += static_cast<double>(r.retries);
  s.counts["io.retry.bytes_retransmitted"] +=
      static_cast<double>(r.bytes_retransmitted);
  s.counts["io.retry.timeouts"] += static_cast<double>(r.timeouts);
  s.counts["io.retry.checksum_failures"] +=
      static_cast<double>(r.checksum_failures);
  s.counts["io.retry.rejections"] += static_cast<double>(r.rejections);
}

// --- ckpt_stream ---------------------------------------------------------
// Fig 6 path: streaming_dump on a pool into one NFS server, then a strict
// read_checkpoint of the fetched file.
class StreamRoundTrip final : public Workload {
 public:
  StreamRoundTrip(Dataset d, std::uint64_t seed, std::size_t workers)
      : Workload(std::move(d), seed), workers_(workers), pool_(workers) {}

  Expected<OpSample> setup() override {
    auto reference = compress::write_checkpoint(data_.field, data_.options);
    if (!reference) {
      return reference.status().with_context("ckpt_stream reference");
    }
    expected_crc_ = lcp::crc32c(*reference);
    expected_size_ = reference->size();
    Tracer off;
    OpSample warm = run_op(kWarmUpOp, off);
    if (copy_file(server_, kPath) != *reference) {
      warm.fail("streamed bytes differ from write_checkpoint's");
    }
    return warm;
  }

  OpSample run_op(std::uint64_t index, Tracer& tracer) override {
    OpSample s;
    s.raw_bytes = data_.field.size_bytes().bytes();
    tracer.set_op(index);
    (void)server_.remove_file(kPath);
    client_.reset_counters();

    core::StreamingDumpConfig cfg;
    cfg.checkpoint = data_.options;
    std::optional<Expected<core::StreamingDumpStats>> stats;
    {
      const Phase phase{tracer, "dump"};
      const Tracer::Span span{tracer, "streaming_dump", "core.stream"};
      stats.emplace(core::streaming_dump(data_.field, pool_, client_, kPath, cfg));
      phase.add_to(s.dump_s, s.dump_cpu_s);
    }
    if (!stats->has_value()) {
      s.fail("streaming_dump: " + stats->status().to_string());
      return s;
    }
    const core::StreamingDumpStats& st = stats->value();
    s.wire_bytes = client_.bytes_sent().bytes();
    s.payload_bytes = s.wire_bytes;
    s.counts["io.nfs.rpcs"] = static_cast<double>(client_.rpcs_issued());
    s.counts["io.nfs.bytes_sent"] = static_cast<double>(s.wire_bytes);
    s.counts["io.nfs.frame_overhead_bytes"] =
        static_cast<double>(st.wire_bytes.bytes() - st.payload_bytes.bytes());
    s.layer["core.stream.compress_busy_s"] = st.compress_seconds.seconds();
    s.layer["core.stream.write_ms"] = st.write_seconds.seconds() * 1e3;
    s.layer["core.stream.wall_ms"] = st.wall_seconds.seconds() * 1e3;
    // The caller joins parallel_for, so workers + 1 threads compress.
    s.layer["core.stream.pool_util"] =
        st.compress_seconds.seconds() /
        (st.wall_seconds.seconds() * static_cast<double>(workers_ + 1));

    std::vector<std::uint8_t> fetched;
    std::optional<Expected<data::Field>> restored;
    {
      const Phase phase{tracer, "restore"};
      {
        const Tracer::Span span{tracer, "read_file", "io.nfs"};
        fetched = copy_file(server_, kPath);
      }
      {
        const Tracer::Span span{tracer, "read_checkpoint", "compress"};
        restored.emplace(compress::read_checkpoint(fetched));
      }
      phase.add_to(s.restore_s, s.restore_cpu_s);
    }
    s.fetch_bytes = fetched.size();
    // Every operation re-proves the stream: same size, same CRC32C as the
    // write_checkpoint bytes the warm-up compared byte for byte.
    if (fetched.size() != expected_size_ ||
        lcp::crc32c(fetched) != expected_crc_) {
      s.fail("stored stream's CRC differs from write_checkpoint's");
    }
    if (!restored->has_value()) {
      s.fail("read_checkpoint: " + restored->status().to_string());
      return s;
    }
    check_within_bound(data_.field, restored->value(), index, s);
    return s;
  }

 private:
  static constexpr const char* kPath = "dump/field.ckpt";
  std::size_t workers_;
  lcp::ThreadPool pool_;
  io::NfsServer server_;
  io::NfsClient client_{server_};
  std::uint32_t expected_crc_ = 0;
  std::size_t expected_size_ = 0;
};

// --- ckpt_incremental ----------------------------------------------------
// Replicated, deduplicating incremental store: each generation perturbs a
// seeded few slabs, dumps (hash, re-encode dirty slabs, fan out, rewrite
// the journal) and restores the latest generation.
class IncrementalRoundTrip final : public Workload {
 public:
  IncrementalRoundTrip(Dataset d, std::uint64_t seed)
      : Workload(std::move(d), seed),
        current_(data_.field),
        replicas_({&servers_[0], &servers_[1], &servers_[2]},
                  io::ReplicaSetConfig{{}, /*write_quorum=*/2}),
        store_(replicas_, core::IncrementalStoreOptions{"ckpt", data_.options}) {
    slab_count_ = compress::checkpoint_slab_count(data_.field, data_.options);
    dirty_per_op_ = std::max(
        kMinDirty, static_cast<std::size_t>(std::lround(
                       kDirtyShare * static_cast<double>(slab_count_))));
    variant_.assign(slab_count_, 0);
    const auto range = data_.field.value_range();
    amplitude_ = 0.05 * static_cast<double>(range.span());
  }

  Expected<OpSample> setup() override {
    LCP_RETURN_IF_ERROR(store_.open());
    auto first = store_.dump(current_);  // generation 1: every slab
    if (!first) {
      return first.status().with_context("ckpt_incremental first dump");
    }
    Tracer off;
    return run_op(kWarmUpOp, off);
  }

  OpSample run_op(std::uint64_t index, Tracer& tracer) override {
    OpSample s;
    s.raw_bytes = current_.size_bytes().bytes();
    tracer.set_op(index);
    perturb(index);

    const std::uint64_t fetched0 = replicas_.bytes_fetched();
    const std::uint64_t failovers0 = replicas_.read_failovers();
    for (std::size_t r = 0; r < replicas_.replica_count(); ++r) {
      replicas_.client(r).reset_counters();
    }

    std::optional<Expected<core::DumpSummary>> summary;
    {
      const Phase phase{tracer, "dump"};
      const Tracer::Span span{tracer, "dump", "core.incr"};
      summary.emplace(store_.dump(current_));
      phase.add_to(s.dump_s, s.dump_cpu_s);
    }
    if (!summary->has_value()) {
      s.fail("incremental dump: " + summary->status().to_string());
      return s;
    }
    const core::DumpSummary& sum = summary->value();
    if (sum.dirty_slabs != dirty_per_op_) {
      s.fail("dump found " + std::to_string(sum.dirty_slabs) +
             " dirty slabs, perturbed " + std::to_string(dirty_per_op_));
    }
    s.wire_bytes = sum.replicated_bytes.bytes();
    s.payload_bytes = s.wire_bytes;
    s.counts["core.incr.slabs"] = static_cast<double>(sum.slab_count);
    s.counts["core.incr.dirty_slabs"] = static_cast<double>(sum.dirty_slabs);
    s.counts["core.incr.written_slabs"] = static_cast<double>(sum.written_slabs);
    s.counts["core.incr.journal_bytes"] =
        static_cast<double>(sum.journal_bytes.bytes());
    s.counts["core.incr.replicated_bytes"] = static_cast<double>(s.wire_bytes);
    s.counts["io.nfs.frame_overhead_bytes"] = journal_frame_overhead();
    s.layer["core.incr.dump_ms"] = s.dump_s * 1e3;

    std::optional<Expected<core::RestoreReport>> report;
    {
      const Phase phase{tracer, "restore"};
      const Tracer::Span span{tracer, "restore_latest", "core.incr"};
      report.emplace(store_.restore_latest());
      phase.add_to(s.restore_s, s.restore_cpu_s);
    }
    s.layer["core.incr.restore_ms"] = s.restore_s * 1e3;
    s.fetch_bytes = replicas_.bytes_fetched() - fetched0;
    s.counts["io.replica.bytes_fetched"] = static_cast<double>(s.fetch_bytes);
    s.counts["io.replica.read_failovers"] =
        static_cast<double>(replicas_.read_failovers() - failovers0);

    if (!report->has_value()) {
      s.fail("restore_latest: " + report->status().to_string());
    } else if (!report->value().complete() ||
               report->value().generation != sum.generation) {
      s.fail("restore_latest did not return the complete new generation");
    } else {
      check_within_bound(current_, report->value().field, index, s);
    }

    if (index != kWarmUpOp && (index + 1) % kGcEvery == 0) {
      collect(tracer, s);
    }
    for (std::size_t r = 0; r < replicas_.replica_count(); ++r) {
      const io::NfsClient& c = replicas_.client(r);
      s.counts["io.nfs.rpcs"] += static_cast<double>(c.rpcs_issued());
      s.counts["io.nfs.bytes_sent"] += static_cast<double>(c.bytes_sent().bytes());
      add_retry_counts(c.retry_stats(), s);
    }
    return s;
  }

 private:
  // Moves `dirty_per_op_` seeded slabs to a different one of three value
  // variants (base, base + sin ripple, base - cos ripple). A slab can
  // return to a variant whose object is still stored, which the store's
  // content addressing deduplicates.
  void perturb(std::uint64_t index) {
    lcp::Rng rng{mix(seed_, index, 0x1AC5)};
    const auto base = data_.field.values();
    auto out = current_.mutable_values();
    const std::size_t chunk = data_.options.chunk_elements;
    for (const std::size_t slab : pick_distinct(slab_count_, dirty_per_op_, rng)) {
      variant_[slab] = static_cast<std::uint8_t>(
          (variant_[slab] + 1 + rng.uniform_index(2)) % 3);
      const std::size_t end = std::min(base.size(), (slab + 1) * chunk);
      for (std::size_t i = slab * chunk; i < end; ++i) {
        const double x = static_cast<double>(i);
        const double delta = variant_[slab] == 0   ? 0.0
                             : variant_[slab] == 1 ? std::sin(x * 0.01)
                                                   : -std::cos(x * 0.013);
        out[i] = static_cast<float>(base[i] + amplitude_ * delta);
      }
    }
  }

  // Frame bytes (headers, chunk headers, trailer) of the journal the dump
  // just published, summed over the replicas holding a copy.
  double journal_frame_overhead() const {
    double total = 0.0;
    for (std::size_t r = 0; r < replicas_.replica_count(); ++r) {
      const io::NfsServer& server = replicas_.server(r);
      const auto names = server.list_files("ckpt/journal.");
      if (names.empty()) {
        continue;
      }
      const auto file =
          server.read_file(*std::max_element(names.begin(), names.end()));
      if (!file) {
        continue;
      }
      const auto info = compress::probe_frame(*file);
      if (info) {
        total += static_cast<double>(file->size() - info->payload_bytes);
      }
    }
    return total;
  }

  // Drops all but the newest kKeepGenerations generations and collects
  // the objects only they referenced.
  void collect(Tracer& tracer, OpSample& s) {
    const double t0 = wall_now();
    const Tracer::Span span{tracer, "gc", "core.incr"};
    const auto gens = store_.generations();
    for (std::size_t i = 0; i + kKeepGenerations < gens.size(); ++i) {
      const Status st = store_.drop_generation(gens[i]);
      if (!st.is_ok()) {
        s.fail("drop_generation: " + st.to_string());
        return;
      }
    }
    const auto report = store_.gc();
    if (!report) {
      s.fail("gc: " + report.status().to_string());
      return;
    }
    s.layer["core.incr.gc_ms"] = (wall_now() - t0) * 1e3;
  }

  data::Field current_;
  std::array<io::NfsServer, 3> servers_;
  io::ReplicaSet replicas_;
  core::IncrementalCheckpointStore store_;
  std::size_t slab_count_ = 0;
  std::size_t dirty_per_op_ = 0;
  std::vector<std::uint8_t> variant_;
  double amplitude_ = 0.0;
};

// --- ckpt_recover --------------------------------------------------------
// Degraded round trip: the dump's RPCs cross a seeded drop/corrupt fault
// schedule, and the restore walks a copy with seeded slabs damaged at rest.
class RecoverRoundTrip final : public Workload {
 public:
  RecoverRoundTrip(Dataset d, std::uint64_t seed)
      : Workload(std::move(d), seed) {}

  Expected<OpSample> setup() override {
    auto clean = compress::write_checkpoint(data_.field, data_.options);
    if (!clean) {
      return clean.status().with_context("ckpt_recover reference");
    }
    clean_ = std::move(*clean);
    clean_crc_ = lcp::crc32c(clean_);
    auto frame = compress::recover_framed(clean_);
    if (!frame) {
      return frame.status().with_context("ckpt_recover frame walk");
    }
    frame_payload_bytes_ = frame->info.payload_bytes;
    // Chunk 0 and the last chunk carry the manifest; slab i rides chunk i+1.
    for (std::size_t c = 1; c + 1 < frame->chunks.size(); ++c) {
      slab_payload_offsets_.push_back(static_cast<std::size_t>(
          frame->chunks[c].payload.data() - clean_.data()));
    }
    auto strict = compress::read_checkpoint(clean_);
    if (!strict) {
      return strict.status().with_context("ckpt_recover strict decode");
    }
    reference_ = std::move(*strict);

    Tracer off;
    OpSample warm = run_op(kWarmUpOp, off);
    check_within_bound(data_.field, reference_, kWarmUpOp, warm);
    return warm;
  }

  OpSample run_op(std::uint64_t index, Tracer& tracer) override {
    OpSample s;
    s.raw_bytes = data_.field.size_bytes().bytes();
    tracer.set_op(index);
    (void)server_.remove_file(kPath);
    client_.reset_counters();
    injector_ = io::FaultInjector{fault_plan(index)};
    client_.attach_fault_injector(&injector_);

    std::optional<Expected<std::vector<std::uint8_t>>> bytes;
    Status written = Status::ok();
    {
      const Phase phase{tracer, "dump"};
      {
        const Tracer::Span span{tracer, "write_checkpoint", "compress"};
        bytes.emplace(compress::write_checkpoint(data_.field, data_.options));
      }
      if (bytes->has_value()) {
        const Tracer::Span span{tracer, "write_file", "io.nfs"};
        written = client_.write_file(kPath, bytes->value());
      }
      phase.add_to(s.dump_s, s.dump_cpu_s);
    }
    if (!bytes->has_value()) {
      s.fail("write_checkpoint: " + bytes->status().to_string());
      return s;
    }
    if (!written.is_ok()) {
      s.fail("write_file: " + written.to_string());
      return s;
    }
    const io::RetryStats& retry = client_.retry_stats();
    s.retry = retry;
    s.wire_bytes = client_.bytes_sent().bytes();
    s.payload_bytes = bytes->value().size();
    s.counts["io.nfs.rpcs"] = static_cast<double>(client_.rpcs_issued());
    s.counts["io.nfs.bytes_sent"] = static_cast<double>(s.wire_bytes);
    s.counts["io.nfs.frame_overhead_bytes"] =
        static_cast<double>(clean_.size() - frame_payload_bytes_);
    add_retry_counts(retry, s);

    std::vector<std::uint8_t> fetched;
    {
      const Phase phase{tracer, "fetch"};
      const Tracer::Span span{tracer, "read_file", "io.nfs"};
      fetched = copy_file(server_, kPath);
      phase.add_to(s.restore_s, s.restore_cpu_s);
    }
    s.fetch_bytes = fetched.size();
    // Retries must have delivered the dump intact despite the faults.
    if (bytes->value().size() != clean_.size() ||
        lcp::crc32c(bytes->value()) != clean_crc_ ||
        fetched.size() != clean_.size() || lcp::crc32c(fetched) != clean_crc_) {
      s.fail("stored checkpoint differs from the clean checkpoint");
      return s;
    }

    lcp::Rng rng{mix(seed_, index, 0xDA3A)};
    const auto victims =
        pick_distinct(slab_payload_offsets_.size(), kDamagedSlabs, rng);
    for (const std::size_t v : victims) {
      fetched[slab_payload_offsets_[v] + 5] ^= 0xA5;  // damage at rest
    }

    std::optional<Expected<compress::RecoveryReport>> report;
    {
      const Phase phase{tracer, "recover"};
      const Tracer::Span span{tracer, "recover_checkpoint", "compress"};
      compress::RecoveryPolicy policy;
      policy.fill = compress::RecoveryFill::kInterpolate;
      report.emplace(compress::recover_checkpoint(fetched, policy));
      phase.add_to(s.restore_s, s.restore_cpu_s);
    }
    if (!report->has_value()) {
      s.fail("recover_checkpoint: " + report->status().to_string());
      return s;
    }
    check_recovery(report->value(), victims, index, s);
    return s;
  }

 private:
  // Drops then corruptions, each hitting the first attempt of a distinct
  // seeded RPC of this dump. The last RPC is spared so every retransmit
  // is a full kRecoverRpcBytes.
  io::FaultPlan fault_plan(std::uint64_t index) const {
    const std::size_t rpcs =
        (clean_.size() + kRecoverRpcBytes - 1) / kRecoverRpcBytes;
    lcp::Rng rng{mix(seed_, index, 0xFA17)};
    auto hit = pick_distinct(rpcs - 1, kDropsPerDump + kCorruptsPerDump, rng);
    std::swap(hit[0], hit[rng.uniform_index(hit.size())]);
    io::FaultPlan plan;
    plan.seed = mix(seed_, index, 0x5EED);
    for (std::size_t i = 0; i < hit.size(); ++i) {
      plan.targeted.push_back(
          {client_.next_chunk_index() + hit[i],
           i < kDropsPerDump ? io::FaultKind::kDrop : io::FaultKind::kCorrupt,
           /*persist_attempts=*/1});
    }
    return plan;
  }

  static io::NfsClientConfig client_config() {
    io::NfsClientConfig cfg;
    cfg.rpc_chunk_bytes = kRecoverRpcBytes;
    return cfg;
  }

  // Intact slabs must equal the strict decode of the undamaged copy bit
  // for bit; the lost slabs must be exactly the damaged ones.
  void check_recovery(compress::RecoveryReport& rep,
                      const std::vector<std::size_t>& victims,
                      std::uint64_t index, OpSample& s) const {
    if (rep.slabs.size() != slab_payload_offsets_.size()) {
      s.fail("recovery reported the wrong slab count");
      return;
    }
    std::size_t expected_lost = 0;
    for (const std::size_t v : victims) {
      expected_lost += rep.slabs[v].element_count;
    }
    if (rep.lost_elements != expected_lost) {
      s.fail("lost elements differ from the injected damage");
    }
    const auto ref = reference_.values();
    auto got = rep.field.mutable_values();
    if (got.size() != ref.size()) {
      s.fail("recovered field has the wrong size");
      return;
    }
    bool sabotage_pending = index == sabotage_;
    for (std::size_t i = 0; i < rep.slabs.size(); ++i) {
      const compress::SlabVerdict& v = rep.slabs[i];
      const bool damaged = std::binary_search(victims.begin(), victims.end(), i);
      if (v.recovered == damaged) {
        s.fail("slab " + std::to_string(i) + " verdict does not match damage");
        continue;
      }
      if (!v.recovered) {
        continue;
      }
      if (sabotage_pending && v.element_count > 0) {
        got[v.element_offset] += static_cast<float>(4 * data_.options.bound.value);
        sabotage_pending = false;
      }
      if (!std::equal(got.begin() + v.element_offset,
                      got.begin() + v.element_offset + v.element_count,
                      ref.begin() + v.element_offset,
                      [](float a, float b) {
                        return std::bit_cast<std::uint32_t>(a) ==
                               std::bit_cast<std::uint32_t>(b);
                      })) {
        s.fail("intact slab " + std::to_string(i) +
               " differs from the strict decode");
      }
    }
  }

  static constexpr const char* kPath = "dump/particles.ckpt";
  io::FaultInjector injector_{io::FaultPlan{}};
  io::NfsServer server_;
  io::NfsClient client_{server_, client_config()};
  std::vector<std::uint8_t> clean_;
  std::uint32_t clean_crc_ = 0;
  std::uint64_t frame_payload_bytes_ = 0;
  std::vector<std::size_t> slab_payload_offsets_;
  data::Field reference_;
};

}  // namespace

void Workload::check_within_bound(const data::Field& reference,
                                  const data::Field& restored,
                                  std::uint64_t index, OpSample& sample) const {
  const auto want = reference.values();
  const auto got = restored.values();
  if (want.size() != got.size() || reference.dims() != restored.dims()) {
    sample.fail("restored field has the wrong shape");
    return;
  }
  const double bound = data_.options.bound.value;
  const double tolerance = bound * (1.0 + 1e-6);
  for (std::size_t i = 0; i < want.size(); ++i) {
    double value = static_cast<double>(got[i]);
    if (i == 0 && index == sabotage_) {
      value += 4.0 * bound;
    }
    if (!(std::fabs(value - static_cast<double>(want[i])) <= tolerance)) {
      sample.fail("element " + std::to_string(i) + " exceeds the error bound");
      return;
    }
  }
}

Expected<Dataset> make_dataset(std::string_view workload, std::uint64_t seed) {
  Dataset d;
  d.options.bound = compress::ErrorBound::absolute(kBound);
  if (workload == "ckpt_stream") {
    d.field = data::generate_nyx(kNyxEdge, seed);
    d.options.codec = "sz";
  } else if (workload == "ckpt_incremental") {
    d.field = data::generate_cesm_atm(kCesmDims[0], kCesmDims[1], kCesmDims[2],
                                      seed);
    d.options.codec = "sz";
  } else if (workload == "ckpt_recover") {
    d.field = data::generate_hacc(kHaccParticles, seed);
    d.options.codec = "zfp";
  } else {
    return Status::invalid_argument("unknown workload " + std::string{workload});
  }
  return d;
}

std::unique_ptr<Workload> make_workload(std::string_view name, Dataset data,
                                        std::uint64_t seed,
                                        std::size_t workers) {
  if (name == "ckpt_stream") {
    return std::make_unique<StreamRoundTrip>(std::move(data), seed, workers);
  }
  if (name == "ckpt_incremental") {
    return std::make_unique<IncrementalRoundTrip>(std::move(data), seed);
  }
  if (name == "ckpt_recover") {
    return std::make_unique<RecoverRoundTrip>(std::move(data), seed);
  }
  return nullptr;
}

}  // namespace ckptbench
