#include "tuning/io_plan.hpp"

#include <algorithm>
#include <cmath>

namespace lcp::tuning {

power::Workload scale_workload(const power::Workload& w,
                               double factor) noexcept {
  if (factor == 1.0) {
    // Exact identity, not a multiply-by-one: the d = 1 incremental plan
    // must reproduce the full two-stage dump bit-for-bit.
    return w;
  }
  power::Workload scaled = w;
  scaled.cpu_ghz_seconds = w.cpu_ghz_seconds * factor;
  scaled.stall_seconds = Seconds{w.stall_seconds.seconds() * factor};
  scaled.floor_seconds = Seconds{w.floor_seconds.seconds() * factor};
  return scaled;
}

double dirty_slab_fraction(double touched_fraction,
                           std::size_t chunk_elements,
                           std::size_t mean_run_elements) noexcept {
  if (touched_fraction <= 0.0 || chunk_elements == 0 ||
      mean_run_elements == 0) {
    return touched_fraction <= 0.0 ? 0.0 : 1.0;
  }
  const double amplification = 1.0 + static_cast<double>(chunk_elements) /
                                         static_cast<double>(mean_run_elements);
  return std::min(1.0, touched_fraction * amplification);
}

namespace {

bool is_zero_workload(const power::Workload& w) noexcept {
  return w.cpu_ghz_seconds == 0.0 && w.stall_seconds.seconds() == 0.0 &&
         w.floor_seconds.seconds() == 0.0;
}

}  // namespace

std::vector<Stage> incremental_dump_stages(
    const power::Workload& compress_workload,
    const power::Workload& write_workload, const IncrementalDumpSpec& inc) {
  const double d = std::clamp(inc.dirty_fraction, 0.0, 1.0);
  const double r = static_cast<double>(std::max<std::size_t>(1, inc.replicas));
  std::vector<Stage> stages;
  if (!is_zero_workload(inc.hash_workload)) {
    // Dirty detection hashes every raw slab, dirty or not: the cost of
    // knowing d is paid on the whole field, every generation.
    stages.push_back({"hash", inc.hash_workload, StageRole::kCompute});
  }
  stages.push_back(
      {"compress", scale_workload(compress_workload, d), StageRole::kCompute});
  stages.push_back(
      {"write", scale_workload(write_workload, d * r), StageRole::kTransit});
  if (!is_zero_workload(inc.journal_workload)) {
    stages.push_back({"journal", scale_workload(inc.journal_workload, r),
                      StageRole::kTransit});
  }
  return stages;
}

double frame_survival_fraction(std::size_t chunk_bytes, double byte_loss_rate,
                               std::size_t per_chunk_overhead_bytes) {
  if (byte_loss_rate <= 0.0) {
    return 1.0;
  }
  if (byte_loss_rate >= 1.0) {
    return 0.0;
  }
  const double exposed =
      static_cast<double>(chunk_bytes + per_chunk_overhead_bytes);
  return std::pow(1.0 - byte_loss_rate, exposed);
}

FramingTradeoff evaluate_chunk_size(std::size_t chunk_bytes,
                                    double byte_loss_rate,
                                    std::size_t per_chunk_overhead_bytes) {
  LCP_REQUIRE(chunk_bytes > 0, "chunk size must be positive");
  FramingTradeoff t;
  t.chunk_bytes = chunk_bytes;
  t.overhead_fraction = static_cast<double>(per_chunk_overhead_bytes) /
                        static_cast<double>(chunk_bytes);
  t.expected_recovered_fraction = frame_survival_fraction(
      chunk_bytes, byte_loss_rate, per_chunk_overhead_bytes);
  return t;
}

std::size_t recommended_chunk_bytes(double byte_loss_rate,
                                    std::size_t per_chunk_overhead_bytes) {
  constexpr std::size_t kMinChunk = 256;
  constexpr std::size_t kMaxChunk = std::size_t{256} << 20;
  if (byte_loss_rate <= 0.0) {
    return kMaxChunk;  // clean link: amortize the headers away
  }
  if (byte_loss_rate >= 1.0) {
    return kMinChunk;  // everything dies anyway; bound the blast radius
  }
  // Cost per payload byte ~ h/c (overhead) + c * -ln(1-p) (expected loss);
  // d/dc = 0 at c* = sqrt(h / -ln(1-p)).
  const double per_byte_loss = -std::log1p(-byte_loss_rate);
  const double optimum =
      std::sqrt(static_cast<double>(per_chunk_overhead_bytes) / per_byte_loss);
  const double clamped =
      std::clamp(optimum, static_cast<double>(kMinChunk),
                 static_cast<double>(kMaxChunk));
  return static_cast<std::size_t>(clamped);
}

}  // namespace lcp::tuning
