#pragma once
// Measurement helpers for the checkpoint round-trip benchmark: clocks,
// order statistics, the span recorder used by the traced run, and the
// energy model that prices measured CPU time and wire bytes in joules.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/nfs_client.hpp"
#include "power/chip_model.hpp"
#include "support/status.hpp"

namespace ckptbench {

/// Monotonic wall clock, seconds.
[[nodiscard]] double wall_now() noexcept;
/// CPU time consumed by every thread of this process, seconds.
[[nodiscard]] double process_cpu_now() noexcept;
/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb() noexcept;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
[[nodiscard]] double median(std::vector<double> values);

/// A tail that host-speed phases do not swing. The samples, in the order
/// they were taken, are cut into up to kTailBlocks consecutive blocks of
/// at least kTailBlockMin samples. Each block gives its highest percentile
/// that still has at least `kTailBeyond` samples above it (its
/// (kTailBeyond + 1)-th largest value), and the tail is the median of
/// those. A phase of neighbour load that covers one block then moves one
/// block value, not the result; over the whole run, the 11th-largest
/// value is set by the run's worst phase.
inline constexpr std::size_t kTailBeyond = 10;
inline constexpr std::size_t kTailBlocks = 5;
inline constexpr std::size_t kTailBlockMin = 40;
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< mean share of block samples at or below
                            ///< the block value, in %
  std::size_t samples = 0;
  std::size_t blocks = 0;
  double median = 0.0;  ///< of all the samples, reported beside the tail
};
/// `values` in the order they were taken. Requires more than kTailBeyond
/// samples; otherwise value/percentile 0.
[[nodiscard]] Tail tail(const std::vector<double>& values);

/// Span recorder for the traced run. Spans are taken on the calling
/// thread only (the benchmark's main thread, around calls into library
/// modules), nest by scope, and are kept in memory until written out as
/// Chrome trace-event JSON. When disabled, opening a span costs one
/// branch and records nothing.
class Tracer {
 public:
  void enable(bool on) noexcept { on_ = on; }
  /// Operation the following spans belong to (their shared identifier).
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  class Span {
   public:
    /// `name` and `layer` must be string literals (stored unowned).
    Span(Tracer& tracer, const char* name, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing was off at open
    std::size_t index_ = 0;
  };

  [[nodiscard]] std::size_t span_count() const noexcept {
    return spans_.size();
  }
  /// Writes every span as a Chrome trace "X" event (chrome://tracing).
  [[nodiscard]] lcp::Status write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name = "";
    const char* layer = "";
    std::uint64_t op = 0;
    std::ptrdiff_t parent = -1;
    double start = 0.0;
    double end = -1.0;
  };
  bool on_ = false;
  std::uint64_t op_ = 0;
  std::ptrdiff_t open_ = -1;
  std::vector<Record> spans_;
};

/// Prices benchmark work the way the paper prices a dump: Broadwell
/// D-1548, Eqn 3 frequencies, no noise model. Compute joules come from
/// measured process CPU time, transit joules from wire bytes (with the
/// retry profile of the RPCs that carried them).
class EnergyModel {
 public:
  /// `codec` is a registered codec name; its CPU profile sets the
  /// cpu-bound fraction and activity of the compute workload.
  explicit EnergyModel(const std::string& codec);
  [[nodiscard]] double compute_joules(double cpu_seconds) const;
  [[nodiscard]] double transit_joules(std::uint64_t payload_bytes,
                                      const lcp::io::RetryStats& retry) const;

 private:
  const lcp::power::ChipSpec& spec_;
  double cpu_fraction_ = 1.0;
  double activity_ = 1.0;
};

}  // namespace ckptbench
