#pragma once
// The benchmark's three closed-loop workloads. Each one owns a seeded
// input field and the servers, pool or store its round trip needs, and
// runs one verified dump + restore per run_op() call. Every call into a
// library module is wrapped in a Tracer span; per-operation timings,
// wire bytes and deterministic counters come back in an OpSample.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "data/field.hpp"
#include "io/nfs_client.hpp"
#include "measure.hpp"
#include "support/status.hpp"

namespace ckptbench {

/// A workload's input: one field under one codec and bound, so that
/// per-operation times are not a mixture of codec modes.
struct Dataset {
  lcp::data::Field field;
  lcp::compress::CheckpointOptions options;
};

/// Builds the named workload's dataset from `seed`. Sizes never depend on
/// the seed; values do.
[[nodiscard]] lcp::Expected<Dataset> make_dataset(std::string_view workload,
                                                  std::uint64_t seed);

/// One round trip: a dump then a restore, both verified.
struct OpSample {
  bool ok = true;
  std::string failure;  ///< first failed check, empty when ok

  double dump_s = 0.0;
  double restore_s = 0.0;
  double dump_cpu_s = 0.0;     ///< process CPU time inside the dump calls
  double restore_cpu_s = 0.0;  ///< process CPU time inside the restore calls

  std::uint64_t raw_bytes = 0;      ///< field bytes the dump protects
  std::uint64_t wire_bytes = 0;     ///< every dump byte put on the wire
  std::uint64_t payload_bytes = 0;  ///< distinct dump bytes (no retransmits)
  std::uint64_t fetch_bytes = 0;    ///< bytes fetched by the restore
  lcp::io::RetryStats retry;        ///< dump RPC retries

  /// Per-operation layer observations; the traced run reports medians.
  std::map<std::string, double> layer;
  /// Deterministic per-operation counters; summed over the count window.
  std::map<std::string, double> counts;

  void fail(std::string why) {
    if (ok) {
      failure = std::move(why);
    }
    ok = false;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds servers, pool or store and runs one untimed, verified warm-up
  /// round trip. An error status means the workload cannot run at all; a
  /// failed check of the warm-up comes back as a sample with ok == false.
  [[nodiscard]] virtual lcp::Expected<OpSample> setup() = 0;
  /// Runs round trip `index` (0-based, consecutive).
  [[nodiscard]] virtual OpSample run_op(std::uint64_t index,
                                        Tracer& tracer) = 0;

  [[nodiscard]] const Dataset& dataset() const noexcept { return data_; }
  /// Makes the restore check of operation `index` see one element off by
  /// more than the bound: proves that a failing check reaches ok_frac.
  void sabotage_op(std::uint64_t index) noexcept { sabotage_ = index; }

 protected:
  Workload(Dataset data, std::uint64_t seed)
      : data_(std::move(data)), seed_(seed) {}

  /// Checks every restored element against `reference` within the
  /// bound. Applies the sabotage of operation `index`, if any, first.
  void check_within_bound(const lcp::data::Field& reference,
                          const lcp::data::Field& restored,
                          std::uint64_t index, OpSample& sample) const;

  Dataset data_;
  std::uint64_t seed_ = 0;
  std::uint64_t sabotage_ = ~std::uint64_t{0};
};

/// The named workload over `data`. Returns null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      Dataset data,
                                                      std::uint64_t seed,
                                                      std::size_t workers);

}  // namespace ckptbench
