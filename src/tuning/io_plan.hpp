#pragma once
// Stage lists and trade-offs the planner (tuning/plan.hpp) prices: the
// incremental dump's d * R reweighting of the two-stage dump, and the
// resilient-framing chunk size.

#include <cstddef>
#include <vector>

#include "power/workload.hpp"
#include "tuning/plan.hpp"

namespace lcp::tuning {

// --- Incremental (delta) dump ----------------------------------------------
//
// The replicated incremental checkpoint store (core/incremental_checkpoint)
// compresses and ships only the slabs whose content hash changed since the
// parent generation, then fans the written bytes out to R replicas. Both
// effects are linear reweightings of the classic two-stage dump:
//
//   E_inc(d, R) = E_compress * d + E_write * d * R  (+ hash + journal)
//
// where d is the fraction of slabs dirty this generation. Scaling a
// workload by k scales both its CPU term and its pipeline floor, so
// max(k*t_cpu, k*floor) = k * max(t_cpu, floor): runtime and energy scale
// exactly linearly and d = 1, R = 1 degenerates to the full two-stage
// dump bit-for-bit (the hash/journal overhead terms default to zero
// workloads, which contribute no stage at all).

/// Returns `w` with its CPU work, stall and pipeline-floor terms scaled by
/// `factor` (the activity factor is a ratio and does not scale). A factor
/// of exactly 1.0 returns `w` unchanged — the bit-for-bit degeneracy the
/// incremental plan's d = 1 identity relies on.
[[nodiscard]] power::Workload scale_workload(const power::Workload& w,
                                             double factor) noexcept;

/// Expected fraction of slabs dirtied when the application touches
/// `touched_fraction` of the field's elements in contiguous runs of mean
/// length `mean_run_elements`, and the store dirties whole slabs of
/// `chunk_elements`. Each run of r elements straddles on average
/// 1 + r/chunk slabs, so slab granularity amplifies the write set by
/// (1 + chunk/run); the result is clamped to [0, 1].
[[nodiscard]] double dirty_slab_fraction(double touched_fraction,
                                         std::size_t chunk_elements,
                                         std::size_t mean_run_elements) noexcept;

/// Shape of one incremental dump generation.
struct IncrementalDumpSpec {
  /// Fraction of slabs whose content changed since the parent generation.
  double dirty_fraction = 1.0;
  /// Replication factor R: every written byte goes to R replicas.
  std::size_t replicas = 1;
  /// Cost of hashing every raw slab for dirty detection (paid on the full
  /// field every dump, independent of d). Zero workload = no stage.
  power::Workload hash_workload;
  /// Cost of rewriting the manifest journal (paid once per dump, scaled
  /// by R like any other written byte). Zero workload = no stage.
  power::Workload journal_workload;
};

/// The stages of one incremental dump generation: hash (compute, on the
/// whole field), d-scaled compress (compute), d*R-scaled write (transit)
/// and R-scaled journal (transit). `compress_workload` and
/// `write_workload` describe the FULL field. Zero overhead workloads add
/// no stage, so d = 1, R = 1 returns exactly {compress, write}.
[[nodiscard]] std::vector<Stage> incremental_dump_stages(
    const power::Workload& compress_workload,
    const power::Workload& write_workload, const IncrementalDumpSpec& inc);

// --- Resilient-framing chunk-size trade-off --------------------------------
//
// A framed dump (compress/common/framing.hpp) splits the stream into
// c-byte chunks with h bytes of per-chunk header. Under an independent
// per-byte corruption rate p, a chunk survives with probability
// (1-p)^(c+h): small chunks lose less data per hit but pay h/c overhead
// on every stored/moved byte. These helpers price that trade-off so the
// tuning layer can pick a chunk size the same way it picks a frequency.

/// Probability that one whole chunk (payload + header) survives an
/// independent per-byte corruption rate `byte_loss_rate`. Clamped to
/// [0, 1]; rate <= 0 yields 1, rate >= 1 yields 0.
[[nodiscard]] double frame_survival_fraction(std::size_t chunk_bytes,
                                             double byte_loss_rate,
                                             std::size_t per_chunk_overhead_bytes);

/// One evaluated chunk size of the trade-off curve.
struct FramingTradeoff {
  std::size_t chunk_bytes = 0;
  /// Frame bytes per payload byte (h/c): the extra storage/transit energy.
  double overhead_fraction = 0.0;
  /// Expected fraction of payload bytes recoverable after corruption.
  double expected_recovered_fraction = 0.0;
};

[[nodiscard]] FramingTradeoff evaluate_chunk_size(
    std::size_t chunk_bytes, double byte_loss_rate,
    std::size_t per_chunk_overhead_bytes);

/// Chunk size minimizing expected loss + overhead cost per payload byte:
/// c* = sqrt(h / -ln(1 - p)), clamped to [256 B, 256 MiB]. Rate <= 0 (a
/// clean link) returns the max clamp, rate >= 1 the min.
[[nodiscard]] std::size_t recommended_chunk_bytes(
    double byte_loss_rate, std::size_t per_chunk_overhead_bytes = 16);

}  // namespace lcp::tuning
