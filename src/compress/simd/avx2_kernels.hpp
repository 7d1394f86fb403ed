#pragma once
// Declarations for the AVX2 kernel translation unit
// (compress/simd/avx2_kernels.cpp, compiled with -mavx2). This header is
// intrinsic-free so any TU can include it; call sites must be guarded with
// #if defined(LCP_HAVE_AVX2_BUILD) (the macro is defined target-wide when
// the AVX2 TU is part of the build) AND gate on simd::simd_level() — the
// definitions only exist when the TU was compiled, and executing them on a
// non-AVX2 host is illegal.
//
// Every kernel here has a scalar twin in the calling TU producing
// bit-identical output; see compress/sz/prequant.hpp for the shared
// arithmetic contract.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/sz/prequant.hpp"

namespace lcp::simd::avx2 {

// --- SZ prequantized Lorenzo pipeline --------------------------------------

/// values -> saturated grid indices, 8 floats per iteration, scalar tail.
void prequantize(const float* values, std::size_t n, double inv_step,
                 std::int32_t* grid) noexcept;

/// Row-interior prediction kernels. `site` points at the row base inside
/// the grid, `pred` at the same flat offset in the prediction array; both
/// are filled for k in [k0, n). The caller guarantees every neighbour the
/// unguarded stencil touches exists (border rows stay on the scalar
/// guarded path).
void predict_row_l1_1d(const std::int32_t* site, std::size_t k0,
                       std::size_t n, std::int32_t* pred) noexcept;
void predict_row_l2_1d(const std::int32_t* site, std::size_t k0,
                       std::size_t n, std::int32_t* pred) noexcept;
void predict_row_l1_2d(const std::int32_t* site, std::size_t n1,
                       std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept;
void predict_row_l2_2d(const std::int32_t* site, std::size_t n1,
                       std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept;
void predict_row_l1_3d(const std::int32_t* site, std::size_t plane,
                       std::size_t n2, std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept;
void predict_row_l2_3d(const std::int32_t* site, std::size_t plane,
                       std::size_t n2, std::size_t k0, std::size_t n,
                       std::int32_t* pred) noexcept;

/// Flat finish pass: codes for all n sites from (values, grid, pred);
/// exact raw bit patterns appended in stream order. Groups where every
/// lane admits its code run fully vectorized; any group with a bail lane
/// is replayed through sz::encode_site, which computes the identical
/// result for the non-bailing lanes. Requires radius <= kSimdMaxRadius
/// (see pipeline.cpp) so the int32 lane arithmetic cannot wrap.
void encode_finish(const float* values, const std::int32_t* grid,
                   const std::int32_t* pred, std::size_t n,
                   const sz::PrequantParams& p, std::uint32_t* codes,
                   std::vector<std::uint32_t>& exact);

/// First-order telescoped row decode. Within a row the recurrence
/// r[k] = C[k] + u[k], u[k] = u[k-1] + (code[k] - radius) holds, where the
/// cross-row carry C[k] = a[k] + b[k] - ab[k] over the nullable
/// neighbour-row pointers (rank 1 / border rows pass nullptr). Processes
/// 8-lane groups from k0 and stops at the first group containing an exact
/// site, an out-of-range code, or an off-grid index, returning that
/// group's start; the caller decodes up to 8 sites through the shared
/// scalar helper and resumes. Returns n when the row (minus a < 8 tail)
/// is done. Requires radius <= kSimdMaxRadius.
[[nodiscard]] std::size_t decode_row_l1(
    const std::uint32_t* codes, const std::int32_t* a, const std::int32_t* b,
    const std::int32_t* ab, std::size_t k0, std::size_t n,
    std::int32_t radius, double step, std::int32_t* row,
    float* decoded) noexcept;

// --- Byte shuffle (lossless/shuffle_codec.cpp) ------------------------------

/// Transpose n floats into 4 byte planes (plane stride n), 8 floats per
/// shuffle_epi8+permutevar iteration, scalar tail.
void shuffle_bytes(const float* values, std::size_t n,
                   std::uint8_t* out) noexcept;

/// Inverse of shuffle_bytes.
void unshuffle_bytes(const std::uint8_t* bytes, std::size_t n,
                     float* out) noexcept;

}  // namespace lcp::simd::avx2
