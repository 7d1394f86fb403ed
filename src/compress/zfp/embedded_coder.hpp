#pragma once
// Embedded bit-plane coder for one block of negabinary coefficients.
//
// Planes are emitted most-significant first. Within a plane, bits of
// already-significant coefficients are sent verbatim; new significant
// coefficients are located with a (flag, unary-offset) walk over the
// ordered suffix, exploiting the low-frequency-first coefficient order.
// Truncating the stream after any plane yields a valid coarser block —
// the "embedded coding" the ZFP paper describes.
//
// The coder works in registers: each plane's bits are gathered into one
// word (a 64-coefficient block transposes all of them at once), every
// (flag, unary run) token is one write into a block-local 64-bit
// accumulator that hands the BitWriter only whole words, and the decoder
// parses each token out of a window peeked at the reader's cursor with one
// countr_zero. tests/compress/zfp_reference_coder.hpp keeps the per-call
// coder that defines the format, and the differential suite holds the two
// bit-identical.

#include <cstdint>
#include <span>

#include "support/bitstream.hpp"

namespace lcp::zfp {

/// Encodes planes [plane_lo, plane_hi] (inclusive, hi >= lo) of `coeffs`
/// (at most 64, already in visit order) into `writer`.
void encode_block_planes(std::span<const std::uint64_t> coeffs,
                         unsigned plane_hi, unsigned plane_lo,
                         BitWriter& writer);

/// Decodes planes written by encode_block_planes into `coeffs` (zeroed by
/// the caller). Returns false if the stream ended prematurely or names a
/// coefficient past the block.
[[nodiscard]] bool decode_block_planes(std::span<std::uint64_t> coeffs,
                                       unsigned plane_hi, unsigned plane_lo,
                                       BitReader& reader);

/// Fixed-rate variants: encode/decode planes [0, plane_hi] but consume
/// exactly `budget_bits` (the encoder zero-pads, the decoder skips the
/// padding), stopping symmetrically when the budget runs out — possibly in
/// the middle of a plane. Truncating at any budget yields a valid coarser
/// block (the "embedded" property that makes ZFP's fixed-rate mode work).
void encode_block_planes_capped(std::span<const std::uint64_t> coeffs,
                                unsigned plane_hi, std::uint64_t budget_bits,
                                BitWriter& writer);

[[nodiscard]] bool decode_block_planes_capped(std::span<std::uint64_t> coeffs,
                                              unsigned plane_hi,
                                              std::uint64_t budget_bits,
                                              BitReader& reader);

}  // namespace lcp::zfp
