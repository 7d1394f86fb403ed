#pragma once
// SZ hot-path kernels: prequantized integer Lorenzo prediction and
// linear-scaling quantization (or reconstruction) over the field.
//
// The pipeline is the cuSZ-style prequantized formulation (see
// compress/sz/prequant.hpp): each sample is first snapped to its error-
// bound grid index independently, the Lorenzo stencil then runs in exact
// integer arithmetic over that grid, and only sites whose float32
// reconstruction would break the bound (or that fall off the grid) are
// stored exactly. Removing the reconstructed-value feedback chain makes
// the encoder embarrassingly parallel, which is what lets the AVX2
// dispatch level (support/dispatch.hpp) run 8-lane kernels that are
// bit-identical to the scalar path — same codes, same exact stream, same
// decoded values, under either dispatch level.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/sz/quantizer.hpp"

namespace lcp::sz {

/// Prediction stencil family.
enum class SzPredictor : std::uint8_t {
  kFirstOrder = 0,   ///< classic Lorenzo (SZ 1.x/2.x default path)
  kSecondOrder = 1,  ///< second-order Lorenzo (Zhao et al., HPDC'20)
};

/// Runs prediction+quantization over the field in row-major order.
/// Fills `codes` (one per element) and appends to `exact` (raw bits of
/// unpredictable samples, in stream order).
void predict_quantize_fused(std::span<const float> values,
                            std::span<const std::size_t> ext,
                            SzPredictor predictor,
                            const LinearQuantizer& quantizer,
                            std::vector<std::uint32_t>& codes,
                            std::vector<std::uint32_t>& exact);

/// Inverse pass: rebuilds `decoded` (sized to the element count by the
/// caller) from quantization codes and the exact-value side stream.
/// Returns false if the streams are inconsistent (bad code, exhausted
/// exact values); `exact_consumed` reports how many exact values were
/// used either way.
[[nodiscard]] bool reconstruct_fused(std::span<const std::uint32_t> codes,
                                     std::span<const float> exact,
                                     std::span<const std::size_t> ext,
                                     SzPredictor predictor,
                                     const LinearQuantizer& quantizer,
                                     std::span<float> decoded,
                                     std::size_t& exact_consumed);

}  // namespace lcp::sz
