#pragma once
// Lossless baseline codec: byte-shuffle + zlite.
//
// The paper's motivation rests on "lossy compressors have the advantage of
// better space-savings and runtime efficiency over lossless compressors";
// this codec is the in-repo lossless comparator that lets benches reproduce
// that claim. Byte-shuffling (grouping the k-th byte of every float
// together, the blosc/HDF5-shuffle trick) exposes the low-entropy exponent
// bytes of scientific data to the LZ stage.
//
// The ErrorBound argument is accepted for interface uniformity and ignored
// — reconstruction is always exact.

#include "compress/common/codec.hpp"

namespace lcp::lossless {

class ShuffleCodec final : public compress::Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "lossless"; }

 protected:
  [[nodiscard]] Expected<std::vector<std::uint8_t>> encode(
      std::span<const float> values, const data::Dims& dims,
      const compress::ErrorBound& bound) const override;

  [[nodiscard]] Status decode(const compress::ContainerView& view,
                              std::span<float> out) const override;
};

/// Byte-shuffle: out[k * n + i] = byte k of value i (exposed for tests).
void shuffle_bytes(std::span<const float> values,
                   std::span<std::uint8_t> out) noexcept;

/// Exact inverse of shuffle_bytes.
void unshuffle_bytes(std::span<const std::uint8_t> bytes,
                     std::span<float> out) noexcept;

}  // namespace lcp::lossless
