#pragma once
// SZ-class lossy compressor: Lorenzo prediction -> linear-scaling
// quantization -> canonical Huffman -> zlite lossless backend, honouring an
// absolute error bound (the configuration the paper studies).

#include "compress/common/codec.hpp"
#include "compress/sz/pipeline.hpp"

namespace lcp::sz {

/// Tunables; defaults match upstream SZ conventions.
struct SzOptions {
  std::uint32_t quantizer_radius = 32768;  ///< codes span [1, 2*radius)
  bool use_lossless_backend = true;        ///< zlite pass over Huffman output
  SzPredictor predictor = SzPredictor::kFirstOrder;
};

class SzCompressor final : public compress::Compressor {
 public:
  SzCompressor() = default;
  explicit SzCompressor(SzOptions options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "sz"; }

 protected:
  [[nodiscard]] Expected<std::vector<std::uint8_t>> encode(
      std::span<const float> values, const data::Dims& dims,
      const compress::ErrorBound& bound) const override;

  [[nodiscard]] Status decode(const compress::ContainerView& view,
                              std::span<float> out) const override;

 private:
  SzOptions options_;
};

}  // namespace lcp::sz
