#pragma once
// ZFP-class lossy compressor. 4^d blocks are promoted to
// block-floating-point int64, decorrelated with an exact integer lifting
// transform, negabinary-recoded and embedded-coded. Two modes, selected by
// the ErrorBound passed to compress():
//  - fixed accuracy (BoundMode::kAbsolute): planes are kept down to a
//    per-block verified cutoff guaranteeing |x - x'| <= tolerance;
//  - fixed rate (BoundMode::kFixedRate): every block gets exactly
//    rate * 4^d bits (headers included), giving hard size guarantees and
//    random block access at the cost of no error bound.

#include "compress/common/codec.hpp"

namespace lcp::zfp {

class ZfpCompressor final : public compress::Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "zfp"; }

 protected:
  [[nodiscard]] Expected<std::vector<std::uint8_t>> encode(
      std::span<const float> values, const data::Dims& dims,
      const compress::ErrorBound& bound) const override;

  [[nodiscard]] Status decode(const compress::ContainerView& view,
                              std::span<float> out) const override;
};

}  // namespace lcp::zfp
