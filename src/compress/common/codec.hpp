#pragma once
// Public compressor interface. Both the SZ-class and ZFP-class codecs
// implement this; studies and benches only see this surface.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/field.hpp"
#include "support/status.hpp"
#include "support/units.hpp"

namespace lcp::compress {

/// Error-bound mode. The paper uses SZ absolute bounds and ZFP
/// fixed-accuracy (both cap pointwise absolute error); kFixedRate is ZFP's
/// other headline mode (a hard size budget, no error guarantee) and
/// kPointwiseRelative is SZ's PW_REL mode (the paper's ref [4]): each
/// element's error is capped relative to its own magnitude.
enum class BoundMode : std::uint8_t {
  kAbsolute = 0,           ///< |x - x'| <= value for every element
  kFixedRate = 1,          ///< value = compressed bits per element (ZFP only)
  kPointwiseRelative = 2,  ///< |x - x'| <= value * |x| per element (SZ only)
};

/// Error bound requested at compression time.
struct ErrorBound {
  BoundMode mode = BoundMode::kAbsolute;
  double value = 1e-3;

  [[nodiscard]] static ErrorBound absolute(double value) noexcept {
    return {BoundMode::kAbsolute, value};
  }
  [[nodiscard]] static ErrorBound fixed_rate(double bits_per_value) noexcept {
    return {BoundMode::kFixedRate, bits_per_value};
  }
  [[nodiscard]] static ErrorBound pointwise_relative(double value) noexcept {
    return {BoundMode::kPointwiseRelative, value};
  }

  bool operator==(const ErrorBound&) const = default;
};

/// The paper's four study bounds: 1e-1, 1e-2, 1e-3, 1e-4.
[[nodiscard]] const std::vector<double>& paper_error_bounds();

/// Result of a compression call: the serialized container plus bookkeeping
/// used by the power studies (sizes and native wall time).
struct CompressResult {
  std::vector<std::uint8_t> container;  ///< self-describing compressed bytes
  Bytes input_bytes;
  Bytes output_bytes;
  Seconds native_wall_time;  ///< measured on the host during this call

  [[nodiscard]] double compression_ratio() const noexcept {
    return output_bytes.bytes() == 0
               ? 0.0
               : static_cast<double>(input_bytes.bytes()) /
                     static_cast<double>(output_bytes.bytes());
  }
};

/// Result of a decompression call.
struct DecompressResult {
  data::Field field;
  Seconds native_wall_time;
};

/// Abstract lossy compressor.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Codec identifier ("sz", "zfp").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Compresses `field` under `bound`. Fails on non-finite input.
  [[nodiscard]] virtual Expected<CompressResult> compress(
      const data::Field& field, const ErrorBound& bound) const = 0;

  /// Decompresses a container produced by this codec.
  [[nodiscard]] virtual Expected<DecompressResult> decompress(
      std::span<const std::uint8_t> container) const = 0;
};

/// Validates that all values are finite (both codecs require this).
[[nodiscard]] Status validate_finite(const data::Field& field);

}  // namespace lcp::compress
