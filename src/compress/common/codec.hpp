#pragma once
// Public compressor interface; studies and benches only see this surface.
//
// A codec codes only its payload, through two protected virtuals:
//   encode(values, dims, bound) -> payload bytes
//   decode(container view, out) -> status, every element of `out` written
// The non-virtual wrappers (codec.cpp) own the container (container.hpp):
// compress() times the encode and builds the container; decompress() and
// decompress_into() parse it once and check its codec name, and
// decompress_into() rejects a header whose element count differs from
// the caller's span before any decode runs. Codecs keep no per-call
// state, so one instance serves every thread.

#include <cstdint>
#include <memory>
#include <span>
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

struct ContainerView;

/// Abstract compressor: the container wrappers around one codec.
class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Codec identifier, the container's codec field ("sz", "zfp", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Compresses `field` under `bound`. The lossy codecs fail on non-finite
  /// input.
  [[nodiscard]] Expected<CompressResult> compress(
      const data::Field& field, const ErrorBound& bound) const;

  /// Compresses `values`, shaped `dims`, into a container that names the
  /// field `field_name`, without a Field around the values.
  [[nodiscard]] Expected<CompressResult> compress(
      std::span<const float> values, const data::Dims& dims,
      const std::string& field_name, const ErrorBound& bound) const;

  /// Decompresses a container produced by this codec straight into a new
  /// field, allocated for overwrite (no zero fill, no copy).
  [[nodiscard]] Expected<DecompressResult> decompress(
      std::span<const std::uint8_t> container) const;
  /// The same, for a container already parsed.
  [[nodiscard]] Expected<DecompressResult> decompress(
      const ContainerView& view) const;

  /// Decompresses a container produced by this codec straight into `out`;
  /// a decode that fails partway leaves `out` partly written.
  [[nodiscard]] Status decompress_into(std::span<const std::uint8_t> container,
                                       std::span<float> out) const;
  /// The same, for a container already parsed.
  [[nodiscard]] Status decompress_into(const ContainerView& view,
                                       std::span<float> out) const;

 protected:
  /// This codec's payload for `values`, shaped `dims`, under `bound`.
  [[nodiscard]] virtual Expected<std::vector<std::uint8_t>> encode(
      std::span<const float> values, const data::Dims& dims,
      const ErrorBound& bound) const = 0;

  /// Decodes the payload of `view`, a container of this codec, into
  /// `out`, which holds exactly view.dims.element_count() elements.
  [[nodiscard]] virtual Status decode(const ContainerView& view,
                                      std::span<float> out) const = 0;
};

/// The extents a codec walks: rank-4 fields merge their two slowest axes
/// (SZ's stencils and ZFP's transform are at most 3-D).
[[nodiscard]] std::vector<std::size_t> effective_extents(
    const data::Dims& dims);

/// Validates that all values are finite (the lossy codecs require this).
[[nodiscard]] Status validate_finite(std::span<const float> values);

}  // namespace lcp::compress
