#include "compress/common/codec.hpp"

#include <cmath>
#include <utility>

#include "compress/common/container.hpp"
#include "support/timer.hpp"

namespace lcp::compress {

const std::vector<double>& paper_error_bounds() {
  static const std::vector<double> bounds = {1e-1, 1e-2, 1e-3, 1e-4};
  return bounds;
}

std::vector<std::size_t> effective_extents(const data::Dims& dims) {
  auto ext = dims.extents();
  while (ext.size() > 3) {
    ext[1] *= ext[0];
    ext.erase(ext.begin());
  }
  return ext;
}

Status validate_finite(std::span<const float> values) {
  for (float v : values) {
    if (!std::isfinite(v)) {
      return Status::invalid_argument(
          "field contains non-finite values; lossy codecs require finite data");
    }
  }
  return Status::ok();
}

Expected<CompressResult> Compressor::compress(const data::Field& field,
                                              const ErrorBound& bound) const {
  return compress(field.values(), field.dims(), field.name(), bound);
}

Expected<CompressResult> Compressor::compress(std::span<const float> values,
                                              const data::Dims& dims,
                                              const std::string& field_name,
                                              const ErrorBound& bound) const {
  LCP_REQUIRE(values.size() == dims.element_count(),
              "compress: values do not fill dims");
  const Timer timer;
  auto payload = encode(values, dims, bound);
  if (!payload) {
    return payload.status();
  }
  auto container = build_container(name(), bound, dims, field_name, *payload);
  const Bytes output{container.size()};
  return CompressResult{std::move(container), Bytes{values.size_bytes()},
                        output, timer.elapsed()};
}

Expected<DecompressResult> Compressor::decompress(
    std::span<const std::uint8_t> container) const {
  auto view = parse_container(container);
  if (!view) {
    return view.status().with_context(name() + " container");
  }
  return decompress(*view);
}

Expected<DecompressResult> Compressor::decompress(
    const ContainerView& view) const {
  const Timer timer;
  // Decoded straight into the returned field, whose storage is not
  // zero-filled first: a header that claims more elements than its payload
  // holds costs only the pages the codec writes before it fails, not its
  // claim.
  auto field = data::Field::for_overwrite(view.field_name, view.dims);
  LCP_RETURN_IF_ERROR(decompress_into(view, field.mutable_values()));
  return DecompressResult{std::move(field), timer.elapsed()};
}

Status Compressor::decompress_into(std::span<const std::uint8_t> container,
                                   std::span<float> out) const {
  auto view = parse_container(container);
  if (!view) {
    return view.status().with_context(name() + " container");
  }
  return decompress_into(*view, out);
}

Status Compressor::decompress_into(const ContainerView& view,
                                   std::span<float> out) const {
  if (view.codec != name()) {
    return Status::invalid_argument("container codec is not " + name());
  }
  // Worded for the slab walk, whose spans are the ranges of its layout.
  if (const std::uint64_t claimed = view.dims.element_count();
      claimed != out.size()) {
    return Status::corrupt_data("slab header claims " +
                                std::to_string(claimed) +
                                " elements, layout holds " +
                                std::to_string(out.size()));
  }
  return decode(view, out);
}

}  // namespace lcp::compress
