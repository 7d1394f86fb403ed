#include "compress/sz/sz_compressor.hpp"

#include <bit>
#include <cmath>
#include <vector>

#include "compress/common/container.hpp"
#include "compress/sz/huffman.hpp"
#include "compress/sz/pipeline.hpp"
#include "compress/sz/quantizer.hpp"
#include "compress/sz/zlite.hpp"
#include "support/buffer_pool.hpp"
#include "support/bytestream.hpp"

namespace lcp::sz {
namespace {

// v2: prequantized integer Lorenzo pipeline (compress/sz/prequant.hpp).
// v1 payloads used reconstructed-value feedback prediction and would
// silently misdecode under the v2 semantics, so the version gates them out.
constexpr std::uint8_t kPayloadVersion = 2;

/// Packs one bit per element into bytes (LSB-first).
std::vector<std::uint8_t> pack_bits(const std::vector<bool>& bits) {
  std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) {
      out[i >> 3] |= static_cast<std::uint8_t>(1u << (i & 7));
    }
  }
  return out;
}

bool unpack_bit(std::span<const std::uint8_t> bytes, std::size_t i) {
  return ((bytes[i >> 3] >> (i & 7)) & 1u) != 0;
}

}  // namespace

Expected<std::vector<std::uint8_t>> SzCompressor::encode(
    std::span<const float> values, const data::Dims& dims,
    const compress::ErrorBound& bound) const {
  const bool relative =
      bound.mode == compress::BoundMode::kPointwiseRelative;
  if (bound.mode != compress::BoundMode::kAbsolute && !relative) {
    return Status::unsupported(
        "sz supports absolute and pointwise-relative bounds only");
  }
  if (bound.value <= 0.0) {
    return Status::invalid_argument("error bound must be positive");
  }
  if (relative && (bound.value < 1e-6 || bound.value > 0.5)) {
    return Status::invalid_argument(
        "pointwise-relative bound must be in [1e-6, 0.5]");
  }
  LCP_RETURN_IF_ERROR(compress::validate_finite(values));

  const auto ext = compress::effective_extents(dims);

  // PW_REL (the paper's ref [4]): compress log|x| with an absolute bound of
  // log(1+rel); |log x' - log x| <= log(1+rel) implies |x'-x| <= rel*|x|.
  // Signs and exact zeros travel in side bitmaps. The 0.95 margin absorbs
  // the float32 rounding of the log and exp evaluations.
  std::span<const float> work = values;
  std::vector<float> logs;
  std::vector<std::uint8_t> sign_bytes;
  std::vector<std::uint8_t> zero_bytes;
  double eb_abs = bound.value;
  if (relative) {
    eb_abs = std::log1p(bound.value) * 0.95;
    const std::size_t n = values.size();
    logs.resize(n);
    std::vector<bool> negatives(n, false);
    std::vector<bool> zeros(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = values[i];
      if (v == 0.0F) {
        zeros[i] = true;
        logs[i] = 0.0F;
      } else {
        negatives[i] = v < 0.0F;
        logs[i] = static_cast<float>(std::log(std::fabs(static_cast<double>(v))));
      }
    }
    sign_bytes = zlite_compress(pack_bits(negatives));
    zero_bytes = zlite_compress(pack_bits(zeros));
    work = logs;
  }

  const LinearQuantizer quantizer{eb_abs, options_.quantizer_radius};

  // Pooled scratch: chunk-parallel compression runs this function once per
  // slab per worker, and fresh multi-MB vectors each time serialize the
  // workers on the allocator (mmap churn). The leases return the buffers
  // to the calling thread's pool on scope exit.
  ScratchLease<std::uint32_t> codes_lease{values.size()};
  ScratchLease<std::uint32_t> exact_lease;
  auto& codes = codes_lease.get();
  auto& exact = exact_lease.get();
  predict_quantize_fused(work, ext, options_.predictor, quantizer, codes,
                         exact);

  auto huffman = huffman_encode(codes, quantizer.alphabet_size());
  std::vector<std::uint8_t> entropy_blob;
  if (options_.use_lossless_backend) {
    entropy_blob = zlite_compress(huffman);
  } else {
    entropy_blob = std::move(huffman);
  }

  ByteWriter payload;
  payload.reserve(entropy_blob.size() + exact.size() * sizeof(std::uint32_t) +
                  sign_bytes.size() + zero_bytes.size() + 64);
  payload.write_u8(kPayloadVersion);
  payload.write_u8(options_.use_lossless_backend ? 1 : 0);
  payload.write_u8(static_cast<std::uint8_t>(options_.predictor));
  payload.write_u8(relative ? 1 : 0);  // transform: 0 = none, 1 = log
  if (relative) {
    payload.write_blob(sign_bytes);
    payload.write_blob(zero_bytes);
  }
  payload.write_u32(quantizer.radius());
  payload.write_u64(entropy_blob.size());
  payload.write_bytes(entropy_blob);
  payload.write_u64(exact.size());
  for (std::uint32_t bits : exact) {
    payload.write_u32(bits);
  }

  return payload.finish();
}

Status SzCompressor::decode(const compress::ContainerView& view,
                            std::span<float> out) const {
  ByteReader r{view.payload};
  auto version = r.read_u8();
  if (!version || *version != kPayloadVersion) {
    return Status::unsupported("unknown sz payload version");
  }
  auto lossless = r.read_u8();
  if (!lossless) {
    return lossless.status().with_context("sz header");
  }
  auto predictor_raw = r.read_u8();
  if (!predictor_raw || *predictor_raw > 1) {
    return Status::corrupt_data("sz: unknown predictor id");
  }
  const auto predictor = static_cast<SzPredictor>(*predictor_raw);
  auto transform = r.read_u8();
  if (!transform || *transform > 1) {
    return Status::corrupt_data("sz: unknown transform id");
  }
  const bool relative = *transform == 1;
  std::span<const std::uint8_t> sign_blob;
  std::span<const std::uint8_t> zero_blob;
  if (relative) {
    auto signs = r.read_blob();
    auto zeros = r.read_blob();
    if (!signs || !zeros) {
      return Status::corrupt_data("sz: truncated sign/zero bitmaps");
    }
    sign_blob = *signs;
    zero_blob = *zeros;
  }
  auto radius = r.read_u32();
  if (!radius || *radius == 0) {
    return Status::corrupt_data("sz: bad quantizer radius");
  }
  auto entropy_size = r.read_u64();
  if (!entropy_size) {
    return entropy_size.status().with_context("sz entropy size");
  }
  auto entropy_blob = r.read_bytes(static_cast<std::size_t>(*entropy_size));
  if (!entropy_blob) {
    return entropy_blob.status().with_context("sz entropy blob");
  }

  const std::size_t n = out.size();
  // Pooled like the compress-side scratch: the decoded symbol buffer is the
  // largest decompression allocation (4 bytes per element) and would
  // otherwise be mapped and faulted in fresh on every call.
  ScratchLease<std::uint32_t> codes_lease;
  auto& codes = codes_lease.get();
  if (*lossless != 0) {
    // Cap the inflated size: huffman blob is bounded by table + payload.
    auto huffman = zlite_decompress(*entropy_blob, 64 + 8 * n + (n + 1) * 16);
    if (!huffman) {
      return huffman.status().with_context("sz entropy payload");
    }
    auto status = huffman_decode_into(*huffman, n, codes);
    if (!status.is_ok()) {
      return status.with_context("sz entropy payload");
    }
  } else {
    auto status = huffman_decode_into(*entropy_blob, n, codes);
    if (!status.is_ok()) {
      return status.with_context("sz entropy payload");
    }
  }
  if (codes.size() != n) {
    return Status::corrupt_data("sz: code count mismatch");
  }

  auto exact_count = r.read_u64();
  if (!exact_count) {
    return exact_count.status().with_context("sz unpredictables");
  }
  if (*exact_count > n) {
    return Status::corrupt_data("sz: more unpredictables than elements");
  }
  std::vector<float> exact;
  exact.reserve(static_cast<std::size_t>(*exact_count));
  for (std::uint64_t i = 0; i < *exact_count; ++i) {
    auto bits = r.read_u32();
    if (!bits) {
      return bits.status().with_context("sz unpredictables");
    }
    exact.push_back(std::bit_cast<float>(*bits));
  }

  const double eb_abs = relative ? std::log1p(view.bound.value) * 0.95
                                 : view.bound.value;
  const LinearQuantizer quantizer{eb_abs, *radius};
  const auto ext = compress::effective_extents(view.dims);
  std::size_t exact_pos = 0;
  const bool ok = reconstruct_fused(codes, exact, ext, predictor, quantizer,
                                    out, exact_pos);
  if (!ok || exact_pos != exact.size()) {
    return Status::corrupt_data("sz: stream inconsistent with unpredictables");
  }

  if (relative) {
    const auto signs = zlite_decompress(sign_blob, (n + 7) / 8);
    const auto zeros = zlite_decompress(zero_blob, (n + 7) / 8);
    if (!signs || !zeros || signs->size() != (n + 7) / 8 ||
        zeros->size() != (n + 7) / 8) {
      return Status::corrupt_data("sz: sign/zero bitmap mismatch");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (unpack_bit(*zeros, i)) {
        out[i] = 0.0F;
      } else {
        const double magnitude = std::exp(static_cast<double>(out[i]));
        out[i] = static_cast<float>(unpack_bit(*signs, i) ? -magnitude
                                                          : magnitude);
      }
    }
  }

  return Status::ok();
}

}  // namespace lcp::sz
