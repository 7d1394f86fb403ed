#include "compress/lossless/shuffle_codec.hpp"

#include <bit>
#include <cstring>

#include "compress/common/container.hpp"
#include "compress/sz/zlite.hpp"
#include "support/buffer_pool.hpp"
#include "support/bytestream.hpp"
#include "support/dispatch.hpp"

#if defined(LCP_HAVE_AVX2_BUILD)
#include "compress/simd/avx2_kernels.hpp"
#endif

namespace lcp::lossless {
namespace {

constexpr std::uint8_t kPayloadVersion = 1;

}  // namespace

void shuffle_bytes(std::span<const float> values,
                   std::span<std::uint8_t> out) noexcept {
  const std::size_t n = values.size();
#if defined(LCP_HAVE_AVX2_BUILD)
  if (simd::simd_level() >= simd::SimdLevel::kAvx2) {
    simd::avx2::shuffle_bytes(values.data(), n, out.data());
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(values[i]);
    out[0 * n + i] = static_cast<std::uint8_t>(bits);
    out[1 * n + i] = static_cast<std::uint8_t>(bits >> 8);
    out[2 * n + i] = static_cast<std::uint8_t>(bits >> 16);
    out[3 * n + i] = static_cast<std::uint8_t>(bits >> 24);
  }
}

void unshuffle_bytes(std::span<const std::uint8_t> bytes,
                     std::span<float> out) noexcept {
  const std::size_t n = out.size();
#if defined(LCP_HAVE_AVX2_BUILD)
  if (simd::simd_level() >= simd::SimdLevel::kAvx2) {
    simd::avx2::unshuffle_bytes(bytes.data(), n, out.data());
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bits =
        static_cast<std::uint32_t>(bytes[0 * n + i]) |
        (static_cast<std::uint32_t>(bytes[1 * n + i]) << 8) |
        (static_cast<std::uint32_t>(bytes[2 * n + i]) << 16) |
        (static_cast<std::uint32_t>(bytes[3 * n + i]) << 24);
    out[i] = std::bit_cast<float>(bits);
  }
}

Expected<std::vector<std::uint8_t>> ShuffleCodec::encode(
    std::span<const float> values, const data::Dims& /*dims*/,
    const compress::ErrorBound& /*bound*/) const {
  std::vector<std::uint8_t> shuffled(values.size_bytes());
  shuffle_bytes(values, shuffled);
  const auto packed = sz::zlite_compress(shuffled);

  ByteWriter payload;
  payload.write_u8(kPayloadVersion);
  payload.write_u64(packed.size());
  payload.write_bytes(packed);
  return payload.finish();
}

Status ShuffleCodec::decode(const compress::ContainerView& view,
                            std::span<float> out) const {
  ByteReader r{view.payload};
  auto version = r.read_u8();
  if (!version || *version != kPayloadVersion) {
    return Status::unsupported("unknown lossless payload version");
  }
  auto packed_size = r.read_u64();
  if (!packed_size) {
    return packed_size.status().with_context("lossless packed size");
  }
  auto packed = r.read_bytes(static_cast<std::size_t>(*packed_size));
  if (!packed) {
    return packed.status().with_context("lossless packed blob");
  }
  const std::size_t bytes = out.size_bytes();
  ScratchLease<std::uint8_t> shuffled_lease;
  auto& shuffled = shuffled_lease.get();
  if (const Status st = sz::zlite_decompress_into(*packed, shuffled, bytes);
      !st.is_ok()) {
    return st.with_context("lossless payload");
  }
  if (shuffled.size() != bytes) {
    return Status::corrupt_data("lossless: shuffled size mismatch");
  }
  unshuffle_bytes(shuffled, out);
  return Status::ok();
}

}  // namespace lcp::lossless
