#include "compress/common/registry.hpp"

#include <array>

#include "compress/common/container.hpp"
#include "compress/lossless/shuffle_codec.hpp"
#include "compress/sz/sz_compressor.hpp"
#include "compress/zfp/zfp_compressor.hpp"

namespace lcp::compress {

const char* codec_name(CodecId id) noexcept {
  switch (id) {
    case CodecId::kSz:
      return "sz";
    case CodecId::kZfp:
      return "zfp";
  }
  return "?";
}

const std::vector<CodecId>& all_codecs() {
  static const std::vector<CodecId> ids = {CodecId::kSz, CodecId::kZfp};
  return ids;
}

std::unique_ptr<Compressor> make_compressor(CodecId id) {
  switch (id) {
    case CodecId::kSz:
      return std::make_unique<sz::SzCompressor>();
    case CodecId::kZfp:
      return std::make_unique<zfp::ZfpCompressor>();
  }
  LCP_REQUIRE(false, "unknown codec id");
  return nullptr;
}

Expected<std::unique_ptr<Compressor>> make_compressor(const std::string& name) {
  for (CodecId id : all_codecs()) {
    if (name == codec_name(id)) {
      return make_compressor(id);
    }
  }
  if (name == "lossless") {
    return std::unique_ptr<Compressor>{
        std::make_unique<lossless::ShuffleCodec>()};
  }
  if (name == "sz2") {
    // SZ with the second-order Lorenzo predictor (HPDC'20). Containers it
    // produces still self-describe as "sz" — the predictor id travels in
    // the payload, so any SZ decoder handles them.
    sz::SzOptions options;
    options.predictor = sz::SzPredictor::kSecondOrder;
    return std::unique_ptr<Compressor>{
        std::make_unique<sz::SzCompressor>(options)};
  }
  return Status::invalid_argument("unknown codec: " + name);
}

const std::vector<std::string>& registered_codec_names() {
  static const std::vector<std::string> names = {"sz", "sz2", "zfp",
                                                 "lossless"};
  return names;
}

namespace {

/// A parsed container and the decoder its codec field names.
struct Routed {
  ContainerView view;
  const Compressor* decoder;
};

/// Parses `container` once and finds its decoder. Codecs keep no per-call
/// state, so one shared instance of each decodes for every caller ("sz2"
/// containers say "sz").
Expected<Routed> route(std::span<const std::uint8_t> container) {
  static const sz::SzCompressor sz;
  static const zfp::ZfpCompressor zfp;
  static const lossless::ShuffleCodec lossless;
  static const std::array<const Compressor*, 3> decoders{&sz, &zfp, &lossless};
  auto view = parse_container(container);
  if (!view) {
    return view.status().with_context("decompress_any");
  }
  for (const Compressor* decoder : decoders) {
    if (decoder->name() == view->codec) {
      return Routed{std::move(*view), decoder};
    }
  }
  return Status::invalid_argument("unknown codec: " + view->codec)
      .with_context("decompress_any");
}

}  // namespace

Expected<DecompressResult> decompress_any(
    std::span<const std::uint8_t> container) {
  auto routed = route(container);
  if (!routed) {
    return routed.status();
  }
  return routed->decoder->decompress(routed->view);
}

Status decompress_any_into(std::span<const std::uint8_t> container,
                           std::span<float> out) {
  auto routed = route(container);
  if (!routed) {
    return routed.status();
  }
  return routed->decoder->decompress_into(routed->view, out);
}

}  // namespace lcp::compress
