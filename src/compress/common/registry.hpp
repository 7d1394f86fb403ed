#pragma once
// Codec registry: name -> Compressor, so studies can be configured by
// string ("sz", "zfp") exactly as the paper's Table III partitions are.

#include <memory>
#include <string>
#include <vector>

#include "compress/common/codec.hpp"

namespace lcp::compress {

/// Compressor family ids used across studies and model partitions.
enum class CodecId : std::uint8_t { kSz = 0, kZfp = 1 };

[[nodiscard]] const char* codec_name(CodecId id) noexcept;

/// Both codecs, in paper order {SZ, ZFP}.
[[nodiscard]] const std::vector<CodecId>& all_codecs();

/// Creates a codec instance. Never fails for a valid id.
[[nodiscard]] std::unique_ptr<Compressor> make_compressor(CodecId id);

/// Looks up by name ("sz"/"zfp", case-sensitive).
[[nodiscard]] Expected<std::unique_ptr<Compressor>> make_compressor(
    const std::string& name);

/// Every name make_compressor(name) accepts, for exhaustive sweeps
/// (fuzzing, round-trip matrices): {"sz", "sz2", "zfp", "lossless"}.
[[nodiscard]] const std::vector<std::string>& registered_codec_names();

/// Decompresses any valid container by routing on its codec field to a
/// shared decoder (no codec is built per call).
[[nodiscard]] Expected<DecompressResult> decompress_any(
    std::span<const std::uint8_t> container);

/// decompress_any straight into `out`, with Compressor::decompress_into's
/// contract: a header whose element count differs from out.size() is
/// rejected before any decode runs.
[[nodiscard]] Status decompress_any_into(
    std::span<const std::uint8_t> container, std::span<float> out);

}  // namespace lcp::compress
