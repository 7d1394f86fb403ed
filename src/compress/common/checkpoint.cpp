#include "compress/common/checkpoint.hpp"

#include <algorithm>
#include <cstdio>

#include "compress/common/container.hpp"
#include "compress/common/registry.hpp"
#include "support/bytestream.hpp"
#include "support/checksum.hpp"

namespace lcp::compress {
namespace {

constexpr std::uint32_t kManifestMagic = 0x4D50434CU;  // "LCPM"
constexpr std::uint8_t kManifestVersion = 1;

/// Everything a reader needs to place and decode slabs.
struct Manifest {
  std::string codec;
  ErrorBound bound;
  data::Dims dims;
  std::string field_name;
  std::uint64_t chunk_elements = 0;
  std::uint32_t slab_count = 0;
};

std::vector<std::uint8_t> build_manifest(const Manifest& m) {
  ByteWriter w;
  w.write_u32(kManifestMagic);
  w.write_u8(kManifestVersion);
  w.write_string(m.codec);
  w.write_u8(static_cast<std::uint8_t>(m.bound.mode));
  w.write_f64(m.bound.value);
  w.write_u8(static_cast<std::uint8_t>(m.dims.rank()));
  for (std::size_t e : m.dims.extents()) {
    w.write_u64(e);
  }
  w.write_string(m.field_name);
  w.write_u64(m.chunk_elements);
  w.write_u32(m.slab_count);
  return w.finish();
}

Expected<Manifest> parse_manifest(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto magic = r.read_u32();
  if (!magic || *magic != kManifestMagic) {
    return Status::corrupt_data("bad manifest magic");
  }
  auto version = r.read_u8();
  if (!version || *version != kManifestVersion) {
    return Status::unsupported("unknown manifest version");
  }
  Manifest m;
  auto codec = r.read_string();
  if (!codec) {
    return codec.status().with_context("manifest codec");
  }
  m.codec = std::move(*codec);
  auto mode = r.read_u8();
  if (!mode ||
      *mode > static_cast<std::uint8_t>(BoundMode::kPointwiseRelative)) {
    return Status::corrupt_data("manifest bound mode invalid");
  }
  auto value = r.read_f64();
  if (!value) {
    return value.status().with_context("manifest bound");
  }
  m.bound = ErrorBound{static_cast<BoundMode>(*mode), *value};
  auto rank = r.read_u8();
  if (!rank || *rank == 0 || *rank > 4) {
    return Status::corrupt_data("manifest rank out of range");
  }
  std::vector<std::size_t> extents;
  std::uint64_t elements = 1;
  for (std::uint8_t i = 0; i < *rank; ++i) {
    auto e = r.read_u64();
    if (!e || *e == 0) {
      return Status::corrupt_data("manifest extent invalid");
    }
    if (*e > kMaxContainerElements ||
        elements > kMaxContainerElements / *e) {
      return Status::corrupt_data("manifest dims exceed element limit");
    }
    elements *= *e;
    extents.push_back(static_cast<std::size_t>(*e));
  }
  m.dims = data::Dims{std::move(extents)};
  auto name = r.read_string();
  if (!name) {
    return name.status().with_context("manifest field name");
  }
  m.field_name = std::move(*name);
  auto chunk_elements = r.read_u64();
  if (!chunk_elements || *chunk_elements == 0) {
    return Status::corrupt_data("manifest chunk_elements invalid");
  }
  m.chunk_elements = *chunk_elements;
  auto slabs = r.read_u32();
  if (!slabs) {
    return slabs.status().with_context("manifest slab count");
  }
  m.slab_count = *slabs;
  const std::uint64_t expected_slabs =
      (elements + m.chunk_elements - 1) / m.chunk_elements;
  if (m.slab_count != expected_slabs) {
    return Status::corrupt_data("manifest slab count inconsistent with dims");
  }
  return m;
}

/// Adapter from recover_checkpoint's verdicts to the shared region fill.
void interpolate_lost(std::span<float> out,
                      const std::vector<SlabVerdict>& slabs) {
  std::vector<SlabRegion> regions;
  regions.reserve(slabs.size());
  for (const auto& v : slabs) {
    regions.push_back({v.element_offset, v.element_count, v.recovered});
  }
  interpolate_lost_regions(out, regions);
}

/// Shared slab walk for both decode paths: decodes each slab chunk into
/// `report`, filling per-slab verdicts.
void decode_slabs(const FrameRecovery& rec, const Manifest& manifest,
                  std::span<float> out, RecoveryReport& report) {
  const std::size_t n = manifest.dims.element_count();
  report.slabs.resize(manifest.slab_count);
  for (std::uint32_t s = 0; s < manifest.slab_count; ++s) {
    SlabVerdict& v = report.slabs[s];
    v.chunk_seq = s + 1;
    v.element_offset = static_cast<std::size_t>(s) * manifest.chunk_elements;
    v.element_count =
        std::min<std::size_t>(manifest.chunk_elements, n - v.element_offset);
    const ChunkReport& chunk = rec.chunks[v.chunk_seq];
    v.frame_state = chunk.state;
    if (chunk.state != ChunkState::kIntact) {
      v.status = chunk.status;
      continue;
    }
    auto decoded = decompress_any(chunk.payload);
    if (!decoded) {
      v.status = decoded.status().with_context("slab " + std::to_string(s));
      continue;
    }
    if (decoded->field.element_count() != v.element_count) {
      v.status = Status::corrupt_data("slab element count mismatch")
                     .with_context("slab " + std::to_string(s));
      continue;
    }
    const auto values = decoded->field.values();
    std::copy(values.begin(), values.end(),
              out.begin() + static_cast<std::ptrdiff_t>(v.element_offset));
    v.status = Status::ok();
    v.recovered = true;
  }
}

/// Decodes a walked checkpoint frame: manifest (or its replica), then every
/// slab, with per-slab verdicts filled per `policy`. Shared by
/// recover_checkpoint and read_checkpoint, so the strict reader walks and
/// checksums the frame only once.
Expected<RecoveryReport> decode_checkpoint(const FrameRecovery& rec,
                                           const RecoveryPolicy& policy) {
  if ((rec.info.flags & kFrameFlagCheckpoint) == 0) {
    return Status::invalid_argument(
        "frame is not a checkpoint (flag missing)");
  }
  if (rec.info.chunk_count < 2) {
    return Status::corrupt_data("checkpoint has no manifest chunks");
  }

  RecoveryReport report;
  report.header_from_replica = rec.header_from_replica;

  // Manifest: chunk 0, or its replica in the last chunk.
  Expected<Manifest> manifest =
      Status::corrupt_data("manifest chunk lost");
  if (rec.chunks.front().state == ChunkState::kIntact) {
    manifest = parse_manifest(rec.chunks.front().payload);
  }
  if (!manifest && rec.chunks.back().state == ChunkState::kIntact) {
    manifest = parse_manifest(rec.chunks.back().payload);
    if (manifest) {
      report.manifest_from_replica = true;
    }
  }
  if (!manifest) {
    return manifest.status().with_context(
        "both manifest copies unreadable");
  }
  if (manifest->slab_count + 2 != rec.info.chunk_count) {
    return Status::corrupt_data(
        "manifest slab count inconsistent with frame chunk count");
  }

  const std::size_t n = manifest->dims.element_count();
  report.total_elements = n;
  std::vector<float> out(n, 0.0F);
  decode_slabs(rec, *manifest, out, report);

  for (const auto& v : report.slabs) {
    if (!v.recovered) {
      report.lost_elements += v.element_count;
    }
  }
  if (policy.fail_on_any_loss && report.lost_elements > 0) {
    for (const auto& v : report.slabs) {
      if (!v.recovered) {
        return v.status.with_context("recover_checkpoint (strict policy)");
      }
    }
  }
  if (policy.fill == RecoveryFill::kInterpolate) {
    interpolate_lost(out, report.slabs);
  }
  report.field =
      data::Field{manifest->field_name, manifest->dims, std::move(out)};
  return report;
}

}  // namespace

void interpolate_lost_regions(std::span<float> out,
                              std::span<const SlabRegion> regions) {
  std::size_t i = 0;
  while (i < regions.size()) {
    if (regions[i].recovered) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < regions.size() && !regions[j].recovered) {
      ++j;
    }
    const std::size_t lo = regions[i].element_offset;
    const std::size_t hi =
        regions[j - 1].element_offset + regions[j - 1].element_count;
    const bool has_left = i > 0;
    const bool has_right = j < regions.size();
    if (!has_left && !has_right) {
      return;  // nothing survived: the caller's zero fill stands
    }
    // Boundary clamp: a run at either end of the field has one surviving
    // neighbor; both anchors collapse to it, so the ramp below degenerates
    // to a flat nearest-neighbor fill instead of extrapolating past the
    // field edge.
    const float left = has_left ? out[lo - 1] : out[hi];
    const float right = has_right ? out[hi] : left;
    const std::size_t len = hi - lo;
    for (std::size_t k = 0; k < len; ++k) {
      const double t =
          static_cast<double>(k + 1) / static_cast<double>(len + 1);
      out[lo + k] = static_cast<float>((1.0 - t) * static_cast<double>(left) +
                                       t * static_cast<double>(right));
    }
    i = j;
  }
}

std::size_t checkpoint_slab_count(const data::Field& field,
                                  const CheckpointOptions& options) noexcept {
  if (options.chunk_elements == 0) {
    return 0;
  }
  return (field.element_count() + options.chunk_elements - 1) /
         options.chunk_elements;
}

Expected<std::vector<std::uint8_t>> checkpoint_manifest(
    const data::Field& field, const CheckpointOptions& options) {
  if (field.element_count() == 0) {
    return Status::invalid_argument("checkpoint needs a non-empty field");
  }
  if (options.chunk_elements == 0) {
    return Status::invalid_argument("checkpoint chunk_elements must be > 0");
  }
  Manifest manifest;
  manifest.codec = options.codec;
  manifest.bound = options.bound;
  manifest.dims = field.dims();
  manifest.field_name = field.name();
  manifest.chunk_elements = options.chunk_elements;
  manifest.slab_count =
      static_cast<std::uint32_t>(checkpoint_slab_count(field, options));
  return build_manifest(manifest);
}

Expected<std::vector<std::uint8_t>> compress_checkpoint_slab(
    const data::Field& field, const CheckpointOptions& options,
    std::size_t slab_index, const Compressor& codec) {
  const std::size_t n = field.element_count();
  const std::size_t offset = slab_index * options.chunk_elements;
  if (options.chunk_elements == 0 || offset >= n) {
    return Status::invalid_argument("checkpoint slab index out of range");
  }
  const std::size_t count =
      std::min<std::size_t>(options.chunk_elements, n - offset);
  const auto values = field.values();
  data::Field slab{
      field.name(), data::Dims::d1(count),
      std::vector<float>(values.begin() + static_cast<std::ptrdiff_t>(offset),
                         values.begin() +
                             static_cast<std::ptrdiff_t>(offset + count))};
  auto compressed = codec.compress(slab, options.bound);
  if (!compressed) {
    return compressed.status().with_context("slab " +
                                            std::to_string(slab_index));
  }
  return std::move(compressed->container);
}

Expected<std::vector<std::uint8_t>> write_checkpoint(
    const data::Field& field, const CheckpointOptions& options) {
  auto manifest_bytes = checkpoint_manifest(field, options);
  if (!manifest_bytes) {
    return manifest_bytes.status().with_context("write_checkpoint");
  }
  auto codec = make_compressor(options.codec);
  if (!codec) {
    return codec.status().with_context("write_checkpoint");
  }

  FrameParams params;
  params.flags = kFrameFlagCheckpoint;
  FramedWriter writer{params};
  writer.append_chunk(*manifest_bytes);

  const std::size_t slab_count = checkpoint_slab_count(field, options);
  for (std::size_t s = 0; s < slab_count; ++s) {
    auto compressed = compress_checkpoint_slab(field, options, s, **codec);
    if (!compressed) {
      return compressed.status();
    }
    writer.append_chunk(*compressed);
  }
  writer.append_chunk(*manifest_bytes);  // replica guards against head loss
  return writer.finish();
}

std::size_t RecoveryReport::recovered_slabs() const noexcept {
  std::size_t count = 0;
  for (const auto& s : slabs) {
    count += s.recovered ? 1 : 0;
  }
  return count;
}

double RecoveryReport::recovered_fraction() const noexcept {
  if (total_elements == 0) {
    return 1.0;
  }
  return 1.0 - static_cast<double>(lost_elements) /
                   static_cast<double>(total_elements);
}

std::string RecoveryReport::summary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "recovered %zu/%zu slabs (%.1f%% of elements)",
                recovered_slabs(), slabs.size(),
                100.0 * recovered_fraction());
  return buf;
}

Expected<RecoveryReport> recover_checkpoint(
    std::span<const std::uint8_t> bytes, const RecoveryPolicy& policy) {
  auto rec = recover_framed(bytes);
  if (!rec) {
    return rec.status().with_context("recover_checkpoint");
  }
  return decode_checkpoint(*rec, policy);
}

Expected<data::Field> read_checkpoint(std::span<const std::uint8_t> bytes) {
  auto rec = recover_framed(bytes);
  if (!rec) {
    return rec.status().with_context("read_checkpoint");
  }
  if (rec->header_from_replica) {
    return Status::corrupt_data("frame header damaged")
        .with_context("read_checkpoint");
  }
  for (const auto& c : rec->chunks) {
    if (c.state != ChunkState::kIntact) {
      return c.status.with_context("read_checkpoint");
    }
  }
  // Whole-payload CRC: confirms the chunk walk reassembled exactly what
  // the writer hashed.
  std::uint32_t state = kCrc32cInit;
  for (const auto& c : rec->chunks) {
    state = crc32c_update(state, c.payload);
  }
  if (crc32c_finish(state) != rec->info.payload_crc) {
    return Status::corrupt_data("payload crc mismatch")
        .with_context("read_checkpoint");
  }

  RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  auto report = decode_checkpoint(*rec, strict);
  if (!report) {
    return report.status();
  }
  return std::move(report->field);
}

}  // namespace lcp::compress
