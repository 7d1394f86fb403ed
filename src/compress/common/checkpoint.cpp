#include "compress/common/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <utility>

#include "compress/common/container.hpp"
#include "compress/common/registry.hpp"
#include "support/bytestream.hpp"
#include "support/thread_annotations.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace lcp::compress {
namespace {

constexpr std::uint32_t kManifestMagic = 0x4D50434CU;  // "LCPM"
constexpr std::uint8_t kManifestVersion = 1;

std::vector<std::uint8_t> build_manifest(const SlabLayout& layout) {
  ByteWriter w;
  w.write_u32(kManifestMagic);
  w.write_u8(kManifestVersion);
  write_slab_layout(w, layout);
  w.write_u32(static_cast<std::uint32_t>(layout.slab_count()));
  return w.finish();
}

Expected<SlabLayout> parse_manifest(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto magic = r.read_u32();
  if (!magic || *magic != kManifestMagic) {
    return Status::corrupt_data("bad manifest magic");
  }
  auto version = r.read_u8();
  if (!version || *version != kManifestVersion) {
    return Status::unsupported("unknown manifest version");
  }
  auto layout = read_slab_layout(r, "manifest");
  if (!layout) {
    return layout.status();
  }
  auto slabs = r.read_u32();
  if (!slabs) {
    return slabs.status().with_context("manifest slab count");
  }
  if (*slabs != layout->slab_count()) {
    return Status::corrupt_data("manifest slab count inconsistent with dims");
  }
  return layout;
}

/// Decodes a walked checkpoint frame: manifest (or its replica), then every
/// slab through decode_slabs on the shared team, with the frame chunks as
/// the slab source.
/// Shared by recover_checkpoint (after recover_framed) and read_checkpoint
/// (after read_framed, the one strict walk), so each reader walks and
/// checksums the frame once.
Expected<RecoveryReport> decode_checkpoint(const FrameRecovery& rec,
                                           const RecoveryPolicy& policy) {
  if ((rec.info.flags & kFrameFlagCheckpoint) == 0) {
    return Status::invalid_argument(
        "frame is not a checkpoint (flag missing)");
  }
  if (rec.info.chunk_count < 2) {
    return Status::corrupt_data("checkpoint has no manifest chunks");
  }

  // Manifest: chunk 0, or its replica in the last chunk.
  bool from_replica = false;
  Expected<SlabLayout> layout = Status::corrupt_data("manifest chunk lost");
  if (rec.chunks.front().state == ChunkState::kIntact) {
    layout = parse_manifest(rec.chunks.front().payload);
  }
  if (!layout && rec.chunks.back().state == ChunkState::kIntact) {
    layout = parse_manifest(rec.chunks.back().payload);
    from_replica = layout.has_value();
  }
  if (!layout) {
    return layout.status().with_context("both manifest copies unreadable");
  }
  if (layout->slab_count() + 2 != rec.info.chunk_count) {
    return Status::corrupt_data(
        "manifest slab count inconsistent with frame chunk count");
  }

  auto report = decode_slabs(*layout, [&rec](std::size_t s) {
    const ChunkReport& chunk = rec.chunks[s + 1];
    return SlabBytes{static_cast<std::uint32_t>(s + 1), chunk.state,
                     chunk.status, chunk.payload, {}};
  }, policy, &shared_pool());
  if (!report) {
    return report.status();
  }
  report->header_from_replica = rec.header_from_replica;
  report->manifest_from_replica = from_replica;
  return report;
}

/// Compressed slabs that may wait in order for the sink before a thread
/// that finishes another slab waits for them to drain.
constexpr std::size_t kMaxBacklog = 4;

/// encode_slabs' in-order hand-off on a pool (see its comment). The sink
/// runs on a compressing thread, which already holds a CPU, so the walk
/// uses no thread beyond the pool and the caller. The hand-off role
/// passes between threads under `mutex_`; only its holder calls the sink,
/// so the sink sees one slab at a time and needs no lock of its own.
class OrderedHandoff {
 public:
  explicit OrderedHandoff(const SlabSink& sink) : sink_(sink) {}

  /// Parks the slab at list position `pos`. If it completes the run of
  /// positions next in order and no thread holds the role, this thread
  /// takes it and feeds the sink until the next position is missing,
  /// releasing the lock while the sink runs. Otherwise it returns at
  /// once, unless kMaxBacklog slabs already wait in order: then it waits
  /// for them to drain.
  void deliver(std::size_t pos, EncodedSlab slab) {
    MutexLock lock{mutex_};
    if (!status_.is_ok()) {
      return;
    }
    parked_.emplace(pos, std::move(slab));
    while (status_.is_ok() && handing_ && backlog_full()) {
      cv_.wait(lock);
    }
    if (!status_.is_ok() || handing_ || !parked_.contains(next_)) {
      return;  // failed, or another thread will hand this slab over
    }
    handing_ = true;
    for (auto it = parked_.find(next_); it != parked_.end();
         it = parked_.find(next_)) {
      EncodedSlab ready = std::move(it->second);
      parked_.erase(it);
      ++next_;
      cv_.notify_all();
      lock.unlock();
      const Status st = sink_(ready);
      lock.lock();
      if (!st.is_ok()) {
        if (status_.is_ok()) {
          status_ = st;
        }
        break;
      }
    }
    handing_ = false;
    cv_.notify_all();
  }

  /// Records the first failure; later deliveries are dropped and waiting
  /// threads return.
  void fail(const Status& st) {
    const MutexLock lock{mutex_};
    if (status_.is_ok()) {
      status_ = st;
    }
    cv_.notify_all();
  }

  [[nodiscard]] Status status() const {
    const MutexLock lock{mutex_};
    return status_;
  }
  [[nodiscard]] std::size_t handed() const {
    const MutexLock lock{mutex_};
    return next_;
  }

 private:
  /// True when kMaxBacklog positions from `next_` on are parked.
  bool backlog_full() const LCP_REQUIRES(mutex_) {
    for (std::size_t k = 0; k < kMaxBacklog; ++k) {
      if (!parked_.contains(next_ + k)) {
        return false;
      }
    }
    return true;
  }

  const SlabSink& sink_;
  mutable Mutex mutex_;
  CondVar cv_;
  std::map<std::size_t, EncodedSlab> parked_ LCP_GUARDED_BY(mutex_);
  std::size_t next_ LCP_GUARDED_BY(mutex_) = 0;
  bool handing_ LCP_GUARDED_BY(mutex_) = false;
  Status status_ LCP_GUARDED_BY(mutex_) = Status::ok();
};

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

SlabLayout SlabLayout::of(const data::Field& field,
                          const CheckpointOptions& options) {
  return {options.codec, options.bound, field.dims(), field.name(),
          options.chunk_elements};
}

std::size_t SlabLayout::slab_count() const noexcept {
  if (chunk_elements == 0) {
    return 0;
  }
  // Division first: a hostile chunk_elements near 2^64 must not wrap.
  const std::uint64_t n = dims.element_count();
  return static_cast<std::size_t>(n / chunk_elements +
                                  (n % chunk_elements != 0 ? 1 : 0));
}

std::size_t SlabLayout::slab_offset(std::size_t slab) const noexcept {
  return slab * static_cast<std::size_t>(chunk_elements);
}

std::size_t SlabLayout::slab_elements(std::size_t slab) const noexcept {
  return std::min<std::size_t>(chunk_elements,
                               dims.element_count() - slab_offset(slab));
}

std::span<const float> SlabLayout::slab_values(
    const data::Field& field, std::size_t slab) const noexcept {
  return field.values().subspan(slab_offset(slab), slab_elements(slab));
}

void write_slab_layout(ByteWriter& w, const SlabLayout& layout) {
  w.write_string(layout.codec);
  w.write_u8(static_cast<std::uint8_t>(layout.bound.mode));
  w.write_f64(layout.bound.value);
  w.write_u8(static_cast<std::uint8_t>(layout.dims.rank()));
  for (std::size_t e : layout.dims.extents()) {
    w.write_u64(e);
  }
  w.write_string(layout.field_name);
  w.write_u64(layout.chunk_elements);
}

Expected<SlabLayout> read_slab_layout(ByteReader& r, std::string_view what) {
  const std::string prefix{what};
  SlabLayout layout;
  auto codec = r.read_string();
  if (!codec) {
    return codec.status().with_context(prefix + " codec");
  }
  layout.codec = std::move(*codec);
  auto mode = r.read_u8();
  if (!mode ||
      *mode > static_cast<std::uint8_t>(BoundMode::kPointwiseRelative)) {
    return Status::corrupt_data(prefix + " bound mode invalid");
  }
  auto value = r.read_f64();
  if (!value) {
    return value.status().with_context(prefix + " bound");
  }
  layout.bound = ErrorBound{static_cast<BoundMode>(*mode), *value};
  auto rank = r.read_u8();
  if (!rank || *rank == 0 || *rank > 4) {
    return Status::corrupt_data(prefix + " rank out of range");
  }
  std::vector<std::size_t> extents;
  std::uint64_t elements = 1;
  for (std::uint8_t i = 0; i < *rank; ++i) {
    auto e = r.read_u64();
    if (!e || *e == 0) {
      return Status::corrupt_data(prefix + " extent invalid");
    }
    if (*e > kMaxContainerElements ||
        elements > kMaxContainerElements / *e) {
      return Status::corrupt_data(prefix + " dims exceed element limit");
    }
    elements *= *e;
    extents.push_back(static_cast<std::size_t>(*e));
  }
  layout.dims = data::Dims{std::move(extents)};
  auto name = r.read_string();
  if (!name) {
    return name.status().with_context(prefix + " field name");
  }
  layout.field_name = std::move(*name);
  auto chunk_elements = r.read_u64();
  if (!chunk_elements || *chunk_elements == 0) {
    return Status::corrupt_data(prefix + " chunk_elements invalid");
  }
  layout.chunk_elements = *chunk_elements;
  return layout;
}

Expected<RecoveryReport> decode_slabs(const SlabLayout& layout,
                                      const SlabSource& source,
                                      const RecoveryPolicy& policy,
                                      ThreadPool* pool) {
  const std::size_t n = layout.dims.element_count();
  RecoveryReport report;
  report.total_elements = n;
  report.slabs.resize(layout.slab_count());
  // Allocated for overwrite: each slab body below writes every element of
  // its range, decoded values or zeros for a lost slab, so the field is
  // written once and lost slabs read zero before the fill policy runs.
  auto field = data::Field::for_overwrite(layout.field_name, layout.dims);
  const std::span<float> out = field.mutable_values();

  // One body per slab: it touches only its own verdict and its own range
  // of `out`, so the bodies may run in any order on any thread.
  const auto decode_one = [&](std::size_t s) {
    SlabVerdict& v = report.slabs[s];
    v.element_offset = layout.slab_offset(s);
    v.element_count = layout.slab_elements(s);
    const std::span<float> range = out.subspan(v.element_offset,
                                               v.element_count);
    SlabBytes supplied = source(s);
    v.chunk_seq = supplied.chunk_seq;
    v.frame_state = supplied.frame_state;
    if (supplied.frame_state != ChunkState::kIntact) {
      std::fill(range.begin(), range.end(), 0.0F);
      v.status = std::move(supplied.status);
      return;
    }
    // Decoded in place: the header's element claim is checked against the
    // slab's range before any codec runs, so a hostile slab costs its
    // bytes, not its claim. A decode that fails partway has written an
    // unknown prefix of the range, so the whole range is zeroed.
    if (const Status st = decompress_any_into(supplied.bytes, range);
        !st.is_ok()) {
      std::fill(range.begin(), range.end(), 0.0F);
      v.status = st.with_context("slab " + std::to_string(s));
      return;
    }
    v.status = Status::ok();
    v.recovered = true;
  };
  if (pool == nullptr) {
    for (std::size_t s = 0; s < report.slabs.size(); ++s) {
      decode_one(s);
    }
  } else {
    pool->parallel_for(0, report.slabs.size(), decode_one, /*grain=*/1);
  }

  std::vector<SlabRegion> regions;
  regions.reserve(report.slabs.size());
  for (const SlabVerdict& v : report.slabs) {
    if (!v.recovered) {
      report.lost_elements += v.element_count;
    }
    regions.push_back({v.element_offset, v.element_count, v.recovered});
  }
  if (policy.fail_on_any_loss && report.lost_elements > 0) {
    for (const auto& v : report.slabs) {
      if (!v.recovered) {
        return v.status.with_context("strict policy");
      }
    }
  }
  if (policy.fill == RecoveryFill::kInterpolate) {
    interpolate_lost_regions(out, regions);
  }
  report.field = std::move(field);
  return report;
}

std::size_t checkpoint_slab_count(const data::Field& field,
                                  const CheckpointOptions& options) noexcept {
  return SlabLayout::of(field, options).slab_count();
}

Expected<std::vector<std::uint8_t>> checkpoint_manifest(
    const data::Field& field, const CheckpointOptions& options) {
  if (field.element_count() == 0) {
    return Status::invalid_argument("checkpoint needs a non-empty field");
  }
  if (options.chunk_elements == 0) {
    return Status::invalid_argument("checkpoint chunk_elements must be > 0");
  }
  const auto& codecs = registered_codec_names();
  if (std::find(codecs.begin(), codecs.end(), options.codec) == codecs.end()) {
    return Status::invalid_argument("checkpoint codec unknown: " +
                                    options.codec);
  }
  return build_manifest(SlabLayout::of(field, options));
}

Expected<std::vector<std::uint8_t>> compress_checkpoint_slab(
    const data::Field& field, const CheckpointOptions& options,
    std::size_t slab_index, const Compressor& codec) {
  const SlabLayout layout = SlabLayout::of(field, options);
  if (slab_index >= layout.slab_count()) {
    return Status::invalid_argument("checkpoint slab index out of range");
  }
  auto compressed =
      codec.compress(layout.slab_values(field, slab_index),
                     data::Dims::d1(layout.slab_elements(slab_index)),
                     field.name(), options.bound);
  if (!compressed) {
    return compressed.status().with_context("slab " +
                                            std::to_string(slab_index));
  }
  return std::move(compressed->container);
}

Status encode_slabs(const data::Field& field, const CheckpointOptions& options,
                    std::span<const std::size_t> slabs, const SlabSink& sink,
                    ThreadPool* pool) {
  auto codec = make_compressor(options.codec);
  if (!codec) {
    return codec.status();
  }
  const auto encode = [&](std::size_t s) -> Expected<EncodedSlab> {
    Timer t;
    auto container = compress_checkpoint_slab(field, options, s, **codec);
    if (!container) {
      return container.status();
    }
    return EncodedSlab{s, std::move(*container), t.elapsed()};
  };

  if (pool == nullptr) {
    for (const std::size_t s : slabs) {
      auto slab = encode(s);
      if (!slab) {
        return slab.status();
      }
      LCP_RETURN_IF_ERROR(sink(*slab));
    }
    return Status::ok();
  }

  OrderedHandoff handoff{sink};
  pool->parallel_for(
      0, slabs.size(),
      [&](std::size_t pos) {
        if (!handoff.status().is_ok()) {
          return;  // walk already failed; skip the remaining work
        }
        auto slab = encode(slabs[pos]);
        if (!slab) {
          handoff.fail(slab.status());
          return;
        }
        handoff.deliver(pos, std::move(*slab));
      },
      /*grain=*/1);
  // parallel_for has joined every thread that held the hand-off role.
  Status st = handoff.status();
  if (st.is_ok() && handoff.handed() != slabs.size()) {
    st = Status::internal("encode_slabs: slabs left undelivered");
  }
  return st;
}

Expected<std::vector<std::uint8_t>> write_checkpoint(
    const data::Field& field, const CheckpointOptions& options) {
  auto manifest_bytes = checkpoint_manifest(field, options);
  if (!manifest_bytes) {
    return manifest_bytes.status().with_context("write_checkpoint");
  }
  // The slabs compress on the shared team, and the sink only parks each
  // container by slab index. The calling thread frames them after the
  // join, into a body reserved at its exact size, so no buffer that grows
  // with the field is allocated or reallocated on a worker (glibc keeps
  // the pages a thread allocates in that thread's own arena).
  std::vector<std::size_t> all(checkpoint_slab_count(field, options));
  std::iota(all.begin(), all.end(), std::size_t{0});
  std::vector<std::vector<std::uint8_t>> parked(all.size());
  const Status st = encode_slabs(
      field, options, all,
      [&parked](EncodedSlab& slab) {
        parked[slab.slab] = std::move(slab.container);
        return Status::ok();
      },
      &shared_pool());
  if (!st.is_ok()) {
    return st.with_context("write_checkpoint");
  }
  std::size_t body = 2 * (kChunkHeaderBytes + manifest_bytes->size());
  for (const auto& container : parked) {
    body += kChunkHeaderBytes + container.size();
  }
  FramedWriter writer{kFrameFlagCheckpoint};
  writer.reserve(body);
  writer.append_chunk(*manifest_bytes);
  for (auto& container : parked) {
    writer.append_chunk(container);
    container = {};
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
  auto report = decode_checkpoint(*rec, policy);
  if (!report) {
    return report.status().with_context("recover_checkpoint");
  }
  return report;
}

Expected<data::Field> read_checkpoint(std::span<const std::uint8_t> bytes) {
  auto rec = read_framed(bytes);
  if (!rec) {
    return rec.status().with_context("read_checkpoint");
  }
  RecoveryPolicy strict;
  strict.fail_on_any_loss = true;
  auto report = decode_checkpoint(*rec, strict);
  if (!report) {
    return report.status().with_context("read_checkpoint");
  }
  return std::move(report->field);
}

}  // namespace lcp::compress
