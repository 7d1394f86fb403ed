#pragma once
// A checkpoint frame built straight from the slab encode walk: the
// manifest, every slab handed over by encode_slabs (inline, or on `pool`),
// the manifest replica. write_checkpoint compresses on the shared team, so
// the byte-identity tests take the inline frame as their oracle: it shares
// no thread, and no frame assembly, with the code under test.
// micro_hotpaths times it as the one-thread dump baseline.

#include <cstdint>
#include <numeric>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "compress/common/framing.hpp"
#include "support/thread_pool.hpp"

namespace lcp::compress {

inline Expected<std::vector<std::uint8_t>> encode_slabs_frame(
    const data::Field& field, const CheckpointOptions& options,
    ThreadPool* pool = nullptr) {
  auto manifest = checkpoint_manifest(field, options);
  if (!manifest) {
    return manifest.status();
  }
  FramedWriter writer{kFrameFlagCheckpoint};
  writer.append_chunk(*manifest);
  std::vector<std::size_t> all(checkpoint_slab_count(field, options));
  std::iota(all.begin(), all.end(), std::size_t{0});
  const Status st = encode_slabs(
      field, options, all,
      [&writer](const EncodedSlab& slab) {
        writer.append_chunk(slab.container);
        return Status::ok();
      },
      pool);
  if (!st.is_ok()) {
    return st;
  }
  writer.append_chunk(*manifest);
  return writer.finish();
}

}  // namespace lcp::compress
