// The one slab encode walk: slabs reach the sink in list order, one at a
// time, with the bytes compress_checkpoint_slab produces, whether they
// compress inline or out of order on a pool; the first failure (sink or
// codec) stops the walk and is what the caller gets back. write_checkpoint
// runs the walk on the shared team and must frame the inline walk's bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "compress/common/registry.hpp"
#include "data/generators.hpp"
#include "encode_slabs_frame.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace lcp::compress {
namespace {

constexpr std::size_t kChunk = 2048;
constexpr std::size_t kSlabs = 40;

/// Slabs 0..19 hold noise (slow to compress), slabs 20..39 a gentle ramp
/// (fast), so on a pool the later slabs of a list tend to finish first.
data::Field mixed_field() {
  std::vector<float> values(kChunk * kSlabs);
  Rng rng{7};
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i < values.size() / 2
                    ? static_cast<float>(rng.normal(0.0, 10.0))
                    : 1.0F + 1e-4F * static_cast<float>(i % 97);
  }
  return data::Field{"mixed", data::Dims::d1(values.size()),
                     std::move(values)};
}

CheckpointOptions sz_options() {
  CheckpointOptions opts;
  opts.codec = "sz";
  opts.bound = ErrorBound::absolute(1e-3);
  opts.chunk_elements = kChunk;
  return opts;
}

/// Records every slab the sink sees, and fails the test if two sink
/// calls ever overlap.
struct RecordingSink {
  std::vector<EncodedSlab> seen;
  std::atomic<int> inside{0};
  std::size_t fail_at = std::numeric_limits<std::size_t>::max();
  Status failure = Status::unavailable("sink went away");

  SlabSink sink() {
    return [this](const EncodedSlab& slab) {
      EXPECT_EQ(inside.fetch_add(1), 0) << "sink entered concurrently";
      if (seen.empty() || slab.slab == fail_at) {
        // Hold the hand-off role so later slabs park (and backpressure
        // engages) behind this one.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      seen.push_back(slab);
      inside.fetch_sub(1);
      return slab.slab == fail_at ? failure : Status::ok();
    };
  }

  [[nodiscard]] std::vector<std::size_t> indices() const {
    std::vector<std::size_t> out;
    for (const EncodedSlab& s : seen) {
      out.push_back(s.slab);
    }
    return out;
  }
};

TEST(EncodeSlabsTest, SparseListOnPoolIsDeliveredInListOrder) {
  const auto field = mixed_field();
  const auto opts = sz_options();
  ASSERT_EQ(checkpoint_slab_count(field, opts), kSlabs);
  const std::vector<std::size_t> list = {0,  2,  3,  5,  8,  13, 19, 20, 21,
                                         23, 24, 27, 30, 31, 34, 37, 38, 39};
  auto codec = make_compressor(opts.codec);
  ASSERT_TRUE(codec.has_value());

  ThreadPool pool{7};
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    RecordingSink rec;
    const Status st = encode_slabs(field, opts, list, rec.sink(), &pool);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(rec.indices(), list);
    for (const EncodedSlab& slab : rec.seen) {
      const auto serial =
          compress_checkpoint_slab(field, opts, slab.slab, **codec);
      ASSERT_TRUE(serial.has_value());
      EXPECT_EQ(slab.container, *serial) << "slab " << slab.slab;
      EXPECT_GT(slab.compress_seconds.seconds(), 0.0);
    }
  }
}

TEST(EncodeSlabsTest, SinkFailureStopsTheWalkAtThatSlab) {
  const auto field = mixed_field();
  const auto opts = sz_options();
  std::vector<std::size_t> list(kSlabs);
  for (std::size_t s = 0; s < kSlabs; ++s) {
    list[s] = kSlabs - 1 - s;  // descending: list order is not slab order
  }
  constexpr std::size_t kFailAt = 25;  // position 14 of the list
  const std::vector<std::size_t> prefix(list.begin(), list.begin() + 15);

  ThreadPool pool{7};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool");
    RecordingSink rec;
    rec.fail_at = kFailAt;
    const Status st = encode_slabs(field, opts, list, rec.sink(), p);
    EXPECT_EQ(st.code(), ErrorCode::kUnavailable) << st.to_string();
    EXPECT_EQ(st.message(), "sink went away");
    EXPECT_EQ(rec.indices(), prefix);
  }
}

TEST(EncodeSlabsTest, CodecFailureNamesItsSlab) {
  auto field = mixed_field();
  constexpr std::size_t kPoisoned = 23;
  field.mutable_values()[kPoisoned * kChunk + 100] =
      std::numeric_limits<float>::quiet_NaN();
  const auto opts = sz_options();
  std::vector<std::size_t> list(kSlabs);
  for (std::size_t s = 0; s < kSlabs; ++s) {
    list[s] = s;
  }

  ThreadPool pool{7};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool");
    RecordingSink rec;
    const Status st = encode_slabs(field, opts, list, rec.sink(), p);
    ASSERT_FALSE(st.is_ok());
    EXPECT_NE(st.to_string().find("slab 23"), std::string::npos)
        << st.to_string();
    // Slabs before the poisoned one may go through; none at or after it.
    ASSERT_LE(rec.seen.size(), kPoisoned);
    for (std::size_t i = 0; i < rec.seen.size(); ++i) {
      EXPECT_EQ(rec.seen[i].slab, i);
    }
  }
}

TEST(EncodeSlabsTest, UnknownCodecIsRejectedEvenForAnEmptyList) {
  const auto field = mixed_field();
  auto opts = sz_options();
  opts.codec = "no-such-codec";
  ThreadPool pool{2};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "inline" : "pool");
    RecordingSink rec;
    EXPECT_FALSE(encode_slabs(field, opts, {}, rec.sink(), p).is_ok());
    const std::vector<std::size_t> one = {0};
    EXPECT_FALSE(encode_slabs(field, opts, one, rec.sink(), p).is_ok());
    EXPECT_TRUE(rec.seen.empty());
  }
}

TEST(EncodeSlabsTest, OutOfRangeSlabIsATypedError) {
  const auto field = mixed_field();
  const std::vector<std::size_t> list = {0, kSlabs};
  RecordingSink rec;
  const Status st = encode_slabs(field, sz_options(), list, rec.sink());
  EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.to_string();
  EXPECT_EQ(rec.indices(), std::vector<std::size_t>{0});
}

TEST(WriteCheckpointTeamTest, EveryTeamSizeFramesTheInlineBytes) {
  // NYX 26^3 = 17576 elements: 35 slabs of 512, the last one 168 long.
  const auto field = data::generate_nyx(26, 42);
  for (const char* codec : {"sz", "zfp", "lossless"}) {
    SCOPED_TRACE(codec);
    auto opts = sz_options();
    opts.codec = codec;
    opts.bound = ErrorBound::absolute(1e-2);
    opts.chunk_elements = 512;
    ASSERT_EQ(checkpoint_slab_count(field, opts), 35u);
    ASSERT_NE(field.element_count() % opts.chunk_elements, 0u);

    const auto inline_frame = encode_slabs_frame(field, opts);
    ASSERT_TRUE(inline_frame.has_value()) << inline_frame.status().to_string();
    const auto written = write_checkpoint(field, opts);
    ASSERT_TRUE(written.has_value()) << written.status().to_string();
    EXPECT_EQ(*written, *inline_frame);
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      ThreadPool pool{workers};
      const auto pooled = encode_slabs_frame(field, opts, &pool);
      ASSERT_TRUE(pooled.has_value()) << pooled.status().to_string();
      EXPECT_EQ(*pooled, *inline_frame);
      EXPECT_EQ(*pooled, *written);
    }
    const auto restored = read_checkpoint(*written);
    ASSERT_TRUE(restored.has_value()) << restored.status().to_string();
    EXPECT_EQ(restored->element_count(), field.element_count());
  }
}

TEST(WriteCheckpointTeamTest, FieldTheCodecExpandsFramesTheInlineBytes) {
  // Lossless random bits grow by each container's header, which on
  // 16-element slabs is about the slab's own size, so the frame outgrows
  // the field: the exact body reserve write_checkpoint makes after the
  // join must still hold every slab chunk, a one-slab field included.
  auto opts = sz_options();
  opts.codec = "lossless";
  opts.chunk_elements = 16;
  for (const std::size_t elements : {std::size_t{1997}, std::size_t{11}}) {
    SCOPED_TRACE(std::to_string(elements) + " elements");
    std::vector<float> values(elements);
    Rng rng{11};
    for (float& v : values) {
      do {  // random bit patterns, finite: no byte of them compresses
        v = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64()));
      } while (!std::isfinite(v));
    }
    const data::Field field{"noise", data::Dims::d1(elements),
                            std::move(values)};
    const auto inline_frame = encode_slabs_frame(field, opts);
    ASSERT_TRUE(inline_frame.has_value()) << inline_frame.status().to_string();
    ASSERT_GT(inline_frame->size(), field.size_bytes().bytes());

    const auto written = write_checkpoint(field, opts);
    ASSERT_TRUE(written.has_value()) << written.status().to_string();
    EXPECT_EQ(*written, *inline_frame);
    ThreadPool pool{3};
    const auto pooled = encode_slabs_frame(field, opts, &pool);
    ASSERT_TRUE(pooled.has_value());
    EXPECT_EQ(*pooled, *inline_frame);
  }
}

TEST(WriteCheckpointTeamTest, ReusedSlabBuffersLeaveNoTrace) {
  // Each thread reuses one slab copy across calls; a call on short slabs
  // between two calls on long ones must not change the long ones' bytes.
  const auto big = mixed_field();
  const auto small = data::generate_nyx(26, 42);
  auto small_opts = sz_options();
  small_opts.chunk_elements = 300;
  const auto first = write_checkpoint(big, sz_options());
  ASSERT_TRUE(first.has_value()) << first.status().to_string();
  ASSERT_TRUE(write_checkpoint(small, small_opts).has_value());
  const auto again = write_checkpoint(big, sz_options());
  ASSERT_TRUE(again.has_value()) << again.status().to_string();
  EXPECT_EQ(*again, *first);
  const auto inline_frame = encode_slabs_frame(big, sz_options());
  ASSERT_TRUE(inline_frame.has_value());
  EXPECT_EQ(*again, *inline_frame);
}

TEST(WriteCheckpointTeamTest, CodecFailureNamesItsSlab) {
  auto field = mixed_field();
  field.mutable_values()[23 * kChunk + 100] =
      std::numeric_limits<float>::quiet_NaN();
  const auto written = write_checkpoint(field, sz_options());
  ASSERT_FALSE(written.has_value());
  EXPECT_NE(written.status().to_string().find("slab 23"), std::string::npos)
      << written.status().to_string();
}

}  // namespace
}  // namespace lcp::compress
