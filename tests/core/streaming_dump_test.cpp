// Streaming dump engine: the wire contract is byte-identity with
// compress::write_checkpoint, so every existing checkpoint reader keeps
// working on streamed dumps. These tests pin that contract plus the
// pipeline mechanics (stats accounting, backpressure, error paths), and
// run the pooled path through both lossy codecs (ParallelCodecTest). The
// oracle is the inline encode walk's frame (encode_slabs_frame.hpp):
// write_checkpoint now compresses on the shared team, and the
// WriteCheckpointTeamTest suite pins its bytes to that same frame.

#include "core/streaming_dump.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "compress/common/checkpoint.hpp"
#include "compress/common/framing.hpp"
#include "compress/common/registry.hpp"
#include "data/generators.hpp"
#include "io/fault.hpp"
#include "io/nfs_client.hpp"
#include "support/thread_pool.hpp"

#include "../compress/encode_slabs_frame.hpp"

namespace lcp::core {
namespace {

data::Field make_field(std::size_t side = 24) {
  return data::generate_nyx(side, 42);
}

StreamingDumpConfig small_slabs(std::size_t chunk_elements = 2048) {
  StreamingDumpConfig cfg;
  cfg.checkpoint.codec = "sz";
  cfg.checkpoint.bound = compress::ErrorBound::absolute(1e-3);
  cfg.checkpoint.chunk_elements = chunk_elements;
  return cfg;
}

TEST(StreamingDumpTest, ServerBytesMatchWriteCheckpointExactly) {
  const auto field = make_field();
  const auto cfg = small_slabs();
  auto serial = compress::encode_slabs_frame(field, cfg.checkpoint);
  ASSERT_TRUE(serial.has_value()) << serial.status().to_string();

  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{4};
  auto stats = streaming_dump(field, pool, client, "/ckpt/nyx", cfg);
  ASSERT_TRUE(stats.has_value()) << stats.status().to_string();

  auto stored = server.read_file("/ckpt/nyx");
  ASSERT_TRUE(stored.has_value()) << stored.status().to_string();
  ASSERT_EQ(stored->size(), serial->size());
  // bit-for-bit, header back-patch included
  EXPECT_TRUE(std::equal(stored->begin(), stored->end(), serial->begin()));
}

TEST(StreamingDumpTest, StreamedDumpDecodesThroughReadCheckpoint) {
  const auto field = make_field();
  const auto cfg = small_slabs();
  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{4};
  auto stats = streaming_dump(field, pool, client, "/ckpt/rt", cfg);
  ASSERT_TRUE(stats.has_value()) << stats.status().to_string();

  auto stored = server.read_file("/ckpt/rt");
  ASSERT_TRUE(stored.has_value());
  auto back = compress::read_checkpoint(*stored);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  EXPECT_EQ(back->name(), field.name());
  EXPECT_EQ(back->dims(), field.dims());
  const auto a = field.values();
  const auto b = back->values();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-3) << i;
  }
}

TEST(StreamingDumpTest, StatsAccountForEverySlabAndByte) {
  const auto field = make_field();
  const auto cfg = small_slabs();
  const std::size_t slabs =
      compress::checkpoint_slab_count(field, cfg.checkpoint);
  ASSERT_GT(slabs, 1u);

  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{2};
  auto stats = streaming_dump(field, pool, client, "/ckpt/stats", cfg);
  ASSERT_TRUE(stats.has_value()) << stats.status().to_string();

  EXPECT_EQ(stats->slabs, slabs);
  // manifest + slabs + trailing manifest replica
  EXPECT_EQ(stats->frame_chunks, slabs + 2);
  EXPECT_EQ(stats->input_bytes.bytes(), field.size_bytes().bytes());
  // The placeholder header is the only wire overhead beyond the frame:
  // stored size + the kFrameHeaderBytes zeros overwritten at the end.
  auto stored = server.read_file("/ckpt/stats");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stats->wire_bytes.bytes(),
            stored->size() + compress::kFrameHeaderBytes);
  EXPECT_LT(stats->payload_bytes.bytes(), stats->wire_bytes.bytes());

  ASSERT_EQ(stats->slab_seconds.size(), slabs);
  double sum = 0.0;
  for (const Seconds s : stats->slab_seconds) {
    EXPECT_GT(s.seconds(), 0.0);
    sum += s.seconds();
  }
  EXPECT_DOUBLE_EQ(stats->compress_seconds.seconds(), sum);
  EXPECT_GT(stats->wall_seconds.seconds(), 0.0);
  EXPECT_GE(stats->write_seconds.seconds(), 0.0);
}

TEST(StreamingDumpTest, TinyQueueBackpressureStillProducesIdenticalBytes) {
  // Many more slabs than the walk's fixed backlog of 4 on more threads
  // than that: threads wait on backpressure, and the bytes stay put.
  const auto field = make_field();
  const auto cfg = small_slabs(1024);
  auto serial = compress::encode_slabs_frame(field, cfg.checkpoint);
  ASSERT_TRUE(serial.has_value());

  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{4};
  auto stats = streaming_dump(field, pool, client, "/ckpt/bp", cfg);
  ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
  auto stored = server.read_file("/ckpt/bp");
  ASSERT_TRUE(stored.has_value());
  ASSERT_EQ(stored->size(), serial->size());
  EXPECT_TRUE(std::equal(stored->begin(), stored->end(), serial->begin()));
}

TEST(StreamingDumpTest, ManyThreadsHandOffShippingInSlabOrder) {
  // Many tiny slabs on more threads than slabs in flight: the shipping
  // role changes hands between threads many times per dump, and every
  // dump must still land slab-ordered and byte-identical.
  const auto field = make_field();
  const auto cfg = small_slabs(256);
  auto serial = compress::encode_slabs_frame(field, cfg.checkpoint);
  ASSERT_TRUE(serial.has_value());

  ThreadPool pool{8};
  for (int round = 0; round < 10; ++round) {
    io::NfsServer server;
    io::NfsClient client{server};
    auto stats = streaming_dump(field, pool, client, "/ckpt/many", cfg);
    ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
    auto stored = server.read_file("/ckpt/many");
    ASSERT_TRUE(stored.has_value());
    ASSERT_EQ(stored->size(), serial->size());
    EXPECT_TRUE(std::equal(stored->begin(), stored->end(), serial->begin()))
        << "round " << round;
  }
}

TEST(StreamingDumpTest, SingleSlabFieldStreams) {
  auto cfg = small_slabs();
  cfg.checkpoint.chunk_elements = 1 << 20;  // whole field in one slab
  const auto field = make_field(12);
  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{1};
  auto stats = streaming_dump(field, pool, client, "/ckpt/one", cfg);
  ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
  EXPECT_EQ(stats->slabs, 1u);
  EXPECT_EQ(stats->frame_chunks, 3u);

  auto serial = compress::encode_slabs_frame(field, cfg.checkpoint);
  ASSERT_TRUE(serial.has_value());
  auto stored = server.read_file("/ckpt/one");
  ASSERT_TRUE(stored.has_value());
  ASSERT_EQ(stored->size(), serial->size());
  EXPECT_TRUE(std::equal(stored->begin(), stored->end(), serial->begin()));
}

TEST(StreamingDumpTest, RejectsUnknownCodec) {
  auto cfg = small_slabs();
  cfg.checkpoint.codec = "no-such-codec";
  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{1};
  const auto stats =
      streaming_dump(make_field(12), pool, client, "/ckpt/uc", cfg);
  EXPECT_FALSE(stats.has_value());
  EXPECT_FALSE(server.has_file("/ckpt/uc"));  // rejected before any write
}

TEST(StreamingDumpTest, ProducerFailureAbortsPipelineWithRealError) {
  // A NaN poisons one slab: its compressor rejects non-finite input, the
  // encode walk records the failure and skips the remaining slabs, and the
  // caller sees the compressor's status (not a hang, not a generic
  // internal error).
  auto field = make_field();
  field.mutable_values()[field.element_count() / 2] =
      std::numeric_limits<float>::quiet_NaN();

  io::NfsServer server;
  io::NfsClient client{server};
  ThreadPool pool{4};
  const auto stats =
      streaming_dump(field, pool, client, "/ckpt/nan", small_slabs());
  ASSERT_FALSE(stats.has_value());
  EXPECT_NE(stats.status().to_string().find("finite"), std::string::npos)
      << stats.status().to_string();
}

TEST(StreamingDumpTest, ServerDownMidStreamSurfacesTypedStatus) {
  // The server dies partway through the stream and never comes back. The
  // shipping thread must unwind with the client's typed retry-exhaustion
  // status — a silent truncation would leave a file that decodes to a
  // short field, which is the one failure a checkpoint must never have.
  const auto field = make_field();
  const auto cfg = small_slabs(1024);

  io::FaultPlan plan;
  plan.episodes.push_back({io::FaultKind::kServerUnavailable,
                           /*first_rpc=*/3, /*rpc_count=*/1u << 20,
                           io::kFaultPersistsForever});
  io::FaultInjector injector{plan};
  io::NfsServer server;
  io::NfsClient client{server};
  client.attach_fault_injector(&injector);
  ThreadPool pool{4};
  const auto stats =
      streaming_dump(field, pool, client, "/ckpt/down", cfg);
  ASSERT_FALSE(stats.has_value());
  EXPECT_EQ(stats.status().code(), ErrorCode::kUnavailable);
  EXPECT_GT(client.retry_stats().rejections, 0u);
  // Whatever partial bytes reached the server must not decode as a
  // complete checkpoint (the frame header back-patch never happened).
  if (server.has_file("/ckpt/down")) {
    const auto stored = server.read_file("/ckpt/down");
    ASSERT_TRUE(stored.has_value());
    EXPECT_FALSE(compress::read_checkpoint(*stored).has_value());
  }
}

TEST(StreamingDumpTest, TransientMidStreamOutageRidesRetries) {
  // Same outage window, but it clears after two failed attempts per RPC:
  // backoff absorbs it and the wire bytes stay identical to the inline
  // encode walk's frame.
  const auto field = make_field();
  const auto cfg = small_slabs(1024);
  auto serial = compress::encode_slabs_frame(field, cfg.checkpoint);
  ASSERT_TRUE(serial.has_value());

  io::FaultPlan plan;
  plan.episodes.push_back({io::FaultKind::kServerUnavailable,
                           /*first_rpc=*/3, /*rpc_count=*/4,
                           /*persist_attempts=*/2});
  io::FaultInjector injector{plan};
  io::NfsServer server;
  io::NfsClient client{server};
  client.attach_fault_injector(&injector);
  ThreadPool pool{4};
  const auto stats =
      streaming_dump(field, pool, client, "/ckpt/blip", cfg);
  ASSERT_TRUE(stats.has_value()) << stats.status().to_string();
  EXPECT_GE(client.retry_stats().retries, 1u);

  const auto stored = server.read_file("/ckpt/blip");
  ASSERT_TRUE(stored.has_value());
  ASSERT_EQ(stored->size(), serial->size());
  EXPECT_TRUE(std::equal(stored->begin(), stored->end(), serial->begin()));
}

/// The bytes a pooled streaming dump of `field` leaves on the server.
std::vector<std::uint8_t> pooled_dump(const data::Field& field,
                                      const StreamingDumpConfig& cfg,
                                      ThreadPool& pool) {
  io::NfsServer server;
  io::NfsClient client{server};
  auto stats = streaming_dump(field, pool, client, "/ckpt/pooled", cfg);
  EXPECT_TRUE(stats.has_value()) << stats.status().to_string();
  auto stored = server.read_file("/ckpt/pooled");
  EXPECT_TRUE(stored.has_value());
  if (!stored.has_value()) {
    return {};
  }
  return {stored->begin(), stored->end()};
}

StreamingDumpConfig codec_slabs(compress::CodecId codec, double bound,
                                std::size_t chunk_elements) {
  StreamingDumpConfig cfg;
  cfg.checkpoint.codec = compress::codec_name(codec);
  cfg.checkpoint.bound = compress::ErrorBound::absolute(bound);
  cfg.checkpoint.chunk_elements = chunk_elements;
  return cfg;
}

void expect_within(const data::Field& original, const data::Field& decoded,
                   double bound) {
  ASSERT_EQ(decoded.dims(), original.dims());
  EXPECT_EQ(decoded.name(), original.name());
  const auto err = data::compare_fields(original, decoded);
  ASSERT_TRUE(err.has_value());
  EXPECT_LE(err->max_abs_error, bound * (1 + 1e-6));
}

class ParallelCodecTest : public ::testing::TestWithParam<compress::CodecId> {
};

TEST_P(ParallelCodecTest, RoundTripMatchesFieldAndBound) {
  ThreadPool pool{3};
  const auto field = data::generate_cesm_atm(12, 40, 60, 5);
  const auto cfg = codec_slabs(GetParam(), 1e-3, 4000);  // many slabs
  const auto bytes = pooled_dump(field, cfg, pool);
  auto decoded = compress::read_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  expect_within(field, *decoded, 1e-3);
}

TEST_P(ParallelCodecTest, OneDimensionalFieldChunks) {
  ThreadPool pool{2};
  const auto field = data::generate_hacc(50000, 5);
  const auto cfg = codec_slabs(GetParam(), 1e-2, 8192);
  const auto bytes = pooled_dump(field, cfg, pool);
  auto decoded = compress::read_checkpoint(bytes);
  ASSERT_TRUE(decoded.has_value()) << decoded.status().to_string();
  expect_within(field, *decoded, 1e-2);
}

TEST_P(ParallelCodecTest, SingleChunkDegenerateCase) {
  ThreadPool pool{2};
  const auto field = data::generate_nyx(16, 6);
  const auto cfg = codec_slabs(GetParam(), 1e-3, 1 << 30);  // one slab
  const auto bytes = pooled_dump(field, cfg, pool);
  auto report = compress::recover_checkpoint(bytes);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_EQ(report->slabs.size(), 1u);
  EXPECT_TRUE(report->complete());
  EXPECT_EQ(report->field.element_count(), field.element_count());
}

TEST_P(ParallelCodecTest, ChunkingIsDeterministic) {
  ThreadPool pool{4};
  const auto field = data::generate_cesm_atm(8, 30, 30, 7);
  const auto cfg = codec_slabs(GetParam(), 1e-2, 2000);
  EXPECT_EQ(pooled_dump(field, cfg, pool), pooled_dump(field, cfg, pool));
}

TEST_P(ParallelCodecTest, WorkerCountNeverChangesTheBytes) {
  // Slab boundaries depend only on the options, so the stream must equal
  // the inline walk's bytes no matter how many workers raced over the
  // slabs — including 0 (hardware concurrency) and a deliberately odd 7
  // that does not divide the 13-slab split.
  const auto field = data::generate_cesm_atm(13, 24, 36, 9);
  const auto cfg = codec_slabs(GetParam(), 1e-3, 24 * 36);
  auto serial = compress::encode_slabs_frame(field, cfg.checkpoint);
  ASSERT_TRUE(serial.has_value()) << serial.status().to_string();
  ASSERT_EQ(compress::checkpoint_slab_count(field, cfg.checkpoint), 13u);
  for (std::size_t workers : {std::size_t{1}, std::size_t{0}, std::size_t{7}}) {
    ThreadPool pool{workers};
    EXPECT_EQ(pooled_dump(field, cfg, pool), *serial) << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(BothCodecs, ParallelCodecTest,
                         ::testing::Values(compress::CodecId::kSz,
                                           compress::CodecId::kZfp),
                         [](const auto& suite_info) {
                           return std::string{
                               compress::codec_name(suite_info.param)};
                         });

TEST(ParallelFrameTest, DecompressRejectsTruncationAndGarbage) {
  ThreadPool pool{2};
  const auto field = data::generate_nyx(8, 9);
  const auto bytes = pooled_dump(field, small_slabs(128), pool);
  ASSERT_TRUE(compress::read_checkpoint(bytes).has_value());

  const std::vector<std::uint8_t> truncated(
      bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(
                                         bytes.size() / 2));
  EXPECT_FALSE(compress::read_checkpoint(truncated).has_value());

  const std::vector<std::uint8_t> garbage(100, 0x5A);
  EXPECT_FALSE(compress::read_checkpoint(garbage).has_value());
  EXPECT_FALSE(compress::recover_checkpoint(garbage).has_value());
}

TEST(ParallelFrameTest, CompressRejectsEmptyField) {
  ThreadPool pool{1};
  io::NfsServer server;
  io::NfsClient client{server};
  EXPECT_FALSE(
      streaming_dump(data::Field{}, pool, client, "/ckpt/empty", small_slabs())
          .has_value());
  EXPECT_FALSE(server.has_file("/ckpt/empty"));
}

}  // namespace
}  // namespace lcp::core
