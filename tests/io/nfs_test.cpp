#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "data/generators.hpp"
#include "io/nfs_client.hpp"
#include "io/nfs_server.hpp"

namespace lcp::io {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(NfsServerTest, StoresAndReadsBack) {
  NfsServer server;
  const auto data = pattern(100);
  ASSERT_TRUE(server.handle_write_at("/dump/a.bin", 0, data).has_value());
  const auto read = server.read_file("/dump/a.bin");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(read->begin(), read->end()), data);
}

TEST(NfsServerTest, RejectsEmptyPathAndMissingFile) {
  NfsServer server;
  EXPECT_FALSE(server.handle_write_at("", 0, pattern(4)).has_value());
  EXPECT_FALSE(server.read_file("missing").has_value());
}

TEST(NfsServerTest, RemoveAllClearsState) {
  NfsServer server;
  ASSERT_TRUE(server.handle_write_at("f", 0, pattern(10)).has_value());
  server.remove_all();
  EXPECT_EQ(server.file_count(), 0u);
  EXPECT_EQ(server.total_bytes_stored().bytes(), 0u);
  // rpcs_ used to survive remove_all(), leaving the counters inconsistent
  // with the (now empty) store.
  EXPECT_EQ(server.rpc_count(), 0u);
}

TEST(NfsServerTest, OffsetWriteIsIdempotentAndReturnsVerifier) {
  NfsServer server;
  const auto data = pattern(64);
  const auto first = server.handle_write_at("f", 0, data);
  ASSERT_TRUE(first.has_value());
  // Retransmitting the same chunk at the same offset is a no-op for the
  // stored bytes and the byte accounting (only growth counts).
  const auto again = server.handle_write_at("f", 0, data);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*first, *again);
  EXPECT_EQ(server.total_bytes_stored().bytes(), 64u);
  EXPECT_EQ(server.rpc_count(), 2u);
  const auto read = server.read_file("f");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(read->begin(), read->end()), data);
}

TEST(NfsServerTest, OffsetWritePastEndZeroFillsTheGap) {
  NfsServer server;
  ASSERT_TRUE(server.handle_write_at("f", 10, pattern(5)).has_value());
  const auto read = server.read_file("f");
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->size(), 15u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*read)[i], 0u);
  }
  EXPECT_EQ(server.total_bytes_stored().bytes(), 15u);
}

TEST(NfsCountersTest, ResetAndRewriteCycleReconciles) {
  NfsServer server;
  NfsClientConfig config;
  config.rpc_chunk_bytes = 128;
  NfsClient client{server, config};
  ASSERT_TRUE(client.write_file("a", pattern(1000)).is_ok());
  ASSERT_TRUE(client.write_file("b", pattern(300)).is_ok());
  EXPECT_EQ(client.bytes_sent().bytes(), server.total_bytes_stored().bytes());
  EXPECT_EQ(client.rpcs_issued(), server.rpc_count());

  // Reset both sides and rewrite: every counter pair must reconcile again
  // from zero (the stale-rpcs_ bug made server.rpc_count() run ahead).
  server.remove_all();
  client.reset_counters();
  EXPECT_EQ(client.bytes_sent().bytes(), 0u);
  EXPECT_EQ(client.rpcs_issued(), 0u);
  EXPECT_EQ(server.rpc_count(), 0u);

  ASSERT_TRUE(client.write_file("a", pattern(513)).is_ok());
  EXPECT_EQ(client.bytes_sent().bytes(), 513u);
  EXPECT_EQ(server.total_bytes_stored().bytes(), 513u);
  EXPECT_EQ(client.bytes_sent().bytes(), server.total_bytes_stored().bytes());
  EXPECT_EQ(client.rpcs_issued(), 5u);  // ceil(513/128)
  EXPECT_EQ(client.rpcs_issued(), server.rpc_count());
}

TEST(NfsClientTest, ChunkedWritePreservesBytes) {
  NfsServer server;
  NfsClientConfig config;
  config.rpc_chunk_bytes = 64;
  NfsClient client{server, config};
  const auto data = pattern(1000);  // 15 full chunks + remainder
  ASSERT_TRUE(client.write_file("big", data).is_ok());

  EXPECT_EQ(client.bytes_sent().bytes(), 1000u);
  EXPECT_EQ(client.rpcs_issued(), 16u);
  EXPECT_EQ(server.total_bytes_stored().bytes(), 1000u);
  const auto read = server.read_file("big");
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(read->begin(), read->end()), data);
}

TEST(NfsClientTest, ConservationClientSentEqualsServerStored) {
  NfsServer server;
  NfsClient client{server};
  ASSERT_TRUE(client.write_file("a", pattern(5000)).is_ok());
  ASSERT_TRUE(client.write_file("b", pattern(123)).is_ok());
  EXPECT_EQ(client.bytes_sent().bytes(),
            server.total_bytes_stored().bytes());
  EXPECT_EQ(server.file_count(), 2u);
}

TEST(NfsClientTest, EmptyFileCreatesEntry) {
  NfsServer server;
  NfsClient client{server};
  ASSERT_TRUE(client.write_file("empty", {}).is_ok());
  EXPECT_TRUE(server.has_file("empty"));
  const auto read = server.read_file("empty");
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->empty());
}

TEST(NfsClientTest, ZeroChunkSizeRejected) {
  NfsServer server;
  NfsClientConfig config;
  config.rpc_chunk_bytes = 0;
  NfsClient client{server, config};
  EXPECT_FALSE(client.write_file("x", pattern(10)).is_ok());
}

TEST(NfsClientTest, RewriteOverStaleCopyIsTheSameWithOrWithoutInjector) {
  // write_file used to append without an injector and write at offsets
  // with one, so the same call on an existing path left different files.
  NfsClientConfig config;
  config.rpc_chunk_bytes = 64;
  const auto data = pattern(300);
  const std::vector<std::uint8_t> stale(200, 0xAB);
  const FaultInjector clean{FaultPlan{}};
  std::vector<std::vector<std::uint8_t>> stored;
  for (const FaultInjector* injector :
       {static_cast<const FaultInjector*>(nullptr), &clean}) {
    NfsServer server;
    ASSERT_TRUE(server.handle_write_at("f", 0, stale).has_value());
    NfsClient client{server, config};
    client.attach_fault_injector(injector);
    ASSERT_TRUE(client.write_file("f", data).is_ok());
    EXPECT_EQ(client.rpcs_issued(), 5u);  // ceil(300/64)
    const auto read = server.read_file("f");
    ASSERT_TRUE(read.has_value());
    stored.emplace_back(read->begin(), read->end());
  }
  ASSERT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored[0], stored[1]);
  EXPECT_EQ(stored[0], data);
}

TEST(DiskSpecTest, WriteTimeFollowsThroughput) {
  DiskSpec disk;  // 0.35 GB/s default
  EXPECT_NEAR(disk.write_time(Bytes::from_gb(1)).seconds(), 1e9 / 0.35e9,
              1e-6);
}

/// A small checkpoint of a NYX field: a multi-chunk frame of slabs.
std::vector<std::uint8_t> checkpoint_bytes(const data::Field& field) {
  compress::CheckpointOptions opts;
  opts.codec = "lossless";
  opts.chunk_elements = 1024;
  auto bytes = compress::write_checkpoint(field, opts);
  EXPECT_TRUE(bytes.has_value());
  return bytes.has_value() ? std::move(*bytes) : std::vector<std::uint8_t>{};
}

TEST(NfsClientTest, FramedWriteRoundTripsThroughServer) {
  NfsServer server;
  NfsClientConfig config;
  config.rpc_chunk_bytes = 4096;  // the frame spans several RPCs
  NfsClient client{server, config};
  const auto field = data::generate_nyx(16, 3);
  const auto frame = checkpoint_bytes(field);
  ASSERT_GT(frame.size(), config.rpc_chunk_bytes);
  ASSERT_TRUE(client.write_file("ckpt", frame).is_ok());

  const auto stored = server.read_file("ckpt");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(client.bytes_sent().bytes(), frame.size());
  auto back = compress::read_checkpoint(*stored);
  ASSERT_TRUE(back.has_value()) << back.status().to_string();
  EXPECT_TRUE(std::equal(field.values().begin(), field.values().end(),
                         back->values().begin(), back->values().end()));
}

TEST(NfsClientTest, FramedWriteSurvivesStorageCorruption) {
  // End-to-end story: checkpoint written through the client, one byte of
  // slab 0 flipped at rest on the server, partial read.
  NfsServer server;
  NfsClient client{server};
  const auto field = data::generate_nyx(16, 4);
  const auto frame = checkpoint_bytes(field);
  ASSERT_TRUE(client.write_file("ckpt", frame).is_ok());

  // Chunk 0 is the manifest; slab 0 rides chunk 1.
  auto walked = compress::read_framed(frame);
  ASSERT_TRUE(walked.has_value());
  const std::size_t victim = static_cast<std::size_t>(
      walked->chunks[1].payload.data() - frame.data()) + 10;
  const std::uint8_t flipped[] = {static_cast<std::uint8_t>(frame[victim] ^
                                                             0xFF)};
  ASSERT_TRUE(server.handle_write_at("ckpt", victim, flipped).has_value());

  const auto stored = server.read_file("ckpt");
  ASSERT_TRUE(stored.has_value());
  EXPECT_FALSE(compress::read_checkpoint(*stored).has_value());
  auto report = compress::recover_checkpoint(*stored);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  ASSERT_GT(report->slabs.size(), 1u);
  EXPECT_FALSE(report->slabs[0].recovered);
  EXPECT_EQ(report->slabs[0].frame_state, compress::ChunkState::kCorrupt);
  EXPECT_EQ(report->recovered_slabs(), report->slabs.size() - 1);
}

}  // namespace
}  // namespace lcp::io
