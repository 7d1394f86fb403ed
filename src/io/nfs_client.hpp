#pragma once
// NFS client: chunked RPC writes to an NfsServer. Moves real bytes (so
// integrity is testable end-to-end) and reports the modeled wall time of
// the transfer at a given CPU frequency via the transit model.
//
// Every chunk is written at an explicit offset (idempotent, NFSv3-style)
// and verified against the server's CRC32C write verifier. With a
// FaultInjector attached the client becomes the system under test of the
// fault-injection suite: each chunk is retried under a per-RPC timeout with
// capped exponential backoff and deterministic seeded jitter. Without an
// injector each chunk gets one attempt.

#include <cstdint>
#include <string>
#include <vector>

#include "io/fault.hpp"
#include "io/link.hpp"
#include "io/nfs_server.hpp"
#include "support/status.hpp"

namespace lcp::io {

/// Retry/backoff policy for one RPC (only consulted under fault injection).
struct RetryPolicy {
  std::uint32_t max_attempts = 6;   ///< total attempts per RPC, >= 1
  Seconds rpc_timeout{1.1};         ///< modeled wait before declaring loss
  Seconds backoff_initial{10e-3};   ///< sleep after the first failure
  Seconds backoff_cap{2.0};         ///< exponential growth stops here
  double backoff_multiplier = 2.0;
  double jitter_fraction = 0.1;     ///< +-10% seeded jitter on each sleep
};

/// Modeled cost of the retry machinery, accumulated across write_file
/// calls. All durations are modeled (nothing actually sleeps), which is
/// what lets the soak tests run thousands of faulted RPCs in milliseconds.
struct RetryStats {
  std::uint64_t rpc_attempts = 0;        ///< attempts put on the wire
  std::uint64_t retries = 0;             ///< backoff sleeps taken
  std::uint64_t bytes_retransmitted = 0; ///< payload bytes sent more than once
  std::uint64_t timeouts = 0;            ///< drops + over-deadline delays
  std::uint64_t checksum_failures = 0;   ///< corruptions caught by CRC32C
  std::uint64_t rejections = 0;          ///< server-refused attempts
  Seconds wire_seconds{0.0};             ///< serialization of every attempt
  Seconds injected_delay{0.0};           ///< sub-deadline latency absorbed
  Seconds timeout_wait{0.0};             ///< time spent waiting on lost RPCs
  Seconds backoff_idle{0.0};             ///< time spent in backoff sleeps

  /// Total modeled time the client sat idle because of faults; feeds the
  /// stall term of the retry-aware transit workload.
  [[nodiscard]] Seconds idle_seconds() const noexcept {
    return timeout_wait + backoff_idle + injected_delay;
  }
};

/// One line of the retry trace: what the injector did to an attempt and
/// what the client decided. Equal seeds produce equal traces — the
/// determinism contract the reproducibility tests assert on.
struct RpcAttempt {
  std::uint64_t rpc_index = 0;
  std::uint32_t attempt = 0;
  FaultKind fault = FaultKind::kNone;
  ErrorCode result = ErrorCode::kOk;
  Seconds backoff_base{0.0};  ///< un-jittered sleep before the next attempt
  Seconds backoff{0.0};       ///< jittered sleep actually taken
  bool operator==(const RpcAttempt&) const = default;
};

/// Client-side configuration.
struct NfsClientConfig {
  LinkSpec link;
  std::size_t rpc_chunk_bytes = 1 << 20;  ///< 1 MiB wsize, NFS default scale
  RetryPolicy retry;
};

class NfsClient {
 public:
  NfsClient(NfsServer& server, NfsClientConfig config = {})
      : server_(server), config_(config) {}

  /// Attaches (or detaches, with nullptr) the fault injector. The injector
  /// must outlive the client. While attached, writes go through the retry
  /// loop and every attempt is recorded in trace().
  void attach_fault_injector(const FaultInjector* injector) noexcept {
    fault_ = injector;
  }

  /// Writes `data` to `path` from offset 0 in rpc_chunk_bytes chunks. An
  /// existing file is overwritten in place, not truncated: a caller that
  /// replaces a longer file removes it first. Under fault injection,
  /// returns a typed error after retry exhaustion (the code of the last
  /// failure) instead of silently truncating.
  [[nodiscard]] Status write_file(const std::string& path,
                                  std::span<const std::uint8_t> data);

  /// Incremental writer over explicit-offset RPCs (NFSv3 WRITE semantics).
  /// This is the streaming dump engine's entry point: frame chunks go on
  /// the wire with append() while later slabs are still compressing, and
  /// the frame header — only known once the last slab is sealed — is
  /// back-patched at offset 0 with write_at(). All byte/RPC accounting
  /// lands on the owning client, and every RPC goes through the same
  /// verified chunk loop as write_file. One thread writes a stream at a
  /// time (the streaming dump's sink sees one slab at a time).
  class FileStream {
   public:
    /// Writes `data` at the running offset and advances it.
    [[nodiscard]] Status append(std::span<const std::uint8_t> data);

    /// Writes `data` at an absolute offset; the running offset and the
    /// high-water mark still cover it (holes are zero-extended by the
    /// server until patched).
    [[nodiscard]] Status write_at(std::uint64_t offset,
                                  std::span<const std::uint8_t> data);

    /// Verifies the server holds exactly the high-water mark of bytes.
    [[nodiscard]] Status finish();

    [[nodiscard]] std::uint64_t bytes_written() const { return written_; }

   private:
    friend class NfsClient;
    FileStream(NfsClient& client, std::string path)
        : client_(&client), path_(std::move(path)) {}

    NfsClient* client_;
    std::string path_;
    std::uint64_t offset_ = 0;      ///< next append position
    std::uint64_t high_water_ = 0;  ///< furthest byte written
    std::uint64_t written_ = 0;     ///< payload bytes sent
  };

  /// Opens a streaming writer for `path` (the file is created on the
  /// first RPC). The stream borrows the client; one stream at a time.
  [[nodiscard]] FileStream begin_file_stream(const std::string& path) {
    return FileStream{*this, path};
  }

  [[nodiscard]] Bytes bytes_sent() const noexcept { return Bytes{sent_}; }
  [[nodiscard]] std::size_t rpcs_issued() const noexcept { return rpcs_; }
  [[nodiscard]] const RetryStats& retry_stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<RpcAttempt>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] const NfsClientConfig& config() const noexcept {
    return config_;
  }

  /// Global chunk-index stream position. Chunk indices are a pure function
  /// of the sizes written so far (a failed file still consumes all of its
  /// indices), so fault episodes can target chunk windows predictably.
  [[nodiscard]] std::uint64_t next_chunk_index() const noexcept {
    return next_chunk_;
  }

  /// Zeroes counters, stats and trace; the chunk-index stream keeps
  /// advancing so previously-planned fault windows stay aligned.
  void reset_counters() noexcept {
    sent_ = 0;
    rpcs_ = 0;
    stats_ = RetryStats{};
    trace_.clear();
  }

 private:
  /// The one chunk loop behind write_file and FileStream: `data` goes to
  /// `path` from `offset` in rpc_chunk_bytes offset RPCs (one RPC for an
  /// empty write), each checked against the server's write verifier and
  /// retried only when an injector is attached.
  Status write_chunks(const std::string& path, std::uint64_t offset,
                      std::span<const std::uint8_t> data);
  Status write_chunk_with_retries(const std::string& path,
                                  std::uint64_t offset,
                                  std::span<const std::uint8_t> chunk);

  NfsServer& server_;
  NfsClientConfig config_;
  const FaultInjector* fault_ = nullptr;
  std::uint64_t sent_ = 0;
  std::size_t rpcs_ = 0;
  std::uint64_t next_chunk_ = 0;
  RetryStats stats_;
  std::vector<RpcAttempt> trace_;
};

}  // namespace lcp::io
