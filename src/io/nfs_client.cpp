#include "io/nfs_client.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/checksum.hpp"

namespace lcp::io {

Status NfsClient::write_file(const std::string& path,
                             std::span<const std::uint8_t> data) {
  return write_chunks(path, 0, data);
}

Status NfsClient::write_chunks(const std::string& path, std::uint64_t offset,
                               std::span<const std::uint8_t> data) {
  if (config_.rpc_chunk_bytes == 0) {
    return Status::invalid_argument("nfs client: zero chunk size");
  }
  const std::size_t chunk = config_.rpc_chunk_bytes;
  // An empty write still creates the file with one RPC.
  const std::size_t rpc_count =
      data.empty() ? 1 : (data.size() + chunk - 1) / chunk;
  for (std::size_t i = 0; i < rpc_count; ++i) {
    const std::size_t done = i * chunk;
    const auto piece = data.subspan(done, std::min(chunk, data.size() - done));
    const std::uint64_t at = offset + done;
    if (fault_ != nullptr) {
      const Status st = write_chunk_with_retries(path, at, piece);
      if (!st.is_ok()) {
        // Keep the chunk-index stream a pure function of the sizes written:
        // a failed write still consumes the indices of its remaining
        // chunks, so fault windows planned for later writes stay aligned.
        next_chunk_ += rpc_count - i - 1;
        return st;
      }
      continue;
    }
    auto reply = server_.handle_write_at(path, at, piece);
    if (!reply.has_value()) {
      return reply.status();
    }
    // The server's write verifier gives every write end-to-end CRC
    // coverage, injector or not: a storage-side bit flip surfaces here.
    if (*reply != crc32c(piece)) {
      return Status::corrupt_data("nfs client: write verifier mismatch on '" +
                                  path + "'");
    }
    sent_ += piece.size();
    ++rpcs_;
  }
  return Status::ok();
}

Status NfsClient::FileStream::append(std::span<const std::uint8_t> data) {
  const Status st = write_at(offset_, data);
  if (st.is_ok()) {
    offset_ += data.size();
  }
  return st;
}

Status NfsClient::FileStream::write_at(std::uint64_t offset,
                                       std::span<const std::uint8_t> data) {
  const Status st = client_->write_chunks(path_, offset, data);
  if (st.is_ok()) {
    written_ += data.size();
    high_water_ = std::max<std::uint64_t>(high_water_, offset + data.size());
  }
  return st;
}

Status NfsClient::FileStream::finish() {
  auto stored = client_->server_.read_file(path_);
  if (!stored.has_value()) {
    return stored.status();
  }
  if (stored->size() != high_water_) {
    return Status::corrupt_data(
        "nfs client: stream for '" + path_ + "' stored " +
        std::to_string(stored->size()) + " bytes, expected " +
        std::to_string(high_water_));
  }
  return Status::ok();
}

Status NfsClient::write_chunk_with_retries(const std::string& path,
                                           std::uint64_t offset,
                                           std::span<const std::uint8_t> chunk) {
  const RetryPolicy& policy = config_.retry;
  const std::uint64_t rpc = next_chunk_++;
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, policy.max_attempts);
  const Bytes chunk_bytes{chunk.size()};
  const std::uint32_t local_crc = crc32c(chunk);

  Status last = Status::unavailable("nfs client: rpc never attempted");
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    const FaultDecision d = fault_->decide(rpc, attempt, chunk.size());
    Status result = Status::ok();

    // Every decision below puts the request (and payload) on the wire.
    sent_ += chunk.size();
    ++rpcs_;
    ++stats_.rpc_attempts;
    if (attempt > 0) {
      stats_.bytes_retransmitted += chunk.size();
    }
    stats_.wire_seconds = stats_.wire_seconds + config_.link.wire_time(chunk_bytes);

    switch (d.kind) {
      case FaultKind::kDrop:
        stats_.timeouts++;
        stats_.timeout_wait = stats_.timeout_wait + policy.rpc_timeout;
        result = Status::unavailable("nfs client: rpc timed out (dropped)");
        break;
      case FaultKind::kDelay:
        if (d.delay >= policy.rpc_timeout) {
          // The reply would arrive after the deadline: indistinguishable
          // from a drop on the client side, and the late server-side apply
          // is harmless because the retry overwrites the same offset.
          stats_.timeouts++;
          stats_.timeout_wait = stats_.timeout_wait + policy.rpc_timeout;
          result = Status::unavailable("nfs client: rpc timed out (delayed)");
          break;
        }
        stats_.injected_delay = stats_.injected_delay + d.delay;
        [[fallthrough]];
      case FaultKind::kNone:
      case FaultKind::kCorrupt: {
        std::span<const std::uint8_t> payload = chunk;
        std::vector<std::uint8_t> damaged;
        if (d.kind == FaultKind::kCorrupt && !chunk.empty()) {
          damaged.assign(chunk.begin(), chunk.end());
          damaged[d.corrupt_offset] ^= d.corrupt_mask;
          payload = damaged;
        }
        auto reply = server_.handle_write_at(path, offset, payload);
        if (!reply.has_value()) {
          result = reply.status();
          break;
        }
        if (*reply != local_crc) {
          stats_.checksum_failures++;
          result = Status::corrupt_data(
              "nfs client: write verifier mismatch (chunk corrupted in "
              "flight)");
          break;
        }
        trace_.push_back({rpc, attempt, d.kind, ErrorCode::kOk,
                          Seconds{0.0}, Seconds{0.0}});
        return Status::ok();
      }
      case FaultKind::kReject:
        server_.note_refused_rpc();
        stats_.rejections++;
        result = Status::unavailable("nfs client: server busy (rejected)");
        break;
      case FaultKind::kDiskFull:
        server_.note_refused_rpc();
        stats_.rejections++;
        result = Status::out_of_range("nfs client: server disk full");
        break;
      case FaultKind::kServerUnavailable:
        server_.note_refused_rpc();
        stats_.rejections++;
        result = Status::unavailable("nfs client: server unavailable");
        break;
    }

    last = result;
    Seconds backoff_base{0.0};
    Seconds backoff{0.0};
    if (attempt + 1 < max_attempts) {
      const double base = std::min(
          policy.backoff_cap.seconds(),
          policy.backoff_initial.seconds() *
              std::pow(policy.backoff_multiplier, static_cast<double>(attempt)));
      const double jitter = fault_->backoff_jitter(rpc, attempt);
      backoff_base = Seconds{base};
      backoff =
          Seconds{std::max(0.0, base * (1.0 + policy.jitter_fraction * jitter))};
      stats_.retries++;
      stats_.backoff_idle = stats_.backoff_idle + backoff;
    }
    trace_.push_back({rpc, attempt, d.kind, result.code(), backoff_base, backoff});
  }

  return Status{last.code(),
                "nfs client: rpc " + std::to_string(rpc) + " to '" + path +
                    "' failed after " + std::to_string(max_attempts) +
                    " attempts: " + last.message()};
}

}  // namespace lcp::io
