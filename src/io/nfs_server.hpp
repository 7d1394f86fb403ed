#pragma once
// In-memory NFS server: receives offset-addressed RPC write chunks into
// named files, and models a bounded-throughput storage backend. Functional
// (the bytes really move) so conservation and content integrity are
// testable; timing is modeled, not measured.
//
// The file table and its byte/RPC accounting are guarded by one mutex
// (annotated for -Wthread-safety), so concurrent restore sessions reading
// different files through one server are safe. Spans returned by
// read_file() point into the table and stay valid only until the next
// mutating call — the same lifetime contract as before, now stated.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "support/status.hpp"
#include "support/thread_annotations.hpp"
#include "support/units.hpp"

namespace lcp::io {

/// Storage backend throughput (single NFS stream with sync-ish semantics;
/// this, not the 10 GbE wire, is often the pipeline floor in practice).
struct DiskSpec {
  double write_bytes_per_second = 0.35e9;

  [[nodiscard]] Seconds write_time(Bytes n) const noexcept {
    return Seconds{static_cast<double>(n.bytes()) / write_bytes_per_second};
  }
};

class NfsServer {
 public:
  explicit NfsServer(DiskSpec disk = {}) : disk_(disk) {}

  /// Writes a chunk at an explicit offset (NFSv3 WRITE semantics: offsets
  /// make retransmission idempotent — a duplicate or late retry overwrites
  /// the same range instead of appending twice). The file is extended with
  /// zeros if `offset` lies past its current end. Returns the CRC32C of
  /// the chunk as stored, the write verifier the client checks to detect
  /// in-flight corruption.
  Expected<std::uint32_t> handle_write_at(const std::string& path,
                                          std::uint64_t offset,
                                          std::span<const std::uint8_t> chunk);

  /// Accounts for an RPC the server received but refused (injected
  /// reject/disk-full/unavailable episodes): it consumed a server request
  /// slot, so it must show up in rpc_count() for conservation checks.
  void note_refused_rpc() {
    const MutexLock lock{mu_};
    ++rpcs_;
  }

  /// Full contents of a stored file.
  [[nodiscard]] Expected<std::span<const std::uint8_t>> read_file(
      const std::string& path) const;

  /// Removes one file (NFSv3 REMOVE). Returns the bytes freed; removing a
  /// missing path is a typed error so garbage collectors can distinguish
  /// "already gone" from "freed now".
  [[nodiscard]] Expected<std::uint64_t> remove_file(const std::string& path);

  /// Paths currently stored under `prefix`, in lexicographic order (the
  /// slab-store GC walk; std::map iteration makes it deterministic).
  [[nodiscard]] std::vector<std::string> list_files(
      const std::string& prefix) const;

  [[nodiscard]] bool has_file(const std::string& path) const {
    const MutexLock lock{mu_};
    return files_.contains(path);
  }
  [[nodiscard]] std::size_t file_count() const {
    const MutexLock lock{mu_};
    return files_.size();
  }
  [[nodiscard]] Bytes total_bytes_stored() const {
    const MutexLock lock{mu_};
    return Bytes{bytes_stored_};
  }
  [[nodiscard]] std::size_t rpc_count() const {
    const MutexLock lock{mu_};
    return rpcs_;
  }
  [[nodiscard]] const DiskSpec& disk() const noexcept { return disk_; }

  void remove_all() {
    const MutexLock lock{mu_};
    files_.clear();
    bytes_stored_ = 0;
    rpcs_ = 0;
  }

 private:
  DiskSpec disk_;
  mutable Mutex mu_;
  std::map<std::string, std::vector<std::uint8_t>> files_ LCP_GUARDED_BY(mu_);
  std::uint64_t bytes_stored_ LCP_GUARDED_BY(mu_) = 0;
  std::size_t rpcs_ LCP_GUARDED_BY(mu_) = 0;
};

}  // namespace lcp::io
