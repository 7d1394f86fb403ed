#include "io/nfs_server.hpp"

#include <algorithm>

#include "support/checksum.hpp"

namespace lcp::io {

Expected<std::uint32_t> NfsServer::handle_write_at(
    const std::string& path, std::uint64_t offset,
    std::span<const std::uint8_t> chunk) {
  if (path.empty()) {
    return Status::invalid_argument("nfs: empty path");
  }
  const MutexLock lock{mu_};
  auto& file = files_[path];
  const std::uint64_t end = offset + chunk.size();
  if (end > file.size()) {
    // bytes_stored_ tracks the sum of file sizes, so only growth counts:
    // an idempotent retransmit over an already-written range is free.
    bytes_stored_ += end - file.size();
    file.resize(end, 0);
  }
  std::copy(chunk.begin(), chunk.end(),
            file.begin() + static_cast<std::ptrdiff_t>(offset));
  ++rpcs_;
  return crc32c(chunk);
}

Expected<std::span<const std::uint8_t>> NfsServer::read_file(
    const std::string& path) const {
  const MutexLock lock{mu_};
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::invalid_argument("nfs: no such file: " + path);
  }
  return std::span<const std::uint8_t>{it->second};
}

Expected<std::uint64_t> NfsServer::remove_file(const std::string& path) {
  const MutexLock lock{mu_};
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::invalid_argument("nfs: no such file: " + path);
  }
  const std::uint64_t freed = it->second.size();
  bytes_stored_ -= freed;
  files_.erase(it);
  ++rpcs_;
  return freed;
}

std::vector<std::string> NfsServer::list_files(
    const std::string& prefix) const {
  const MutexLock lock{mu_};
  std::vector<std::string> paths;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    paths.push_back(it->first);
  }
  return paths;
}

}  // namespace lcp::io
