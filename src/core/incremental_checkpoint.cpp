#include "core/incremental_checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "compress/common/framing.hpp"
#include "support/bytestream.hpp"
#include "support/checksum.hpp"
#include "support/thread_pool.hpp"

namespace lcp::core {
namespace {

// Journal stream layout: chunk 0 is a header record naming the journal
// epoch and the live generation list; chunks 1..n are generation entries.
// Entries are merged across replicas BY GENERATION NUMBER, never by chunk
// position: a rewrite (append or drop) shifts positions, and a replica
// that slept through it would otherwise present CRC-valid chunks that
// "disagree" with fresh ones. The epoch makes freshness explicit — the
// highest epoch among readable copies names the live generation set, and
// any replica's intact copy of an immutable entry can serve it.
constexpr std::uint32_t kJournalHeaderMagic = 0x484A434CU;  // "LCJH"
constexpr std::uint32_t kJournalEntryMagic = 0x4A50434CU;   // "LCPJ"
constexpr std::uint8_t kJournalVersion = 1;

struct JournalHeader {
  std::uint64_t epoch = 0;
  std::uint64_t next_generation = 1;  ///< never reused, survives drops
  std::vector<std::uint64_t> generations;
};

std::vector<std::uint8_t> build_header(const JournalHeader& h) {
  ByteWriter w;
  w.write_u32(kJournalHeaderMagic);
  w.write_u8(kJournalVersion);
  w.write_u64(h.epoch);
  w.write_u64(h.next_generation);
  w.write_u32(static_cast<std::uint32_t>(h.generations.size()));
  for (std::uint64_t g : h.generations) {
    w.write_u64(g);
  }
  return w.finish();
}

Expected<JournalHeader> parse_header(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto magic = r.read_u32();
  if (!magic || *magic != kJournalHeaderMagic) {
    return Status::corrupt_data("bad journal header magic");
  }
  auto version = r.read_u8();
  if (!version || *version != kJournalVersion) {
    return Status::unsupported("unknown journal version");
  }
  JournalHeader h;
  auto epoch = r.read_u64();
  if (!epoch) {
    return epoch.status().with_context("journal epoch");
  }
  h.epoch = *epoch;
  auto next_generation = r.read_u64();
  if (!next_generation || *next_generation == 0) {
    return Status::corrupt_data("journal next generation invalid");
  }
  h.next_generation = *next_generation;
  auto count = r.read_u32();
  if (!count || *count > compress::kMaxFrameChunks) {
    return Status::corrupt_data("journal generation count invalid");
  }
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto g = r.read_u64();
    if (!g || *g == 0 || *g <= prev) {
      return Status::corrupt_data("journal generation list not increasing");
    }
    prev = *g;
    h.generations.push_back(*g);
  }
  if (h.next_generation <= prev) {
    return Status::corrupt_data(
        "journal next generation not above live generations");
  }
  if (r.remaining() != 0) {
    return Status::corrupt_data("journal header has trailing bytes");
  }
  return h;
}

std::vector<std::uint8_t> build_entry(const GenerationEntry& e) {
  ByteWriter w;
  w.write_u32(kJournalEntryMagic);
  w.write_u8(kJournalVersion);
  w.write_u64(e.generation);
  w.write_u64(e.parent);
  compress::write_slab_layout(w, e.layout);
  w.write_u32(e.dirty_slabs);
  w.write_u32(static_cast<std::uint32_t>(e.slabs.size()));
  for (const SlabRecord& s : e.slabs) {
    w.write_u64(s.raw_hash);
    w.write_u64(s.stored_hash);
    w.write_u64(s.stored_bytes);
  }
  return w.finish();
}

Expected<GenerationEntry> parse_entry(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto magic = r.read_u32();
  if (!magic || *magic != kJournalEntryMagic) {
    return Status::corrupt_data("bad journal entry magic");
  }
  auto version = r.read_u8();
  if (!version || *version != kJournalVersion) {
    return Status::unsupported("unknown journal entry version");
  }
  GenerationEntry e;
  auto generation = r.read_u64();
  if (!generation || *generation == 0) {
    return Status::corrupt_data("journal entry generation invalid");
  }
  e.generation = *generation;
  auto parent = r.read_u64();
  if (!parent || *parent >= e.generation) {
    return Status::corrupt_data("journal entry parent invalid");
  }
  e.parent = *parent;
  auto layout = compress::read_slab_layout(r, "journal entry");
  if (!layout) {
    return layout.status();
  }
  e.layout = std::move(*layout);
  auto dirty = r.read_u32();
  if (!dirty) {
    return dirty.status().with_context("journal entry dirty count");
  }
  e.dirty_slabs = *dirty;
  auto slab_count = r.read_u32();
  if (!slab_count) {
    return slab_count.status().with_context("journal entry slab count");
  }
  if (*slab_count != e.layout.slab_count() || e.dirty_slabs > *slab_count) {
    return Status::corrupt_data(
        "journal entry slab count inconsistent with dims");
  }
  e.slabs.reserve(*slab_count);
  for (std::uint32_t i = 0; i < *slab_count; ++i) {
    SlabRecord s;
    auto raw = r.read_u64();
    auto stored = r.read_u64();
    auto size = r.read_u64();
    if (!raw || !stored || !size || *size == 0) {
      return Status::corrupt_data("journal entry slab record invalid");
    }
    s.raw_hash = *raw;
    s.stored_hash = *stored;
    s.stored_bytes = *size;
    e.slabs.push_back(s);
  }
  if (r.remaining() != 0) {
    return Status::corrupt_data("journal entry has trailing bytes");
  }
  return e;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  if (s.size() != 16) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

}  // namespace

IncrementalCheckpointStore::IncrementalCheckpointStore(
    io::ReplicaSet& replicas, IncrementalStoreOptions options)
    : replicas_(replicas), options_(std::move(options)) {}

std::string IncrementalCheckpointStore::slab_path(
    std::uint64_t stored_hash) const {
  return options_.root + "/slabs/" + hex16(stored_hash);
}

std::string IncrementalCheckpointStore::journal_prefix() const {
  return options_.root + "/journal.";
}

std::string IncrementalCheckpointStore::journal_path(
    std::uint64_t epoch) const {
  return journal_prefix() + hex16(epoch);
}

Status IncrementalCheckpointStore::publish_journal(
    std::vector<GenerationEntry> next, std::uint64_t next_generation,
    Bytes* journal_bytes) {
  const std::uint64_t attempt = epoch_ + 1;
  compress::FramedWriter writer{compress::kFrameFlagJournal};
  JournalHeader header;
  header.epoch = attempt;
  header.next_generation = next_generation;
  for (const GenerationEntry& e : next) {
    header.generations.push_back(e.generation);
  }
  writer.append_chunk(build_header(header));
  for (const GenerationEntry& e : next) {
    writer.append_chunk(build_entry(e));
  }
  const std::vector<std::uint8_t> journal = writer.finish();

  // Every rewrite goes to a NEW epoch-named file: the committed journal
  // is never removed, or even touched, before its replacement is
  // quorum-durable, so there is no window in which a failed write can
  // destroy published state.
  const std::string path = journal_path(attempt);
  const Status st = replicas_.write_file(path, journal).status;
  // Success or failure, the attempted epoch is burnt: a retry writes a
  // strictly higher epoch and can never present a second, different
  // journal under an epoch some replica already holds.
  epoch_ = attempt;
  if (!st.is_ok()) {
    // Roll the sub-quorum copies back best-effort (server-side, so a
    // fault-injected client path cannot block it). A copy that survives
    // anyway is served by the epoch vote without forking, and the slabs
    // it references are already quorum-durable.
    (void)replicas_.remove_file(path);
    return st;
  }
  entries_ = std::move(next);
  next_generation_ = next_generation;
  if (journal_bytes != nullptr) {
    *journal_bytes = Bytes{journal.size()};
  }
  prune_superseded_journals(attempt);
  return Status::ok();
}

void IncrementalCheckpointStore::prune_superseded_journals(
    std::uint64_t keep_epoch) {
  const std::string prefix = journal_prefix();
  for (std::size_t r = 0; r < replicas_.replica_count(); ++r) {
    if (replicas_.replica_down(r)) {
      continue;  // its stale epochs lose the epoch vote until the next prune
    }
    io::NfsServer& server = replicas_.server(r);
    for (const std::string& path : server.list_files(prefix)) {
      const auto epoch =
          parse_hex16(std::string_view{path}.substr(prefix.size()));
      if (epoch.has_value() && *epoch < keep_epoch) {
        (void)server.remove_file(path);  // best-effort; lower epochs are inert
      }
    }
  }
}

Status IncrementalCheckpointStore::put_file(
    const std::string& path, std::span<const std::uint8_t> data) {
  // NfsClient::write_file overwrites in place without truncating, so a
  // stale file under the same name (a damaged copy may be longer) must be
  // dropped first; remove_file skips missing and down-replica copies. Safe
  // for slab objects only: they are content-addressed, so any stale
  // same-name copy stands for the exact bytes this write carries and
  // committed state cannot be lost.
  auto removed = replicas_.remove_file(path);
  if (!removed.has_value()) {
    return removed.status().with_context("replacing '" + path + "'");
  }
  return replicas_.write_file(path, data).status;
}

void IncrementalCheckpointStore::rebuild_index(
    const std::vector<GenerationEntry>& entries) {
  stored_objects_.clear();
  for (const GenerationEntry& e : entries) {
    for (const SlabRecord& s : e.slabs) {
      stored_objects_.push_back(s.stored_hash);
    }
  }
  std::sort(stored_objects_.begin(), stored_objects_.end());
  stored_objects_.erase(
      std::unique(stored_objects_.begin(), stored_objects_.end()),
      stored_objects_.end());
}

Expected<IncrementalCheckpointStore::JournalView>
IncrementalCheckpointStore::load_journal() const {
  JournalView view;
  const std::string prefix = journal_prefix();
  const std::size_t n = replicas_.replica_count();

  // Every valid framed journal copy, across every replica and every epoch
  // file a replica holds (a replica that slept through prunes may hold
  // several; a stale epoch just loses the vote below).
  struct Copy {
    compress::FrameRecovery frame;
    std::optional<JournalHeader> header;  ///< intact + parsed chunk 0
    std::span<const std::uint8_t> header_bytes;
  };
  std::vector<Copy> copies;
  std::size_t absent = 0;
  std::size_t readable_replicas = 0;
  Status last_error = Status::ok();
  for (std::size_t r = 0; r < n; ++r) {
    if (replicas_.replica_down(r)) {
      view.degraded = true;
      continue;
    }
    const auto files = replicas_.server(r).list_files(prefix);
    if (files.empty()) {
      // A live replica with no journal file at any epoch: one vote that
      // the store never committed a journal.
      ++absent;
      continue;
    }
    bool replica_readable = false;
    for (const std::string& path : files) {
      const auto name_epoch =
          parse_hex16(std::string_view{path}.substr(prefix.size()));
      auto bytes = replicas_.server(r).read_file(path);
      if (!bytes.has_value()) {
        last_error = bytes.status();
        view.degraded = true;
        continue;
      }
      auto frame = compress::recover_framed(*bytes);
      if (!frame.has_value() ||
          (frame->info.flags & compress::kFrameFlagJournal) == 0) {
        last_error = frame.has_value()
                         ? Status::corrupt_data("journal frame flag missing")
                         : frame.status();
        view.degraded = true;
        continue;
      }
      Copy copy;
      copy.frame = std::move(*frame);
      if (!copy.frame.chunks.empty() &&
          copy.frame.chunks.front().state == compress::ChunkState::kIntact) {
        auto header = parse_header(copy.frame.chunks.front().payload);
        if (!header.has_value()) {
          return header.status().with_context("journal header (crc-valid)");
        }
        if (!name_epoch.has_value() || *name_epoch != header->epoch) {
          // The file name is outside the frame CRC; a copy whose path
          // disagrees with its own header is untrustworthy end to end.
          last_error =
              Status::corrupt_data("journal copy epoch disagrees with path");
          view.degraded = true;
          continue;
        }
        copy.header_bytes = copy.frame.chunks.front().payload;
        copy.header = std::move(*header);
      } else {
        view.degraded = true;
      }
      copies.push_back(std::move(copy));
      replica_readable = true;
    }
    if (replica_readable) {
      ++readable_replicas;
    }
  }

  if (readable_replicas == 0) {
    if (last_error.is_ok() && absent >= replicas_.write_quorum()) {
      // At least write_quorum live replicas agree no journal was ever
      // committed: a genuinely fresh store (any committed quorum write
      // would intersect that many observations). Fewer absences prove
      // nothing about what the unreachable replicas hold, so below the
      // threshold the store fails closed instead of restarting at epoch 1
      // and forking whatever the down replicas come back with.
      return view;
    }
    if (!last_error.is_ok()) {
      return Status{last_error.code(),
                    "journal unreadable on every replica: " +
                        last_error.message()};
    }
    return Status::unavailable(
        "journal absent on " + std::to_string(absent) +
        " reachable replicas, need quorum " +
        std::to_string(replicas_.write_quorum()) +
        " absences to call the store fresh");
  }
  if (readable_replicas < replicas_.write_quorum()) {
    // Fail closed below quorum: with fewer readable replicas than the
    // write quorum we cannot rule out every readable copy being stale
    // (R + W > N is what guarantees the freshest epoch is represented).
    return Status::unavailable(
        "journal readable on " + std::to_string(readable_replicas) +
        " replicas, need quorum " + std::to_string(replicas_.write_quorum()));
  }
  if (readable_replicas < n) {
    view.degraded = true;
  }

  // Freshness: the highest epoch among intact headers names the live
  // generation list. Equal-epoch headers must agree byte-for-byte — two
  // CRC-valid headers that disagree are a fork, not random damage.
  bool have_header = false;
  JournalHeader winner;
  std::span<const std::uint8_t> winner_bytes;
  for (const Copy& copy : copies) {
    if (!copy.header.has_value()) {
      continue;
    }
    if (!have_header || copy.header->epoch > winner.epoch) {
      have_header = true;
      winner = *copy.header;
      winner_bytes = copy.header_bytes;
    } else if (copy.header->epoch == winner.epoch) {
      const auto& b = copy.header_bytes;
      if (b.size() != winner_bytes.size() ||
          !std::equal(b.begin(), b.end(), winner_bytes.begin())) {
        return Status::corrupt_data(
            "journal fork: equal-epoch headers disagree");
      }
    }
  }
  if (!have_header) {
    return Status::corrupt_data("journal header lost on every replica");
  }
  view.epoch = winner.epoch;
  view.next_generation = winner.next_generation;

  // Candidate entry bytes per generation, from every copy's intact
  // chunks — stale epochs included: entries are immutable once written
  // (generation numbers are never reused), so any intact copy of a
  // generation may serve it, but all intact copies must agree.
  std::map<std::uint64_t, std::span<const std::uint8_t>> candidates;
  for (const Copy& copy : copies) {
    for (std::size_t c = 1; c < copy.frame.chunks.size(); ++c) {
      const auto& chunk = copy.frame.chunks[c];
      if (chunk.state != compress::ChunkState::kIntact) {
        view.degraded = true;
        continue;
      }
      auto entry = parse_entry(chunk.payload);
      if (!entry.has_value()) {
        return entry.status().with_context("journal entry (crc-valid)");
      }
      auto [it, inserted] =
          candidates.try_emplace(entry->generation, chunk.payload);
      if (!inserted) {
        const auto& prev = it->second;
        if (prev.size() != chunk.payload.size() ||
            !std::equal(prev.begin(), prev.end(), chunk.payload.begin())) {
          return Status::corrupt_data(
              "journal fork: generation " +
              std::to_string(entry->generation) +
              " has disagreeing crc-valid copies");
        }
      }
    }
  }

  for (std::uint64_t g : winner.generations) {
    const auto it = candidates.find(g);
    if (it == candidates.end()) {
      // Every copy of this entry is damaged: the generation is lost, but
      // the journal fails open to the surviving ones (restore of the lost
      // generation reports "not in journal" instead of a silent wrong
      // answer, because its slabs are unreachable without the entry).
      view.degraded = true;
      continue;
    }
    auto entry = parse_entry(it->second);
    if (!entry.has_value()) {
      return entry.status();
    }
    view.entries.push_back(std::move(*entry));
  }
  return view;
}

Status IncrementalCheckpointStore::ensure_loaded_locked() {
  if (loaded_) {
    return Status::ok();
  }
  auto view = load_journal();
  if (!view.has_value()) {
    return view.status();
  }
  entries_ = std::move(view->entries);
  // max(): a failed publish may have burnt epochs (or generation numbers)
  // beyond what the replicas committed; never step back behind them.
  epoch_ = std::max(epoch_, view->epoch);
  next_generation_ = std::max(
      {next_generation_, view->next_generation,
       entries_.empty() ? std::uint64_t{1} : entries_.back().generation + 1});
  rebuild_index(entries_);
  loaded_ = true;
  return Status::ok();
}

Status IncrementalCheckpointStore::open() {
  const WriterLock lock{mu_};
  loaded_ = false;
  const Status st = ensure_loaded_locked();
  if (!st.is_ok()) {
    return st.with_context("incremental store open");
  }
  return Status::ok();
}

Expected<DumpSummary> IncrementalCheckpointStore::dump(
    const data::Field& field) {
  const WriterLock lock{mu_};
  LCP_RETURN_IF_ERROR(ensure_loaded_locked());
  const compress::CheckpointOptions& opts = options_.checkpoint;
  if (field.element_count() == 0) {
    return Status::invalid_argument("incremental dump needs a non-empty field");
  }
  if (opts.chunk_elements == 0) {
    return Status::invalid_argument(
        "incremental dump chunk_elements must be > 0");
  }

  const Bytes wire_before = replicas_.bytes_replicated();
  const compress::SlabLayout layout = compress::SlabLayout::of(field, opts);
  const std::size_t slab_count = layout.slab_count();

  const GenerationEntry* parent =
      entries_.empty() ? nullptr : &entries_.back();
  const bool parent_comparable = parent != nullptr && parent->layout == layout;

  GenerationEntry entry;
  // Generation numbers come from the persisted counter, never from
  // back()+1: after a drop of the newest generation the latter would
  // reuse a number a stale replica may still hold an entry for.
  entry.generation = next_generation_;
  entry.parent = parent == nullptr ? 0 : parent->generation;
  entry.layout = layout;
  entry.slabs.resize(slab_count);

  DumpSummary summary;
  summary.generation = entry.generation;
  summary.slab_count = slab_count;

  // Raw-hash pass: a slab whose raw floats hash as in the parent keeps
  // the parent's record; the others are dirty and go through the encode
  // walk. The slabs are views into the field, no copy of its bytes, hashed
  // on the shared team one group of fnv1a64_many's 8 AVX2 lanes per body.
  // Each body writes only its own group's hashes and allocates nothing.
  std::vector<std::span<const std::uint8_t>> raw(slab_count);
  for (std::size_t s = 0; s < slab_count; ++s) {
    const auto values = layout.slab_values(field, s);
    raw[s] = {reinterpret_cast<const std::uint8_t*>(values.data()),
              values.size_bytes()};
  }
  std::vector<std::uint64_t> raw_hashes(slab_count);
  constexpr std::size_t kHashGroup = 8;
  shared_pool().parallel_for(
      0, (slab_count + kHashGroup - 1) / kHashGroup,
      [&](std::size_t g) {
        const std::size_t first = g * kHashGroup;
        const std::size_t n = std::min(kHashGroup, slab_count - first);
        fnv1a64_many(std::span{raw}.subspan(first, n),
                     std::span{raw_hashes}.subspan(first, n));
      },
      /*grain=*/1);
  std::vector<std::size_t> dirty;
  for (std::size_t s = 0; s < slab_count; ++s) {
    const std::uint64_t raw_hash = raw_hashes[s];
    if (parent_comparable && parent->slabs[s].raw_hash == raw_hash) {
      entry.slabs[s] = parent->slabs[s];
    } else {
      entry.slabs[s].raw_hash = raw_hash;
      dirty.push_back(s);
    }
  }
  summary.dirty_slabs = dirty.size();

  // The sink dedups against the objects already durable and the ones this
  // walk wrote (`written`, sorted), and merges the latter into
  // stored_objects_ only after the walk.
  const std::span<const std::uint64_t> durable{stored_objects_};
  std::vector<std::uint64_t> written;
  const Status walked = compress::encode_slabs(
      field, opts, dirty, [&](const compress::EncodedSlab& slab) {
        const std::uint64_t stored_hash = fnv1a64(slab.container);
        const auto at =
            std::lower_bound(written.begin(), written.end(), stored_hash);
        const bool already_stored =
            std::binary_search(durable.begin(), durable.end(), stored_hash) ||
            (at != written.end() && *at == stored_hash);
        if (!already_stored) {
          const Status st = put_file(slab_path(stored_hash), slab.container);
          if (!st.is_ok()) {
            return st.with_context("slab " + std::to_string(slab.slab));
          }
          written.insert(at, stored_hash);
          ++summary.written_slabs;
          summary.payload_bytes =
              summary.payload_bytes + Bytes{slab.container.size()};
        }
        entry.slabs[slab.slab].stored_hash = stored_hash;
        entry.slabs[slab.slab].stored_bytes = slab.container.size();
        return Status::ok();
      });
  // Objects written before a failure are durable orphans until the next
  // gc(); the generation itself is never published, so no reader can
  // observe the partial dump.
  const auto old_end = static_cast<std::ptrdiff_t>(stored_objects_.size());
  stored_objects_.insert(stored_objects_.end(), written.begin(), written.end());
  std::inplace_merge(stored_objects_.begin(), stored_objects_.begin() + old_end,
                     stored_objects_.end());
  if (!walked.is_ok()) {
    return walked.with_context("incremental dump");
  }
  entry.dirty_slabs = static_cast<std::uint32_t>(summary.dirty_slabs);

  // Publish: the generation exists once the journal write reaches
  // quorum, and not before. A failed publish leaves the committed
  // journal untouched (orphan slab objects wait for the next gc()).
  std::vector<GenerationEntry> next = entries_;
  next.push_back(std::move(entry));
  Bytes journal_bytes{0};
  const Status st =
      publish_journal(std::move(next), summary.generation + 1, &journal_bytes);
  if (!st.is_ok()) {
    return st.with_context("incremental dump: journal");
  }
  summary.journal_bytes = journal_bytes;
  summary.replicated_bytes =
      Bytes{replicas_.bytes_replicated().bytes() - wire_before.bytes()};
  return summary;
}

Expected<RestoreReport> IncrementalCheckpointStore::restore(
    std::uint64_t generation, const compress::RecoveryPolicy& policy) const {
  const ReaderLock lock{mu_};
  auto view = load_journal();
  if (!view.has_value()) {
    return view.status().with_context("incremental restore");
  }
  return restore_from_view(*view, generation, policy);
}

Expected<RestoreReport> IncrementalCheckpointStore::restore_from_view(
    const JournalView& view, std::uint64_t generation,
    const compress::RecoveryPolicy& policy) const {
  const GenerationEntry* entry = nullptr;
  for (const GenerationEntry& e : view.entries) {
    if (e.generation == generation) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    return Status::invalid_argument(
        "generation " + std::to_string(generation) + " not in journal");
  }

  // Slabs are fetched and decoded concurrently on the shared team: each
  // body owns its fetched object until its slab is decoded and records its
  // own failover count, summed in slab order after the join.
  std::vector<std::size_t> failovers(entry->layout.slab_count(), 0);
  auto decoded = compress::decode_slabs(
      entry->layout,
      [&](std::size_t s) {
        compress::SlabBytes slab;
        slab.chunk_seq = static_cast<std::uint32_t>(s);
        const std::uint64_t want = entry->slabs[s].stored_hash;
        // Content addressing makes the object self-verifying: a copy whose
        // hash does not match its name is rejected and the read fails over.
        auto fetched = replicas_.read_file(
            slab_path(want), s % replicas_.replica_count(),
            [want](std::span<const std::uint8_t> bytes) {
              if (fnv1a64(bytes) != want) {
                return Status::corrupt_data("slab object hash mismatch");
              }
              return Status::ok();
            });
        if (!fetched.has_value()) {
          slab.frame_state = compress::ChunkState::kMissing;
          slab.status =
              fetched.status().with_context("slab " + std::to_string(s));
          failovers[s] = replicas_.replica_count();
          return slab;
        }
        failovers[s] = fetched->failovers;
        slab.owned = std::move(fetched->bytes);
        slab.bytes = slab.owned;
        return slab;
      },
      policy, &shared_pool());
  if (!decoded.has_value()) {
    return decoded.status().with_context("incremental restore");
  }
  RestoreReport report{std::move(*decoded)};
  report.generation = generation;
  report.slab_failovers =
      std::accumulate(failovers.begin(), failovers.end(), std::size_t{0});
  report.journal_degraded = view.degraded;
  return report;
}

Expected<RestoreReport> IncrementalCheckpointStore::restore_latest(
    const compress::RecoveryPolicy& policy) const {
  // One shared lock and one journal read cover both the pick and the
  // restore: a drop_generation between them (which needs the exclusive
  // lock) can never turn the chosen generation into "not in journal".
  const ReaderLock lock{mu_};
  auto view = load_journal();
  if (!view.has_value()) {
    return view.status().with_context("incremental restore_latest");
  }
  if (view->entries.empty()) {
    return Status::invalid_argument("journal holds no generations");
  }
  return restore_from_view(*view, view->entries.back().generation, policy);
}

Status IncrementalCheckpointStore::drop_generation(std::uint64_t generation) {
  const WriterLock lock{mu_};
  LCP_RETURN_IF_ERROR(ensure_loaded_locked());
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [generation](const GenerationEntry& e) {
        return e.generation == generation;
      });
  if (it == entries_.end()) {
    return Status::invalid_argument(
        "generation " + std::to_string(generation) + " not in journal");
  }
  std::vector<GenerationEntry> next = entries_;
  next.erase(next.begin() + (it - entries_.begin()));
  // next_generation_ is preserved across the drop: the dropped number is
  // retired forever, not freed for reuse.
  const Status st = publish_journal(std::move(next), next_generation_, nullptr);
  if (!st.is_ok()) {
    return st.with_context("drop_generation");
  }
  // The dropped generation's exclusive objects stay on disk until gc();
  // the index must forget them NOW so a later dump re-writes rather than
  // referencing a file gc() is about to delete.
  rebuild_index(entries_);
  return Status::ok();
}

Expected<GcReport> IncrementalCheckpointStore::gc() {
  const WriterLock lock{mu_};
  LCP_RETURN_IF_ERROR(ensure_loaded_locked());
  rebuild_index(entries_);
  std::set<std::string> live;
  for (std::uint64_t h : stored_objects_) {
    live.insert(slab_path(h));
  }

  GcReport report;
  report.objects_live = live.size();
  const std::string prefix = options_.root + "/slabs/";
  std::set<std::string> removed;
  for (std::size_t r = 0; r < replicas_.replica_count(); ++r) {
    if (replicas_.replica_down(r)) {
      continue;  // stale objects on a down replica wait for the next gc
    }
    // GC is a storage-side administrative walk (REMOVE RPCs carry no
    // payload), so it goes straight to the servers: no bytes land on the
    // replica clients' transit counters.
    io::NfsServer& server = replicas_.server(r);
    for (const std::string& path : server.list_files(prefix)) {
      if (live.contains(path)) {
        continue;
      }
      auto freed = server.remove_file(path);
      if (!freed.has_value()) {
        return freed.status().with_context("gc: " + path);
      }
      report.bytes_freed = report.bytes_freed + Bytes{*freed};
      removed.insert(path);
    }
  }
  report.objects_removed = removed.size();
  return report;
}

std::vector<std::uint64_t> IncrementalCheckpointStore::generations() const {
  const WriterLock lock{mu_};
  std::vector<std::uint64_t> out;
  out.reserve(entries_.size());
  for (const GenerationEntry& e : entries_) {
    out.push_back(e.generation);
  }
  return out;
}

std::uint64_t IncrementalCheckpointStore::latest_generation() const {
  const WriterLock lock{mu_};
  return entries_.empty() ? 0 : entries_.back().generation;
}

}  // namespace lcp::core
