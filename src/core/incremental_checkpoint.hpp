#pragma once
// Replicated incremental checkpoint store. A periodic full dump compresses
// and ships every slab of the field every generation, even when the
// application only touched a few percent of it between dumps; at exascale
// the unchanged bytes dominate the I/O energy bill. This store makes the
// dump cost proportional to what changed:
//
//   - Content-addressed slabs. Each slab of the field (sliced exactly as
//     compress/common/checkpoint.hpp slices it) is compressed and stored
//     as an object named by the FNV-1a 64 hash of its compressed bytes,
//     under <root>/slabs/<hex16>. Objects are immutable and self-verifying:
//     a reader re-hashes the fetched bytes and rejects any copy that does
//     not match its name.
//
//   - Dirty detection by raw-content hash. The journal records, per slab,
//     the hash of the slab's RAW float bytes alongside the stored object's
//     hash. A dump first re-hashes each raw slab (on lcp::shared_pool(),
//     8 slabs per body) and skips compression and transit entirely for
//     slabs whose raw hash is unchanged — lossy codecs make "compress and
//     compare" useless for this, so the raw hash is the dirty key and the
//     stored hash is the object key. The dirty slabs then go through
//     compress::encode_slabs, the encode walk write_checkpoint and the
//     streaming dump also run, on the caller's thread, with a sink that
//     dedups and puts each object; so an object holds exactly the bytes of
//     write_checkpoint's chunk for that slab.
//
//   - Append-only manifest journal. Each generation appends one entry
//     (codec, bound, dims, and the per-slab hash table) to a logical
//     journal, serialized as one framed stream per rewrite epoch at
//     <root>/journal.<hex16 epoch> with one CRC-protected chunk per entry
//     (kFrameFlagJournal) and the usual header/trailer replica pair. A
//     tampered entry fails its chunk CRC and takes down only its own
//     generation — the rest of the journal stays readable. Every rewrite
//     goes to a NEW epoch-named file; superseded epochs are pruned only
//     after the new epoch reaches the write quorum, so a failed publish
//     can never destroy the committed journal (there is no
//     remove-before-write window). A publish that misses quorum is rolled
//     back best-effort and its epoch is burnt, so a retry always writes a
//     strictly higher epoch and can never fork an already-written one.
//
//   - N-way replication (io/replica_set.hpp). Every object and journal
//     write fans out to all replicas; a dump is durable when the write
//     quorum acked. Restores read the journal from a quorum of replicas
//     (entries cross-checked: CRC-valid copies that disagree fail closed)
//     and fetch each slab from any replica that serves a hash-verified
//     copy, failing over per slab. All replication traffic lands on the
//     replica clients' byte counters, where the transit energy model
//     prices it.
//
//   - GC. drop_generation() retires a journal entry; gc() removes every
//     stored object no live generation references and rebuilds the dedup
//     index from the survivors, so a dropped generation's slabs can never
//     be resurrected by reference.
//
// Concurrency: dump/drop_generation/gc/open mutate store state and are
// serialized on an internal mutex. restore() is a pure read path — it
// re-reads the journal from the replicas on every call and touches no
// store members — so any number of restores may run concurrently with
// each other (but not with a writer, same as any checkpoint file). Each
// restore decodes its slabs on the process-wide team (lcp::shared_pool()),
// as each dump hashes its raw slabs, so concurrent calls take turns on it.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "compress/common/checkpoint.hpp"
#include "data/field.hpp"
#include "io/replica_set.hpp"
#include "support/status.hpp"
#include "support/thread_annotations.hpp"
#include "support/units.hpp"

namespace lcp::core {

struct IncrementalStoreOptions {
  /// Object-store prefix on every replica; slab objects live under
  /// "<root>/slabs/", the journal at "<root>/journal.<hex16 epoch>".
  std::string root = "ckpt";
  /// Slab codec/bound/slicing — identical semantics to write_checkpoint.
  compress::CheckpointOptions checkpoint;
};

/// Per-slab row of one journal entry.
struct SlabRecord {
  std::uint64_t raw_hash = 0;     ///< FNV-1a 64 of the slab's raw floats
  std::uint64_t stored_hash = 0;  ///< FNV-1a 64 of the compressed object
  std::uint64_t stored_bytes = 0; ///< compressed object size
};

/// One journal entry = one dump generation.
struct GenerationEntry {
  std::uint64_t generation = 0;  ///< 1-based, strictly increasing
  std::uint64_t parent = 0;      ///< previous generation, 0 for the first
  compress::SlabLayout layout;   ///< same slicing as the checkpoint manifest
  std::uint32_t dirty_slabs = 0;  ///< slabs re-encoded for this generation
  std::vector<SlabRecord> slabs;
};

/// Accounting for one dump() call.
struct DumpSummary {
  std::uint64_t generation = 0;
  std::size_t slab_count = 0;
  std::size_t dirty_slabs = 0;    ///< raw hash changed since parent
  std::size_t written_slabs = 0;  ///< dirty minus dedup hits
  Bytes payload_bytes{0};         ///< logical compressed bytes written
  Bytes journal_bytes{0};         ///< logical journal stream size
  Bytes replicated_bytes{0};      ///< wire bytes across all replicas
};

/// Accounting for drop_generation() / gc().
struct GcReport {
  std::size_t objects_removed = 0;  ///< distinct object names removed
  std::size_t objects_live = 0;     ///< distinct object names still referenced
  Bytes bytes_freed{0};             ///< summed across replicas
};

/// Outcome of one restore: recover_checkpoint's report (the same decode
/// walk produced it) plus where the slabs came from.
struct RestoreReport : compress::RecoveryReport {
  std::uint64_t generation = 0;
  /// Replica fetches that had to fail over (down replica, missing or
  /// hash-mismatched copy) before a good copy — or none — was found.
  std::size_t slab_failovers = 0;
  /// True when the journal itself needed cross-replica chunk failover.
  bool journal_degraded = false;
};

class IncrementalCheckpointStore {
 public:
  IncrementalCheckpointStore(io::ReplicaSet& replicas,
                             IncrementalStoreOptions options = {});

  /// Attaches to whatever journal the replicas hold (a cold start on an
  /// empty store is OK) and rebuilds the dedup index. Call before the
  /// first dump() against pre-existing state; a fresh store needs no open.
  [[nodiscard]] Status open();

  /// Writes one generation: hashes every raw slab, compresses and ships
  /// only the dirty ones (skipping objects the store already holds), and
  /// replaces the journal with the entry appended. Fails without
  /// publishing the generation if the object or journal writes miss the
  /// write quorum.
  [[nodiscard]] Expected<DumpSummary> dump(const data::Field& field);

  /// Reconstructs `generation` from any quorum of replicas. Lost slabs
  /// are filled per `policy` exactly as recover_checkpoint fills them
  /// (zero or nearest-neighbor-clamped interpolation), or turn the call
  /// into a typed error under policy.fail_on_any_loss. Slabs are fetched
  /// and decoded on lcp::shared_pool(), each fetched object held only
  /// until its slab is decoded.
  [[nodiscard]] Expected<RestoreReport> restore(
      std::uint64_t generation,
      const compress::RecoveryPolicy& policy = {}) const;

  /// restore() of the newest generation in the journal. The pick and the
  /// restore happen under one shared lock over one journal read, so a
  /// concurrent drop_generation cannot invalidate the chosen generation.
  [[nodiscard]] Expected<RestoreReport> restore_latest(
      const compress::RecoveryPolicy& policy = {}) const;

  /// Retires one generation from the journal (objects stay until gc()).
  [[nodiscard]] Status drop_generation(std::uint64_t generation);

  /// Removes every stored object that no live generation references.
  [[nodiscard]] Expected<GcReport> gc();

  /// Generations currently in the journal, ascending.
  [[nodiscard]] std::vector<std::uint64_t> generations() const;
  [[nodiscard]] std::uint64_t latest_generation() const;

  [[nodiscard]] const IncrementalStoreOptions& options() const noexcept {
    return options_;
  }

 private:
  std::string slab_path(std::uint64_t stored_hash) const;
  /// Common prefix of every epoch-named journal file.
  std::string journal_prefix() const;
  std::string journal_path(std::uint64_t epoch) const;

  /// One consistent read of the merged journal.
  struct JournalView {
    std::vector<GenerationEntry> entries;
    std::uint64_t epoch = 0;            ///< winning epoch (0 = fresh store)
    std::uint64_t next_generation = 1;  ///< first unused generation number
    bool degraded = false;  ///< merge needed replica or chunk failover
  };

  /// Reads and merges the journal from all readable replicas; see the
  /// quorum semantics in the file comment. A fresh store (no journal ever
  /// committed) is only concluded when at least write_quorum live
  /// replicas hold no journal file; below that the call fails closed.
  [[nodiscard]] Expected<JournalView> load_journal() const LCP_REQUIRES_SHARED(mu_);

  /// Restores `generation` out of an already-loaded journal view; caller
  /// holds mu_ (shared suffices — this is a pure read).
  Expected<RestoreReport> restore_from_view(
      const JournalView& view, std::uint64_t generation,
      const compress::RecoveryPolicy& policy) const LCP_REQUIRES_SHARED(mu_);

  /// Writes `next` as the epoch_+1 journal file and, on quorum success,
  /// commits it to entries_/next_generation_ and prunes superseded epoch
  /// files. On a sub-quorum write the partial copies are removed
  /// best-effort and the attempted epoch is burnt (epoch_ advances), so a
  /// retry can never produce two same-epoch journals with different
  /// content; the committed journal files are never touched.
  Status publish_journal(std::vector<GenerationEntry> next,
                         std::uint64_t next_generation, Bytes* journal_bytes)
      LCP_REQUIRES(mu_);

  /// Removes journal files below `keep_epoch` from every up replica
  /// (best-effort: a lingering lower epoch always loses the epoch vote).
  void prune_superseded_journals(std::uint64_t keep_epoch) LCP_REQUIRES(mu_);

  /// Loads journal state into entries_/epoch_/index on first use.
  [[nodiscard]] Status ensure_loaded_locked() LCP_REQUIRES(mu_);

  /// Removes any stale copy and fans the write out; quorum-checked. Slab
  /// objects only — the journal goes through publish_journal, which never
  /// removes before writing.
  [[nodiscard]] Status put_file(const std::string& path, std::span<const std::uint8_t> data);

  /// Rebuilds raw->stored dedup state from `entries`.
  void rebuild_index(const std::vector<GenerationEntry>& entries)
      LCP_REQUIRES(mu_);

  io::ReplicaSet& replicas_;
  IncrementalStoreOptions options_;

  /// Mutating entry points (dump/drop/gc/open) hold this exclusively;
  /// restores hold it shared, so any number of concurrent restores run in
  /// parallel but never overlap a journal rewrite or object removal (the
  /// in-memory NfsServer, like a real backend, does not promise atomic
  /// visibility of a replace while readers stream the old bytes).
  mutable SharedMutex mu_;
  bool loaded_ LCP_GUARDED_BY(mu_) = false;
  /// Journal rewrite counter (freshness order).
  std::uint64_t epoch_ LCP_GUARDED_BY(mu_) = 0;
  /// Next generation number to assign. Persisted in the journal header
  /// and never reused, even after the newest generation is dropped — a
  /// reused number could fork against a stale replica's entry for it.
  std::uint64_t next_generation_ LCP_GUARDED_BY(mu_) = 1;
  std::vector<GenerationEntry> entries_ LCP_GUARDED_BY(mu_);
  /// Object names (stored hashes) the store believes are durable, i.e.
  /// referenced by some live journal entry. Guards dedup: an object not
  /// in this set is (re)written even if a stale file shares the name.
  std::vector<std::uint64_t> stored_objects_ LCP_GUARDED_BY(mu_);
};

}  // namespace lcp::core
