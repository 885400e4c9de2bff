#pragma once
/// \file store.hpp
/// \brief Per-node replica of one shared file: update log + extended VV.
///
/// This is the "general distributed file system" the paper assumes beneath
/// IDEA: it guarantees read/write correctness for the local replica (apply
/// is idempotent, the log is the source of truth, meta-data is maintained
/// deterministically) and exposes exactly what the consistency layer needs:
/// the extended version vector, the updates a peer is missing, snapshots and
/// rollback.
///
/// The log is one buffer in canonical display order (CanonicalOrder), and
/// read views are prefixes of it (ContentsView).  A writer's history is
/// dense — the replica holds exactly seqs 1..evv().count_of(writer) — and
/// its stamps never decrease, so the EVV's per-writer stamp lists locate
/// any update by binary search and name the suffix a peer lacks without a
/// walk of the whole log.  Every per-operation call costs O(change):
///   * apply at the canonical tail, pin a view: O(1) amortized;
///   * find: O(log n); invalidate: O(log n), plus a buffer copy when a
///     view holds the buffer;
///   * updates_ahead_of: O(missing * log n); staleness_ahead_of: O(writers);
///   * meta value: O(1) while the live deltas are small integers (a
///     running sum, bit-identical to the key-ordered fold), else the fold.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "replica/update.hpp"
#include "vv/extended_vv.hpp"

namespace idea::replica {

class ReplicaStore {
 public:
  ReplicaStore(NodeId node, FileId file) : node_(node), file_(file) {}

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] FileId file() const { return file_; }

  /// Issue a local write stamped with the node's local clock.  Returns the
  /// stored update (with its assigned sequence number).  Like find(), the
  /// reference is valid until this store's next mutation.
  const Update& apply_local(SimTime local_now, std::string content,
                            double meta_delta);

  /// Learn a remote update.  Idempotent.  A writer's history must be applied
  /// in sequence order; updates arriving ahead of their predecessors (the
  /// network may reorder messages) are buffered and applied automatically
  /// once the gap fills.  Returns true if the update is now applied.
  bool apply_remote(const Update& u);

  /// Out-of-order updates currently parked awaiting predecessors.
  [[nodiscard]] std::size_t pending_remote() const {
    return pending_.size();
  }

  [[nodiscard]] bool has(const UpdateKey& key) const {
    return key.seq >= 1 && key.seq <= evv_.count_of(key.writer);
  }
  /// The held update with this key, or nullptr.  Valid until this store's
  /// next mutation (apply, invalidate, import, rollback).
  [[nodiscard]] const Update* find(const UpdateKey& key) const;

  /// Updates this replica holds that `peer_counts` does not — the payload of
  /// a resolution/anti-entropy push — in (writer, seq) order.
  [[nodiscard]] std::vector<Update> updates_ahead_of(
      const vv::VersionVector& peer_counts) const;

  /// How far a peer at `peer_counts` lags this replica: number of updates
  /// it is missing and the stamp of the oldest one.  Reads only the EVV's
  /// stamp lists — no update copies — so the read router can probe
  /// staleness per routed read without touching contents.
  struct StalenessProbe {
    std::uint64_t versions = 0;
    SimTime oldest_stamp = 0;  ///< Meaningless when versions == 0.
  };
  [[nodiscard]] StalenessProbe staleness_ahead_of(
      const vv::VersionVector& peer_counts) const;

  /// The full applied log as a flat batch, in (writer, seq) order — the
  /// state a migration streams to a file's new replica group.  Carries
  /// invalidation flags, so the importer reproduces the meta value too.
  [[nodiscard]] std::vector<Update> export_log() const {
    return updates_ahead_of(vv::VersionVector{});
  }

  /// What one import_log() call did, per update in the batch.
  struct ImportReport {
    std::size_t applied = 0;     ///< Newly added to the log (including any
                                 ///< parked successors the batch unblocked).
    std::size_t duplicates = 0;  ///< Already held.
    /// Invalidation flags OR'd onto updates already held un-flagged: the
    /// batch knew a resolution outcome this replica had missed.
    std::size_t invalidation_merges = 0;
  };

  /// Ingest a state batch (typically another replica's export_log()).
  /// Every new update goes through apply_remote, so the import is
  /// idempotent, tolerates overlap with updates already held, and adjusts
  /// local_seq when the batch contains this node's own writer history (a
  /// migrated or restarted coordinator continues its predecessor's
  /// sequence).  Updates already held contribute at most their
  /// invalidation flag, which is OR'd in.
  ImportReport import_log(std::span<const Update> updates);

  /// Mark an update invalidated (invalidate-both policy) and update the
  /// meta value.  Returns false if the update is unknown.
  bool invalidate(const UpdateKey& key);

  /// Keys of every invalidated update in the log, in key order.
  [[nodiscard]] const std::vector<UpdateKey>& invalidated_keys() const {
    return invalidated_;
  }
  [[nodiscard]] bool is_invalidated(const UpdateKey& key) const;

  /// Drop every update with stamp > t and rebuild the version vector; the
  /// rollback path of §4.4.2 (bottom layer contradicted the top layer).
  /// Returns the number of updates discarded.
  std::size_t rollback_to(SimTime t);

  /// The extended version vector describing this replica.
  [[nodiscard]] const vv::ExtendedVersionVector& evv() const { return evv_; }

  /// Shared immutable copy of the EVV for zero-copy message bodies: every
  /// probe/reply/scan between two replica mutations refcounts one
  /// allocation instead of copying the stamp lists per message.  Rebuilt
  /// lazily after any mutation (updates, invalidation, rollback, triple).
  [[nodiscard]] const std::shared_ptr<const vv::ExtendedVersionVector>&
  evv_snapshot() const {
    if (snapshot_ == nullptr) {
      snapshot_ = std::make_shared<const vv::ExtendedVersionVector>(evv_);
    }
    return snapshot_;
  }

  /// Attach a freshly computed error triple (done by the detection layer).
  void set_triple(const vv::TactTriple& t) {
    evv_.set_triple(t);
    snapshot_.reset();
  }

  /// Updates in canonical display order (what a reader sees), copied.
  [[nodiscard]] std::vector<Update> ordered_contents() const {
    return buffer_ == nullptr ? std::vector<Update>{} : *buffer_;
  }

  /// The current contents as an immutable canonical-order view: a prefix
  /// of the store's buffer, so taking one is O(1).  Held views stay valid
  /// and unchanged after later mutations.
  [[nodiscard]] ContentsView contents() const {
    return ContentsView(buffer_, update_count());
  }

  /// contents() shared: every read between two mutations refcounts one
  /// view object; any content mutation (updates, invalidation, rollback)
  /// starts a new one.
  [[nodiscard]] const std::shared_ptr<const ContentsView>& contents_snapshot()
      const {
    if (view_ == nullptr) {
      view_ = std::make_shared<const ContentsView>(contents());
    }
    return view_;
  }

  /// Order-sensitive digest of the canonical contents; equal digests mean
  /// replicas converged byte-for-byte.  Used heavily by convergence tests.
  [[nodiscard]] std::uint64_t content_digest() const;

  /// Current critical meta-data value (sum of live meta_deltas).
  [[nodiscard]] double meta_value() const { return evv_.meta(); }

  [[nodiscard]] std::size_t update_count() const {
    return buffer_ == nullptr ? 0 : buffer_->size();
  }
  [[nodiscard]] std::uint64_t local_seq() const { return local_seq_; }

  /// Monotone count of content mutations (every apply/invalidate/rollback
  /// that changed what a reader would see).  The incremental checkpoint
  /// engine's dirty test: a replica whose mutation_count is unchanged
  /// since the last checkpoint epoch has nothing new to persist.
  [[nodiscard]] std::uint64_t mutation_count() const {
    return mutation_count_;
  }

 private:
  using Buffer = std::vector<Update>;

  /// Buffer index of `key`, or npos when it is not held.
  [[nodiscard]] std::size_t position_of(const UpdateKey& key) const;
  /// Buffer index of held update `key`, stamped `stamp`.
  [[nodiscard]] std::size_t locate(const UpdateKey& key, SimTime stamp) const;
  /// Place `u` at its canonical position (recording it in the EVV and the
  /// meta sum); returns its index.
  std::size_t insert(Update u);
  /// Take sole ownership of the buffer before an in-place change of the
  /// first `keep` updates, copying them if a live view shares it.
  Buffer& own_buffer(std::size_t keep);
  /// Flag the update at `pos` invalidated (it must be live).
  void mark_invalidated(std::size_t pos);
  /// Add or remove `u`'s contribution to the meta sum.
  void count_meta(const Update& u, bool add);
  /// The key-ordered left fold of live meta deltas.
  [[nodiscard]] double fold_meta() const;
  /// Bookkeeping after every content mutation: publish the meta value,
  /// bump mutation_count and drop the shared snapshots.
  void mutated();
  /// The dense per-writer invariant (checked in assert builds).
  [[nodiscard]] bool dense() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  NodeId node_;
  FileId file_;
  std::uint64_t local_seq_ = 0;
  std::uint64_t mutation_count_ = 0;
  /// The log in canonical order; allocated on the first update.  Shared
  /// with every live ContentsView, which reads only its own prefix.
  std::shared_ptr<Buffer> buffer_;
  std::map<UpdateKey, Update> pending_;  ///< Reorder buffer.
  std::vector<UpdateKey> invalidated_;   ///< Sorted.
  /// Running meta sum over live updates whose delta is a small integer
  /// (exact in int64), Σ|delta| over them, and how many live deltas are
  /// not small integers.  While the latter is 0 and Σ|delta| < 2^53 every
  /// partial sum is exact in a double, so the running sum equals the
  /// key-ordered fold bit for bit; otherwise the fold is recomputed.
  std::int64_t meta_sum_ = 0;
  std::uint64_t meta_abs_ = 0;
  std::size_t meta_inexact_ = 0;
  vv::ExtendedVersionVector evv_;
  mutable std::shared_ptr<const vv::ExtendedVersionVector> snapshot_;
  mutable std::shared_ptr<const ContentsView> view_;
};

}  // namespace idea::replica
