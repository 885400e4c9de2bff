#pragma once
/// \file conveyor.hpp
/// \brief Cross-worker packet pipeline: per-(segment,segment) batching of
///        messages, handed over at epoch boundaries.
///
/// This is the thread-tier mirror of net::BatchingTransport's per-pair
/// wire coalescing, patterned on the micmac0 node runtime's conveyor: a
/// message crossing segments is *accumulated* into the (src,dst) outbox
/// while the source's epoch task runs, *sealed* into that lane's packet
/// when the task ends, and *drained* by the destination's task at the
/// start of the next epoch.  Every structure is plain data, ordered by
/// the epoch barrier alone: each lane has two packet slots by epoch
/// parity.  Epoch E seals into slot E & 1 and drains slot (E - 1) & 1, so
/// a lane's producer and consumer never touch the same slot within an
/// epoch, and a slot is refilled only after the barrier that follows its
/// drain.
///
/// Cadence contract: every destination drains every epoch (the
/// ParallelSimulator runs every partition's begin_epoch in every batch),
/// so each lane carries at most one packet per epoch; seal() asserts the
/// slot it fills was drained.
///
/// Determinism contract: the destination drains sources in ascending
/// segment order and messages within a packet in post order.  None of
/// that depends on which worker thread ran which task, which is exactly
/// why a parallel run replays identically to the sequential oracle.

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace idea::runtime {

struct ConveyorStats {
  std::uint64_t messages = 0;  ///< Messages posted across all lanes.
  std::uint64_t packets = 0;   ///< Packets sealed.
  std::uint64_t drained = 0;   ///< Packets delivered.
  /// seal() waits on an undrained lane: 0 by construction, since a lane's
  /// slot is always drained the epoch after it is sealed.
  std::uint64_t lane_stalls = 0;
};

template <typename T>
class Conveyor {
 public:
  explicit Conveyor(std::uint32_t segments)
      : segments_(segments),
        outboxes_(static_cast<std::size_t>(segments) * segments),
        sealed_{outboxes_, outboxes_},
        stats_by_src_(segments) {}

  [[nodiscard]] std::uint32_t segments() const { return segments_; }

  /// Accumulate a message from src's running epoch task.  Only the thread
  /// executing src's task may call this.
  void post(std::uint32_t src, std::uint32_t dst, T msg) {
    outboxes_[lane_index(src, dst)].push_back(std::move(msg));
    ++stats_by_src_[src].messages;
  }

  /// Seal src's non-empty outboxes into one packet per destination,
  /// deliverable in epoch `epoch + 1`.  Called by src's task as it ends.
  void seal(std::uint32_t src, std::uint64_t epoch) {
    for (std::uint32_t dst = 0; dst < segments_; ++dst) {
      std::vector<T>& box = outboxes_[lane_index(src, dst)];
      if (box.empty()) continue;
      std::vector<T>& slot = sealed_[epoch & 1][lane_index(src, dst)];
      assert(slot.empty() &&
             "lane sealed twice without a drain: every destination must "
             "begin every epoch");
      ++stats_by_src_[src].packets;
      slot.swap(box);  // the drained slot's buffer becomes the outbox
    }
  }

  /// Deliver to dst the packets sealed in epoch `current - 1`, sources in
  /// ascending order.  Called by dst's task as it begins.  The handler
  /// receives (src segment, msgs).
  void drain(std::uint32_t dst, std::uint64_t current,
             const std::function<void(std::uint32_t, std::vector<T>&)>&
                 handler) {
    std::vector<std::vector<T>>& slots = sealed_[(current - 1) & 1];
    for (std::uint32_t src = 0; src < segments_; ++src) {
      std::vector<T>& slot = slots[lane_index(src, dst)];
      if (slot.empty()) continue;
      ++stats_by_src_[dst].drained;
      handler(src, slot);
      slot.clear();
    }
  }

  /// Whether every packet slot and outbox is empty.  Only meaningful
  /// between batches (at the barrier).
  [[nodiscard]] bool idle() const {
    for (std::size_t i = 0; i < outboxes_.size(); ++i) {
      if (!outboxes_[i].empty() || !sealed_[0][i].empty() ||
          !sealed_[1][i].empty()) {
        return false;
      }
    }
    return true;
  }

  /// Aggregate stats (sum over the per-segment shards; call at a barrier).
  [[nodiscard]] ConveyorStats stats() const {
    ConveyorStats total;
    for (const ConveyorStats& s : stats_by_src_) {
      total.messages += s.messages;
      total.packets += s.packets;
      total.drained += s.drained;
    }
    return total;
  }

 private:
  [[nodiscard]] std::size_t lane_index(std::uint32_t src,
                                       std::uint32_t dst) const {
    return static_cast<std::size_t>(src) * segments_ + dst;
  }

  const std::uint32_t segments_;
  /// Accumulators, row-owned: outboxes_[src*S+dst] is touched only by the
  /// thread running src's epoch task.
  std::vector<std::vector<T>> outboxes_;
  /// Sealed packets by epoch parity, indexed like outboxes_.
  std::array<std::vector<std::vector<T>>, 2> sealed_;
  /// Stats sharded by segment (writer: the thread running that segment's
  /// task; drained is accounted at the destination).  Aggregated lazily.
  std::vector<ConveyorStats> stats_by_src_;
};

}  // namespace idea::runtime
