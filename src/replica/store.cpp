#include "replica/store.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace idea::replica {
namespace {

/// Integral deltas up to this magnitude join the exact running sum, so
/// Σ|delta| cannot overflow 64 bits before a log holds 2^32 updates.
constexpr double kMaxExactDelta = 4294967296.0;  // 2^32
/// Below this Σ|delta| every partial sum of live deltas, in any order, is
/// an integer a double holds exactly.
constexpr std::uint64_t kExactSumLimit = std::uint64_t{1} << 53;

bool exact_delta(double d) {
  // NaN and infinities fail the magnitude test.
  return std::fabs(d) <= kMaxExactDelta && d == std::trunc(d);
}

/// Canonical position of an update: what CanonicalOrder compares.
struct CanonicalKey {
  SimTime stamp;
  UpdateKey key;
};

bool before(const Update& u, const CanonicalKey& k) {
  if (u.stamp != k.stamp) return u.stamp < k.stamp;
  return u.key < k.key;
}

}  // namespace

const Update& ReplicaStore::apply_local(SimTime local_now,
                                        std::string content,
                                        double meta_delta) {
  Update u;
  u.key = UpdateKey{node_, ++local_seq_};
  u.file = file_;
  u.stamp = local_now;
  u.content = std::move(content);
  u.meta_delta = meta_delta;
  const std::size_t pos = insert(std::move(u));
  mutated();
  return (*buffer_)[pos];
}

bool ReplicaStore::apply_remote(const Update& u) {
  assert(u.file == file_);
  const std::uint64_t known = evv_.count_of(u.key.writer);
  if (u.key.seq <= known) return true;  // held: histories are dense
  if (u.key.seq > known + 1) {
    // A predecessor is still in flight; park this update until it lands.
    pending_.emplace(u.key, u);
    return false;
  }
  insert(u);
  if (u.key.writer == node_ && u.key.seq > local_seq_) {
    local_seq_ = u.key.seq;  // rejoining after rollback of our own state
  }
  // Drain any parked successors that are now applicable.
  for (auto it = pending_.find(UpdateKey{u.key.writer, u.key.seq + 1});
       it != pending_.end() &&
       it->first.writer == u.key.writer &&
       it->first.seq == evv_.count_of(u.key.writer) + 1;
       it = pending_.find(
           UpdateKey{u.key.writer, evv_.count_of(u.key.writer) + 1})) {
    if (it->first.writer == node_ && it->first.seq > local_seq_) {
      local_seq_ = it->first.seq;
    }
    insert(std::move(it->second));
    pending_.erase(it);
  }
  mutated();
  return true;
}

std::size_t ReplicaStore::locate(const UpdateKey& key, SimTime stamp) const {
  const auto it = std::lower_bound(buffer_->begin(), buffer_->end(),
                                   CanonicalKey{stamp, key}, before);
  assert(it != buffer_->end() && it->key == key);
  return static_cast<std::size_t>(it - buffer_->begin());
}

std::size_t ReplicaStore::position_of(const UpdateKey& key) const {
  if (!has(key)) return npos;
  return locate(key, evv_.stamp_of(key.writer, key.seq));
}

const Update* ReplicaStore::find(const UpdateKey& key) const {
  const std::size_t pos = position_of(key);
  return pos == npos ? nullptr : &(*buffer_)[pos];
}

std::size_t ReplicaStore::insert(Update u) {
  evv_.record_update(u.key.writer, u.stamp, 0.0);
  count_meta(u, true);
  if (u.invalidated) {
    invalidated_.insert(
        std::upper_bound(invalidated_.begin(), invalidated_.end(), u.key),
        u.key);
  }
  view_.reset();
  if (buffer_ == nullptr) buffer_ = std::make_shared<Buffer>();
  Buffer& b = *buffer_;
  const std::size_t size = b.size();
  // The common case — the newest stamp — lands at the tail.
  const std::size_t pos =
      size == 0 || CanonicalOrder{}(b.back(), u)
          ? size
          : static_cast<std::size_t>(
                std::upper_bound(b.begin(), b.end(), u, CanonicalOrder{}) -
                b.begin());
  const bool shared = buffer_.use_count() > 1;
  if (pos == size && (!shared || size < b.capacity())) {
    // Views read only their own prefix, so a tail append within capacity
    // is invisible to them even while they share the buffer.
    b.push_back(std::move(u));
  } else if (!shared) {
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos), std::move(u));
  } else {
    // A live view holds the buffer: build the successor beside it.
    auto fresh = std::make_shared<Buffer>();
    fresh->reserve(size < b.capacity() ? b.capacity() : 2 * size);
    fresh->insert(fresh->end(), b.begin(),
                  b.begin() + static_cast<std::ptrdiff_t>(pos));
    fresh->push_back(std::move(u));
    fresh->insert(fresh->end(), b.begin() + static_cast<std::ptrdiff_t>(pos),
                  b.end());
    buffer_ = std::move(fresh);
  }
  return pos;
}

ReplicaStore::Buffer& ReplicaStore::own_buffer(std::size_t keep) {
  view_.reset();
  if (buffer_.use_count() > 1) {
    auto fresh = std::make_shared<Buffer>();
    fresh->reserve(buffer_->capacity());
    fresh->assign(buffer_->begin(),
                  buffer_->begin() + static_cast<std::ptrdiff_t>(keep));
    buffer_ = std::move(fresh);
  }
  return *buffer_;
}

std::vector<Update> ReplicaStore::updates_ahead_of(
    const vv::VersionVector& peer_counts) const {
  std::vector<Update> out;
  // Writers in id order, each's missing suffix in seq order: the batch
  // comes out in key order, so receivers apply histories in seq order.
  for (const auto& [writer, stamps] : evv_.histories()) {
    for (std::uint64_t seq = peer_counts.get(writer) + 1;
         seq <= stamps.size(); ++seq) {
      out.push_back(
          (*buffer_)[locate(UpdateKey{writer, seq}, stamps[seq - 1])]);
    }
  }
  return out;
}

ReplicaStore::StalenessProbe ReplicaStore::staleness_ahead_of(
    const vv::VersionVector& peer_counts) const {
  StalenessProbe probe;
  for (const auto& [writer, stamps] : evv_.histories()) {
    const std::uint64_t have = peer_counts.get(writer);
    if (have >= stamps.size()) continue;
    // A writer's stamps never decrease: its oldest missing update is the
    // first one the peer lacks.
    const SimTime oldest = stamps[have];
    if (probe.versions == 0 || oldest < probe.oldest_stamp) {
      probe.oldest_stamp = oldest;
    }
    probe.versions += stamps.size() - have;
  }
  return probe;
}

ReplicaStore::ImportReport ReplicaStore::import_log(
    std::span<const Update> updates) {
  ImportReport report;
  const std::size_t before_count = update_count();
  for (const Update& u : updates) {
    const std::size_t pos = position_of(u.key);
    if (pos == npos) {
      apply_remote(u);
    } else if (u.invalidated && !(*buffer_)[pos].invalidated) {
      mark_invalidated(pos);
      ++report.invalidation_merges;
    } else {
      ++report.duplicates;
    }
  }
  assert(dense());
  // An exported log is per-writer complete, so nothing from this batch
  // stays parked in the reorder buffer; the size delta also counts any
  // previously parked successors the batch unblocked.
  report.applied = update_count() - before_count;
  return report;
}

bool ReplicaStore::invalidate(const UpdateKey& key) {
  const std::size_t pos = position_of(key);
  if (pos == npos) return false;
  if (!(*buffer_)[pos].invalidated) mark_invalidated(pos);
  return true;
}

void ReplicaStore::mark_invalidated(std::size_t pos) {
  Update& u = own_buffer(update_count())[pos];
  count_meta(u, false);
  u.invalidated = true;
  invalidated_.insert(
      std::upper_bound(invalidated_.begin(), invalidated_.end(), u.key),
      u.key);
  mutated();
}

bool ReplicaStore::is_invalidated(const UpdateKey& key) const {
  return std::binary_search(invalidated_.begin(), invalidated_.end(), key);
}

std::size_t ReplicaStore::rollback_to(SimTime t) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.stamp > t) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (buffer_ == nullptr) return 0;
  // Canonical order is by stamp first, so stamp > t is a buffer suffix —
  // and, stamps never decreasing per writer, a suffix of every writer's
  // history, so the dense invariant survives.
  const auto cut = static_cast<std::size_t>(
      std::upper_bound(buffer_->begin(), buffer_->end(), t,
                       [](SimTime x, const Update& u) { return x < u.stamp; }) -
      buffer_->begin());
  const std::size_t dropped = update_count() - cut;
  if (dropped == 0) return 0;
  for (std::size_t i = cut; i < buffer_->size(); ++i) {
    count_meta((*buffer_)[i], false);
  }
  Buffer& b = own_buffer(cut);
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(cut), b.end());
  evv_.drop_after(t);
  std::erase_if(invalidated_, [&](const UpdateKey& k) { return !has(k); });
  local_seq_ = evv_.count_of(node_);
  mutated();
  assert(dense());
  return dropped;
}

std::uint64_t ReplicaStore::content_digest() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ file_;
  if (buffer_ == nullptr) return h;
  for (const Update& u : *buffer_) {
    if (u.invalidated) continue;
    h = mix64(h ^ u.key.writer);
    h = mix64(h ^ u.key.seq);
    h = mix64(h ^ static_cast<std::uint64_t>(u.stamp));
    for (char c : u.content) h = mix64(h ^ static_cast<std::uint8_t>(c));
  }
  return h;
}

void ReplicaStore::count_meta(const Update& u, bool add) {
  if (u.invalidated) return;
  if (!exact_delta(u.meta_delta)) {
    if (add) {
      ++meta_inexact_;
    } else {
      --meta_inexact_;
    }
    return;
  }
  const auto d = static_cast<std::int64_t>(u.meta_delta);
  const auto magnitude = static_cast<std::uint64_t>(d < 0 ? -d : d);
  if (add) {
    meta_sum_ += d;
    meta_abs_ += magnitude;
  } else {
    meta_sum_ -= d;
    meta_abs_ -= magnitude;
  }
}

double ReplicaStore::fold_meta() const {
  std::vector<const Update*> live;
  if (buffer_ != nullptr) {
    for (const Update& u : *buffer_) {
      if (!u.invalidated) live.push_back(&u);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const Update* a, const Update* b) { return a->key < b->key; });
  double meta = 0.0;
  for (const Update* u : live) meta += u->meta_delta;
  return meta;
}

void ReplicaStore::mutated() {
  ++mutation_count_;
  evv_.set_meta(meta_inexact_ == 0 && meta_abs_ < kExactSumLimit
                    ? static_cast<double>(meta_sum_)
                    : fold_meta());
  // Every content mutation funnels through here; drop the shared message
  // and read-view snapshots so the next send/read sees the new state.
  snapshot_.reset();
  view_.reset();
}

bool ReplicaStore::dense() const {
  std::map<NodeId, std::uint64_t> held;
  if (buffer_ != nullptr) {
    for (const Update& u : *buffer_) {
      if (u.key.seq < 1 || u.key.seq > evv_.count_of(u.key.writer)) {
        return false;
      }
      ++held[u.key.writer];
    }
  }
  if (held.size() != evv_.writer_count()) return false;
  for (const auto& [writer, count] : held) {
    if (count != evv_.count_of(writer)) return false;
  }
  return true;
}

}  // namespace idea::replica
