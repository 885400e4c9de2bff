/// \file store_model_test.cpp
/// \brief Model-based property test: ReplicaStore against a reference
///        model of the plain map-log store it must behave like.
///
/// The store keeps its log as one canonical-order buffer with shared
/// prefix views, an incremental meta sum, an invalidation index and
/// per-writer suffix scans.  The reference below keeps the log as a
/// std::map keyed by (writer, seq) and recomputes everything from scratch:
/// contents by sorting, meta by the key-ordered left fold, scans by
/// walking the whole map.  Each seed drives both through the same random
/// operations — local writes, out-of-order remote applies from writers
/// with skewed clocks (so canonical inserts land mid-buffer), invalidation,
/// import_log batches and rollback, with integral and non-integral meta
/// deltas — and after every step checks that they agree exactly:
///
///  * canonical contents, content_digest, the extended version vector,
///    update/pending counts, local_seq and mutation_count;
///  * the meta value, bit for bit;
///  * find/has, updates_ahead_of and staleness_ahead_of for random peers,
///    invalidated_keys and export_log;
///  * every read view captured along the way still renders the digest it
///    had when it was taken.

#include "replica/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace idea::replica {
namespace {

constexpr int kSeeds = 2'000;
constexpr int kSteps = 60;
constexpr FileId kFile = 5;

/// The map-log store: every observable recomputed from the whole log.
class ReferenceStore {
 public:
  explicit ReferenceStore(NodeId node) : node_(node) {}

  Update apply_local(SimTime now, std::string content, double delta) {
    Update u;
    u.key = UpdateKey{node_, ++local_seq_};
    u.file = kFile;
    u.stamp = now;
    u.content = std::move(content);
    u.meta_delta = delta;
    log_.emplace(u.key, u);
    evv_.record_update(node_, u.stamp, 0.0);
    recompute_meta();
    return u;
  }

  bool apply_remote(const Update& u) {
    if (log_.count(u.key) > 0) return true;
    const std::uint64_t known = evv_.count_of(u.key.writer);
    if (u.key.seq > known + 1) {
      pending_.emplace(u.key, u);
      return false;
    }
    if (u.key.seq <= known) return true;
    add(u);
    for (auto it = pending_.find(UpdateKey{u.key.writer, u.key.seq + 1});
         it != pending_.end() &&
         it->first.seq == evv_.count_of(u.key.writer) + 1;
         it = pending_.find(
             UpdateKey{u.key.writer, evv_.count_of(u.key.writer) + 1})) {
      add(it->second);
      pending_.erase(it);
    }
    recompute_meta();
    return true;
  }

  ReplicaStore::ImportReport import_log(const std::vector<Update>& batch) {
    ReplicaStore::ImportReport report;
    const std::size_t before = log_.size();
    for (const Update& u : batch) {
      auto it = log_.find(u.key);
      if (it == log_.end()) {
        apply_remote(u);
      } else if (u.invalidated && !it->second.invalidated) {
        it->second.invalidated = true;
        recompute_meta();
        ++report.invalidation_merges;
      } else {
        ++report.duplicates;
      }
    }
    report.applied = log_.size() - before;
    return report;
  }

  bool invalidate(const UpdateKey& key) {
    auto it = log_.find(key);
    if (it == log_.end()) return false;
    if (!it->second.invalidated) {
      it->second.invalidated = true;
      recompute_meta();
    }
    return true;
  }

  std::size_t rollback_to(SimTime t) {
    std::erase_if(pending_, [&](const auto& e) { return e.second.stamp > t; });
    const std::size_t dropped =
        std::erase_if(log_, [&](const auto& e) { return e.second.stamp > t; });
    if (dropped > 0) {
      vv::ExtendedVersionVector fresh;
      for (const auto& [key, u] : log_) {
        fresh.record_update(key.writer, u.stamp, 0.0);
      }
      fresh.set_triple(evv_.triple());
      evv_ = std::move(fresh);
      local_seq_ = evv_.count_of(node_);
      recompute_meta();
    }
    return dropped;
  }

  std::vector<Update> ahead_of(const vv::VersionVector& peer) const {
    std::vector<Update> out;
    for (const auto& [key, u] : log_) {
      if (key.seq > peer.get(key.writer)) out.push_back(u);
    }
    return out;
  }

  ReplicaStore::StalenessProbe staleness(const vv::VersionVector& peer) const {
    ReplicaStore::StalenessProbe probe;
    for (const auto& [key, u] : log_) {
      if (key.seq <= peer.get(key.writer)) continue;
      if (probe.versions == 0 || u.stamp < probe.oldest_stamp) {
        probe.oldest_stamp = u.stamp;
      }
      ++probe.versions;
    }
    return probe;
  }

  std::vector<Update> ordered() const {
    std::vector<Update> out;
    for (const auto& [key, u] : log_) out.push_back(u);
    std::sort(out.begin(), out.end(), CanonicalOrder{});
    return out;
  }

  std::vector<UpdateKey> invalidated_keys() const {
    std::vector<UpdateKey> out;
    for (const auto& [key, u] : log_) {
      if (u.invalidated) out.push_back(key);
    }
    return out;
  }

  const std::map<UpdateKey, Update>& log() const { return log_; }
  const vv::ExtendedVersionVector& evv() const { return evv_; }
  std::size_t pending() const { return pending_.size(); }
  std::uint64_t local_seq() const { return local_seq_; }
  std::uint64_t mutations() const { return mutations_; }

 private:
  void add(const Update& u) {
    log_.emplace(u.key, u);
    evv_.record_update(u.key.writer, u.stamp, 0.0);
    if (u.key.writer == node_ && u.key.seq > local_seq_) {
      local_seq_ = u.key.seq;
    }
  }

  void recompute_meta() {
    ++mutations_;
    double meta = 0.0;
    for (const auto& [key, u] : log_) {
      if (!u.invalidated) meta += u.meta_delta;
    }
    evv_.set_meta(meta);
  }

  NodeId node_;
  std::uint64_t local_seq_ = 0;
  std::uint64_t mutations_ = 0;
  std::map<UpdateKey, Update> log_;
  std::map<UpdateKey, Update> pending_;
  vv::ExtendedVersionVector evv_;
};

/// content_digest's formula over any canonical-order sequence.
template <typename Range>
std::uint64_t digest_of(const Range& updates) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ kFile;
  for (const Update& u : updates) {
    if (u.invalidated) continue;
    h = mix64(h ^ u.key.writer);
    h = mix64(h ^ u.key.seq);
    h = mix64(h ^ static_cast<std::uint64_t>(u.stamp));
    for (char c : u.content) h = mix64(h ^ static_cast<std::uint8_t>(c));
  }
  return h;
}

bool same_update(const Update& a, const Update& b) {
  return a.key == b.key && a.file == b.file && a.stamp == b.stamp &&
         a.content == b.content &&
         std::memcmp(&a.meta_delta, &b.meta_delta, sizeof(double)) == 0 &&
         a.invalidated == b.invalidated;
}

template <typename RangeA, typename RangeB>
bool same_updates(const RangeA& a, const RangeB& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), same_update);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Meta deltas: mostly small integers (the running-sum path), sometimes
/// prices, negative zero or magnitudes beyond the exact-sum range.
double draw_delta(Rng& rng, bool integral_only) {
  const double r = rng.uniform01();
  if (integral_only || r < 0.70) {
    return static_cast<double>(rng.uniform_int(-3, 9));
  }
  if (r < 0.85) return static_cast<double>(rng.uniform_int(1, 9999)) / 100.0;
  if (r < 0.90) return -0.0;
  if (r < 0.95) return 0.1 * static_cast<double>(rng.uniform_int(1, 7));
  return static_cast<double>(rng.uniform_int(1, 4)) * 4503599627370496.0;
}

/// Remote writers' full histories: the updates the store may learn.
struct Universe {
  std::vector<SimDuration> skew;              ///< Per writer (0 = subject).
  std::vector<std::vector<Update>> history;   ///< Per writer, seq order.
};

struct Captured {
  std::shared_ptr<const ContentsView> view;
  std::uint64_t digest;
};

void check_agree(const ReplicaStore& s, const ReferenceStore& ref,
                 const Universe& world, Rng& rng, int seed, int step) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
  const std::vector<Update> ordered = ref.ordered();
  ASSERT_TRUE(same_updates(*s.contents_snapshot(), ordered));
  ASSERT_TRUE(same_updates(s.ordered_contents(), ordered));
  ASSERT_EQ(s.content_digest(), digest_of(ordered));
  ASSERT_TRUE(same_bits(s.meta_value(), ref.evv().meta()))
      << s.meta_value() << " vs " << ref.evv().meta();
  ASSERT_TRUE(s.evv() == ref.evv());
  ASSERT_EQ(s.update_count(), ref.log().size());
  ASSERT_EQ(s.pending_remote(), ref.pending());
  ASSERT_EQ(s.local_seq(), ref.local_seq());
  ASSERT_EQ(s.mutation_count(), ref.mutations());
  ASSERT_EQ(s.invalidated_keys(), ref.invalidated_keys());
  std::vector<Update> reference_log;
  for (const auto& [key, u] : ref.log()) reference_log.push_back(u);
  ASSERT_TRUE(same_updates(s.export_log(), reference_log));

  // Keyed lookups: held keys, keys past a writer's count, unknown writers.
  const auto writers = static_cast<std::int64_t>(world.history.size());
  for (int probe = 0; probe < 6; ++probe) {
    const UpdateKey key{static_cast<NodeId>(rng.uniform_int(0, writers)),
                        static_cast<std::uint64_t>(rng.uniform_int(0, 12))};
    const auto it = ref.log().find(key);
    ASSERT_EQ(s.has(key), it != ref.log().end());
    const Update* held = s.find(key);
    ASSERT_EQ(held != nullptr, it != ref.log().end());
    if (held != nullptr) {
      ASSERT_TRUE(same_update(*held, it->second));
    }
    ASSERT_EQ(s.is_invalidated(key),
              it != ref.log().end() && it->second.invalidated);
  }

  // Peers at random counts, including writers the store has never seen.
  for (int probe = 0; probe < 3; ++probe) {
    vv::VersionVector peer;
    for (NodeId w = 0; w <= world.history.size(); ++w) {
      if (rng.chance(0.3)) continue;
      peer.set(w, static_cast<std::uint64_t>(rng.uniform_int(0, 10)));
    }
    ASSERT_TRUE(same_updates(s.updates_ahead_of(peer), ref.ahead_of(peer)));
    const ReplicaStore::StalenessProbe got = s.staleness_ahead_of(peer);
    const ReplicaStore::StalenessProbe want = ref.staleness(peer);
    ASSERT_EQ(got.versions, want.versions);
    if (want.versions > 0) {
      ASSERT_EQ(got.oldest_stamp, want.oldest_stamp);
    }
  }
}

/// One seed: a random operation sequence against both stores.
void run_seed(int seed) {
  Rng rng(0x5703'E000ULL + static_cast<std::uint64_t>(seed));
  const bool integral_only = rng.chance(0.4);
  Universe world;
  const auto writers = static_cast<std::size_t>(rng.uniform_int(2, 4));
  for (std::size_t w = 0; w < writers; ++w) {
    world.skew.push_back(msec(rng.uniform_int(-400, 400)));
  }
  world.history.resize(writers);

  ReplicaStore s(0, kFile);
  ReferenceStore ref(0);
  std::vector<Captured> captured;
  SimTime now = sec(1);

  for (int step = 0; step < kSteps; ++step) {
    now += msec(rng.uniform_int(0, 120));
    const double op = rng.uniform01();
    if (op < 0.22) {
      // Local write from the subject's own (skewed) clock.
      const std::string content = "L" + std::to_string(step);
      const double delta = draw_delta(rng, integral_only);
      const SimTime stamp = now + world.skew[0];
      const Update& got = s.apply_local(stamp, content, delta);
      const Update want = ref.apply_local(stamp, content, delta);
      ASSERT_TRUE(same_update(got, want)) << "seed " << seed;
    } else if (op < 0.55) {
      // A remote writer issues an update; the store learns a random one
      // of that writer's updates (ahead of its count, a duplicate, or the
      // next in line), so arrivals reorder and park.
      const auto w = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(writers) - 1));
      std::vector<Update>& h = world.history[w];
      if (h.empty() || rng.chance(0.6)) {
        Update u;
        u.key = UpdateKey{static_cast<NodeId>(w), h.size() + 1};
        u.file = kFile;
        u.stamp = now + world.skew[w];
        u.content = "R" + std::to_string(w) + "." + std::to_string(step);
        u.meta_delta = draw_delta(rng, integral_only);
        h.push_back(std::move(u));
      }
      const Update& u = h[static_cast<std::size_t>(rng.next_below(h.size()))];
      ASSERT_EQ(s.apply_remote(u), ref.apply_remote(u)) << "seed " << seed;
    } else if (op < 0.67) {
      // Invalidate a held or unknown key.
      const UpdateKey key{
          static_cast<NodeId>(
              rng.uniform_int(0, static_cast<std::int64_t>(writers) - 1)),
          static_cast<std::uint64_t>(rng.uniform_int(1, 8))};
      ASSERT_EQ(s.invalidate(key), ref.invalidate(key)) << "seed " << seed;
    } else if (op < 0.82) {
      // A shuffled import batch: remote histories (some flagged) or this
      // store's own export with extra flags OR'd in.
      std::vector<Update> batch;
      if (rng.chance(0.3)) {
        batch = s.export_log();
      } else {
        for (const auto& h : world.history) {
          for (const Update& u : h) {
            if (rng.chance(0.5)) batch.push_back(u);
          }
        }
      }
      for (Update& u : batch) {
        if (rng.chance(0.1)) u.invalidated = true;
      }
      rng.shuffle(batch);
      const ReplicaStore::ImportReport got = s.import_log(batch);
      const ReplicaStore::ImportReport want = ref.import_log(batch);
      ASSERT_EQ(got.applied, want.applied) << "seed " << seed;
      ASSERT_EQ(got.duplicates, want.duplicates) << "seed " << seed;
      ASSERT_EQ(got.invalidation_merges, want.invalidation_merges)
          << "seed " << seed;
    } else if (op < 0.88) {
      // Roll back to a recent point (possibly before everything).
      const SimTime t = now - msec(rng.uniform_int(0, 1500));
      ASSERT_EQ(s.rollback_to(t), ref.rollback_to(t)) << "seed " << seed;
    } else {
      // Pin a read view; occasionally release an old one.
      const auto& view = s.contents_snapshot();
      captured.push_back(Captured{view, digest_of(*view)});
      if (captured.size() > 6) {
        captured.erase(captured.begin() +
                       static_cast<std::ptrdiff_t>(
                           rng.next_below(captured.size())));
      }
    }
    check_agree(s, ref, world, rng, seed, step);
    if (testing::Test::HasFatalFailure()) return;
    for (const Captured& c : captured) {
      ASSERT_EQ(digest_of(*c.view), c.digest)
          << "seed " << seed << " step " << step
          << ": a held view changed under a later mutation";
    }
  }
}

TEST(ReplicaStoreModel, MatchesMapReferenceAcrossSeeds) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    run_seed(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(ReplicaStoreModel, NonIntegralMetaFollowsTheKeyOrderedFold) {
  // 0.1 + 0.2 + 0.4 rounds differently in key order than in arrival
  // order, so only a true fold in (writer, seq) order matches.
  ReplicaStore s(0, kFile);
  s.apply_local(sec(1), "a", 0.1);
  Update remote;
  remote.key = UpdateKey{1, 1};
  remote.file = kFile;
  remote.stamp = sec(2);
  remote.content = "r";
  remote.meta_delta = 0.4;
  s.apply_remote(remote);
  s.apply_local(sec(3), "b", 0.2);
  const double fold = (0.1 + 0.2) + 0.4;
  ASSERT_NE(fold, (0.1 + 0.4) + 0.2);
  EXPECT_TRUE(same_bits(s.meta_value(), fold));

  // Invalidating the inexact deltas returns to the exact integer sum.
  s.apply_local(sec(4), "c", 7.0);
  ASSERT_TRUE(s.invalidate(UpdateKey{0, 1}));
  ASSERT_TRUE(s.invalidate(UpdateKey{0, 2}));
  EXPECT_TRUE(same_bits(s.meta_value(), 0.4 + 7.0));
  ASSERT_TRUE(s.invalidate(UpdateKey{1, 1}));
  EXPECT_TRUE(same_bits(s.meta_value(), 7.0));

  // Integral deltas whose magnitudes sum past 2^53 leave the exact range
  // and fold too; rolling them back restores the running sum.
  const double big = 4503599627370496.0;  // 2^52
  s.apply_local(sec(5), "d", big);
  s.apply_local(sec(6), "e", big + 1.0);
  EXPECT_TRUE(same_bits(s.meta_value(), ((7.0 + big) + (big + 1.0))));
  EXPECT_EQ(s.rollback_to(sec(4)), 2u);
  EXPECT_TRUE(same_bits(s.meta_value(), 7.0));
}

TEST(ReplicaStoreModel, PinnedViewsReadSafelyWhileTheOwnerAppends) {
  // Tail appends write in place while views share the buffer (within its
  // capacity); a view reads only its own prefix, so another thread may
  // walk a pinned view while the owner keeps writing.  Under TSan this
  // is the data-race check of that contract.
  ReplicaStore s(0, kFile);
  for (int i = 0; i < 50; ++i) {
    s.apply_local(sec(1) + i, std::to_string(i), 1.0);
  }
  const std::shared_ptr<const ContentsView> pinned = s.contents_snapshot();
  const std::uint64_t expected = digest_of(*pinned);
  std::uint64_t mismatches = 0;
  std::thread reader([&] {
    for (int round = 0; round < 200; ++round) {
      if (digest_of(*pinned) != expected) ++mismatches;
    }
  });
  for (int i = 50; i < 2000; ++i) {
    s.apply_local(sec(1) + i, std::to_string(i), 1.0);
    if (i % 64 == 0) (void)s.contents_snapshot();  // more sharers
  }
  reader.join();
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(pinned->size(), 50u);
  EXPECT_EQ(s.update_count(), 2000u);
}

}  // namespace
}  // namespace idea::replica
