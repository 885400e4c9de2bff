/// \file quiescence_test.cpp
/// \brief Ring-managed replica groups run the lean group stack: no RanSub,
///        no gossip, and a detection timer that parks once a file is idle.
///
/// After a clean round (no conflict, every probed peer replied, nothing
/// happened since the previous round) a group member cancels its periodic
/// detection timer, so an idle file costs no messages and no timer events.
/// Each way the replica's state can move re-arms it: a local write, an
/// ingested push, repair or migration stream, a brand-new stack, and an
/// inbound probe whose EVV counts differ from the replica's own.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::shard {
namespace {

constexpr FileId kFile = 5;
constexpr SimDuration kPeriod = sec(1);

ShardedClusterConfig quiet_config(std::uint64_t seed) {
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{10, 10, 10};
  cfg.idea.detection_period = kPeriod;
  // Nothing heals a divergence behind the test's back.
  cfg.anti_entropy_period = 0;
  return cfg;
}

std::uint64_t sent(ShardedCluster& cluster, const char* prefix) {
  return cluster.batching()->counters().messages_with_prefix(prefix);
}

/// No live rank of `file` has a detection timer pending.
bool parked(ShardedCluster& cluster, FileId file) {
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    core::IdeaNode* node = cluster.replica_at_rank(file, rank);
    if (node != nullptr && node->detection_armed()) return false;
  }
  return true;
}

bool armed(ShardedCluster& cluster, FileId file, std::uint32_t rank) {
  core::IdeaNode* node = cluster.replica_at_rank(file, rank);
  return node != nullptr && node->detection_armed();
}

/// Run until every rank of `file` parked; false if that takes longer
/// than `limit`.
bool run_until_parked(ShardedCluster& cluster, FileId file,
                      SimDuration limit = 10 * kPeriod) {
  for (SimDuration t = 0; t < limit; t += msec(100)) {
    if (parked(cluster, file)) return true;
    cluster.run_for(msec(100));
  }
  return parked(cluster, file);
}

/// Apply an update straight into rank 0's store: the state moves without
/// any of the re-arm triggers firing.
replica::Update silent_update(ShardedCluster& cluster, FileId file,
                              const std::string& content) {
  core::IdeaNode* coord = cluster.replica_at_rank(file, 0);
  const NodeId endpoint = cluster.members_of(file)->front();
  coord->store().apply_local(cluster.transport().local_time(endpoint),
                             content, 1.0);
  return coord->store().export_log().back();
}

TEST(QuiescenceTest, GroupStackRunsNoOverlay) {
  ShardedCluster cluster(quiet_config(31));
  cluster.place(1, 20);
  client::ClientSession session(cluster, {});
  for (FileId f = 1; f <= 20; ++f) {
    ASSERT_TRUE(session.put(f, "v" + std::to_string(f), 1.0).ok());
  }
  cluster.run_for(20 * kPeriod);
  EXPECT_EQ(sent(cluster, "gossip."), 0u);
  EXPECT_EQ(sent(cluster, "ransub."), 0u);
  EXPECT_GT(sent(cluster, "detect."), 0u);
  core::IdeaNode* node = cluster.replica_at_rank(1, 1);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->top_layer(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(QuiescenceTest, IdleFileParksAfterFirstCleanRound) {
  ShardedCluster cluster(quiet_config(32));
  cluster.ensure_open(kFile);
  ASSERT_TRUE(armed(cluster, kFile, 0));  // a new stack starts armed
  // The first round of an empty, consistent group is clean.
  ASSERT_TRUE(run_until_parked(cluster, kFile, 2 * kPeriod + msec(500)));
  EXPECT_DOUBLE_EQ(cluster.router().level(kFile), 1.0);

  const std::uint64_t detect = sent(cluster, "detect.");
  const std::uint64_t total = cluster.batching()->stats().logical_messages;
  cluster.run_for(10 * kPeriod);
  EXPECT_EQ(sent(cluster, "gossip."), 0u);
  EXPECT_EQ(sent(cluster, "ransub."), 0u);
  EXPECT_EQ(sent(cluster, "detect."), detect);
  EXPECT_EQ(cluster.batching()->stats().logical_messages, total);
  EXPECT_TRUE(parked(cluster, kFile));
  // The parked coordinator keeps serving its last (clean) level.
  EXPECT_DOUBLE_EQ(cluster.router().level(kFile), 1.0);
}

TEST(QuiescenceTest, SessionPutRearmsAndParksAgain) {
  ShardedCluster cluster(quiet_config(33));
  cluster.ensure_open(kFile);
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  const std::uint64_t detect = sent(cluster, "detect.");

  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "x", 1.0).ok());
  EXPECT_TRUE(armed(cluster, kFile, 0));  // the local write
  cluster.run_for(kPeriod / 2);
  // The pushes landed: the other ranks re-armed on ingest.
  EXPECT_TRUE(armed(cluster, kFile, 1));
  EXPECT_TRUE(armed(cluster, kFile, 2));
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  EXPECT_GT(sent(cluster, "detect."), detect);
  EXPECT_TRUE(cluster.converged(kFile));
}

TEST(QuiescenceTest, IngestedStreamRearms) {
  ShardedCluster cluster(quiet_config(34));
  cluster.ensure_open(kFile);
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  const std::uint64_t detect = sent(cluster, "detect.");

  const replica::Update u = silent_update(cluster, kFile, "streamed");
  EXPECT_TRUE(parked(cluster, kFile));
  ASSERT_EQ(cluster.sync_agent(kFile, 0)->stream_state({u}), 2u);
  cluster.run_for(kPeriod / 2);
  EXPECT_TRUE(armed(cluster, kFile, 1));
  EXPECT_TRUE(armed(cluster, kFile, 2));
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  EXPECT_GT(sent(cluster, "detect."), detect);
  EXPECT_TRUE(cluster.converged(kFile));
}

TEST(QuiescenceTest, AntiEntropyRepairRearms) {
  ShardedCluster cluster(quiet_config(35));
  cluster.ensure_open(kFile);
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  const std::uint64_t detect = sent(cluster, "detect.");

  silent_update(cluster, kFile, "repaired");
  ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  coord->anti_entropy_with(1);
  coord->anti_entropy_with(2);
  cluster.run_for(kPeriod / 2);
  EXPECT_GT(cluster.sync_agent(kFile, 1)->stats().repair_updates_applied,
            0u);
  EXPECT_TRUE(armed(cluster, kFile, 1));
  EXPECT_TRUE(armed(cluster, kFile, 2));
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  EXPECT_GT(sent(cluster, "detect."), detect);
  EXPECT_TRUE(cluster.converged(kFile));
}

TEST(QuiescenceTest, MigrationRearmsOnlyMovedGroups) {
  constexpr std::uint32_t kFiles = 40;
  ShardedCluster cluster(quiet_config(36));
  cluster.place(1, kFiles);
  client::ClientSession session(cluster, {});
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(session.put(f, "v" + std::to_string(f), 1.0).ok());
  }
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(run_until_parked(cluster, f)) << "file " << f;
  }
  std::vector<std::vector<NodeId>> before;
  for (FileId f = 1; f <= kFiles; ++f) {
    before.push_back(*cluster.members_of(f));
  }

  const MembershipChange change = cluster.add_endpoint();
  ASSERT_GT(change.files_migrated, 0u);
  std::size_t moved = 0;
  for (FileId f = 1; f <= kFiles; ++f) {
    if (*cluster.members_of(f) != before[f - 1]) {
      ++moved;
      // A fresh stack on every member of the new group.
      for (std::uint32_t rank = 0; rank < 3; ++rank) {
        EXPECT_TRUE(armed(cluster, f, rank)) << "file " << f;
      }
    } else {
      EXPECT_TRUE(parked(cluster, f)) << "file " << f;
    }
  }
  EXPECT_EQ(moved, change.files_migrated);
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(run_until_parked(cluster, f)) << "file " << f;
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
  }
}

TEST(QuiescenceTest, DivergentInboundProbeRearms) {
  ShardedCluster cluster(quiet_config(37));
  cluster.ensure_open(kFile);
  ASSERT_TRUE(run_until_parked(cluster, kFile));

  // A probe carrying the peers' own counts wakes nobody.
  cluster.replica_at_rank(kFile, 0)->probe();
  cluster.run_for(kPeriod / 2);
  EXPECT_TRUE(parked(cluster, kFile));

  // Once rank 0's counts differ, its probe re-arms both peers, and its
  // own round (a conflict) re-arms rank 0.
  silent_update(cluster, kFile, "diverged");
  cluster.replica_at_rank(kFile, 0)->probe();
  cluster.run_for(kPeriod / 2);
  EXPECT_TRUE(armed(cluster, kFile, 0));
  EXPECT_TRUE(armed(cluster, kFile, 1));
  EXPECT_TRUE(armed(cluster, kFile, 2));
  // Without anti-entropy the divergence persists, so nobody parks.
  cluster.run_for(5 * kPeriod);
  EXPECT_FALSE(parked(cluster, kFile));
  EXPECT_LT(cluster.replica_at_rank(kFile, 1)->current_level(), 1.0);
}

TEST(QuiescenceTest, WriteDuringACleanRoundKeepsTheTimerArmed) {
  ShardedCluster cluster(quiet_config(39));
  cluster.ensure_open(kFile);
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  core::IdeaNode* coord = cluster.replica_at_rank(kFile, 0);

  // Re-arm rank 0 alone.  Its first round follows the wake, so it does
  // not park; the second starts quiet and is in flight just after its
  // tick.
  coord->note_replica_activity();
  cluster.run_for(2 * kPeriod + msec(1));
  ASSERT_TRUE(armed(cluster, kFile, 0));
  // A local write that is never replicated lands mid-round.  The round
  // still gathers equal counts, but it must not park: nothing else would
  // ever notice that rank 0 moved.
  ASSERT_TRUE(coord->write("mid-round", 1.0));
  cluster.run_for(kPeriod / 2);
  EXPECT_TRUE(armed(cluster, kFile, 0));
  cluster.run_for(3 * kPeriod);
  EXPECT_TRUE(armed(cluster, kFile, 1));
  EXPECT_LT(cluster.replica_at_rank(kFile, 1)->current_level(), 1.0);
}

TEST(QuiescenceTest, LevelProbeDropsWhenRanksDivergeUnderLoss) {
  ShardedCluster cluster(quiet_config(38));
  cluster.ensure_open(kFile);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "base", 1.0).ok());
  ASSERT_TRUE(run_until_parked(cluster, kFile));
  ASSERT_DOUBLE_EQ(cluster.router().level(kFile), 1.0);

  // Under a full-loss window ranks 1 and 2 each apply a write nobody else
  // receives: the ranks are concurrent and rank 0 holds neither.
  const SimTime now = cluster.sim().now();
  cluster.transport().add_drop_window(now, now + msec(300));
  ASSERT_TRUE(cluster.sync_agent(kFile, 1)->put("r1", 1.0));
  ASSERT_TRUE(cluster.sync_agent(kFile, 2)->put("r2", 1.0));
  EXPECT_FALSE(parked(cluster, kFile));
  EXPECT_FALSE(armed(cluster, kFile, 0));
  cluster.run_for(4 * kPeriod);
  // The writers' probes woke the coordinator, whose rounds see the
  // divergence: the controller's level probe drops.
  EXPECT_TRUE(armed(cluster, kFile, 0));
  EXPECT_LT(cluster.router().level(kFile), 1.0);
}

}  // namespace
}  // namespace idea::shard
