/// \file crash_recovery_test.cpp
/// \brief Crash-stop/restart fault model end to end: durable checkpoint
///        engines, delta-based recovery via anti-entropy, and routing
///        failover while members are down.
///
/// The acceptance scenario crashes k-1 of a file's replicas mid-workload
/// under scripted loss, restarts them, and demands byte-identical content
/// digests against a never-crashed control run of the same seed — crash
/// and recovery must be invisible in the converged state.  A second
/// scenario pins the O(delta) property: with a durable checkpoint the
/// restarted replica heals only the checkpoint→crash gap over the wire,
/// while the no-checkpoint control re-streams the whole log.  Two more
/// pin the group lifecycle around a dark slot: with rank 0 down, the
/// controller's level probe and bounded-read replica selection follow
/// the acting coordinator, and closing a group with a crashed member and
/// a parked hint leaves nothing behind for the restart to rebuild.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::shard {
namespace {

constexpr SimDuration kAePeriod = msec(500);

ShardedClusterConfig crash_config(std::uint64_t seed,
                                  replica::CheckpointEngineKind engine,
                                  double loss_rate) {
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.transport.loss_rate = loss_rate;
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{50, 50, 50};
  // On-demand mode, no hint: resolution never runs, so the converged
  // contents depend only on the writes — crashing and healing replicas
  // cannot change what the control run converges to.
  cfg.idea.controller.mode = core::AdaptiveMode::kOnDemand;
  cfg.idea.controller.hint = 0.0;
  cfg.anti_entropy_period = kAePeriod;
  cfg.checkpoint.engine = engine;
  cfg.checkpoint.period = sec(1);
  return cfg;
}

bool replicas_identical(ShardedCluster& cluster, FileId file) {
  core::IdeaNode* coord = cluster.replica_at_rank(file, 0);
  if (coord == nullptr) return false;
  const auto k = static_cast<std::uint32_t>(cluster.group_of(file).size());
  for (std::uint32_t rank = 1; rank < k; ++rank) {
    core::IdeaNode* node = cluster.replica_at_rank(file, rank);
    if (node == nullptr) return false;
    if (node->store().evv().counts() != coord->store().evv().counts()) {
      return false;
    }
    if (node->store().content_digest() != coord->store().content_digest()) {
      return false;
    }
  }
  return true;
}

int periods_to_convergence(ShardedCluster& cluster, FileId file,
                           int max_periods) {
  for (int period = 0; period <= max_periods; ++period) {
    if (replicas_identical(cluster, file)) return period;
    cluster.run_for(kAePeriod);
  }
  return -1;
}

TEST(CrashRecoveryTest, KillRestartMatchesNeverCrashedControlByteExactly) {
  // k-1 = 2 of the file's three replicas crash mid-workload (staggered,
  // overlapping) under probabilistic wire loss; both restart and recover
  // from durable checkpoints + anti-entropy.  The converged digests must
  // equal a control run that never crashed anything.
  static constexpr FileId kFile = 3;
  constexpr int kWrites = 40;
  constexpr std::uint64_t kSeed = 2026;

  CrashReport crash1, crash2;
  RecoveryReport rec1, rec2;
  auto run = [&](bool faulted) {
    auto cluster = std::make_unique<ShardedCluster>(crash_config(
        kSeed, replica::CheckpointEngineKind::kIncremental, 0.05));
    cluster->ensure_open(kFile);
    const std::vector<NodeId> group = cluster->group_of(kFile);
    auto session = std::make_shared<client::ClientSession>(
        *cluster, client::SessionOptions{});
    // Writes route to the rank-0 coordinator, which never crashes here,
    // so both runs issue the identical update sequence.
    for (int i = 1; i <= kWrites; ++i) {
      cluster->sim().schedule_at(msec(250) * i, [session, i] {
        ASSERT_TRUE(session->put(kFile, "w" + std::to_string(i), 1.0).ok());
      });
    }
    if (faulted) {
      ShardedCluster* c = cluster.get();
      cluster->sim().schedule_at(sec(3) + msec(100), [c, group, &crash1] {
        crash1 = c->crash_endpoint(group[1]);
      });
      cluster->sim().schedule_at(sec(5) + msec(100), [c, group, &crash2] {
        crash2 = c->crash_endpoint(group[2]);
      });
      cluster->sim().schedule_at(sec(7) + msec(50), [c, group, &rec1] {
        rec1 = c->restart_endpoint(group[1]);
      });
      cluster->sim().schedule_at(sec(8) + msec(50), [c, group, &rec2] {
        rec2 = c->restart_endpoint(group[2]);
      });
    }
    cluster->run_until(sec(12));
    return cluster;
  };

  auto faulted = run(true);
  ASSERT_EQ(crash1.endpoint, faulted->group_of(kFile)[1]);
  EXPECT_GE(crash1.groups_affected, 1u);
  EXPECT_GT(crash1.volatile_updates_lost, 0u);
  EXPECT_GE(rec1.files_recovered, 1u);
  EXPECT_GE(rec1.checkpoint_files, 1u);
  EXPECT_GT(rec1.checkpoint_updates, 0u);
  EXPECT_GT(rec2.checkpoint_updates, 0u);
  EXPECT_EQ(rec1.incarnation, 1u);  // second life of the slot
  EXPECT_FALSE(faulted->is_crashed(crash1.endpoint));
  EXPECT_GT(faulted->transport().fault_dropped(), 0u)
      << "the crash windows never dropped anything — the fault script "
         "did not bite";

  const int periods = periods_to_convergence(*faulted, kFile, 8);
  ASSERT_NE(periods, -1) << "replicas diverged after crash+restart";

  auto control = run(false);
  const int control_periods = periods_to_convergence(*control, kFile, 8);
  ASSERT_NE(control_periods, -1);

  core::IdeaNode* control_coord = control->replica_at_rank(kFile, 0);
  ASSERT_NE(control_coord, nullptr);
  EXPECT_EQ(control_coord->store().update_count(),
            static_cast<std::size_t>(kWrites));
  const std::uint64_t expected_digest =
      control_coord->store().content_digest();
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    core::IdeaNode* node = faulted->replica_at_rank(kFile, rank);
    ASSERT_NE(node, nullptr) << "rank " << rank;
    EXPECT_EQ(node->store().update_count(),
              static_cast<std::size_t>(kWrites))
        << "rank " << rank;
    EXPECT_EQ(node->store().content_digest(), expected_digest)
        << "rank " << rank
        << ": post-recovery contents differ from the never-crashed control";
  }
}

TEST(CrashRecoveryTest, RecoveryStreamsTheDeltaNotTheLog) {
  // Same crash at the same instant; the only difference is whether a
  // durable checkpoint exists.  With one, the wire pays only for the
  // checkpoint→crash gap; without, anti-entropy re-streams everything.
  static constexpr FileId kFile = 3;
  constexpr int kWrites = 40;

  struct Outcome {
    RecoveryReport recovery;
    std::uint64_t repair_updates_applied = 0;
    std::uint64_t migrate_updates_applied = 0;
    std::size_t final_count = 0;
    bool converged = false;
  };
  auto run = [&](replica::CheckpointEngineKind engine) {
    ShardedCluster cluster(crash_config(7117, engine, /*loss_rate=*/0.0));
    cluster.ensure_open(kFile);
    const std::vector<NodeId> group = cluster.group_of(kFile);
    client::ClientSession session(cluster, {});
    for (int i = 1; i <= kWrites; ++i) {
      cluster.sim().schedule_at(msec(250) * i, [&session, i] {
        ASSERT_TRUE(session.put(kFile, "w" + std::to_string(i), 1.0).ok());
      });
    }
    Outcome out;
    // Crash shortly after the t=8s checkpoint: the durable image covers
    // ~32 writes, the downtime covers ~4 — that is the delta.
    cluster.sim().schedule_at(sec(8) + msec(300), [&cluster, group] {
      cluster.crash_endpoint(group[1]);
    });
    cluster.sim().schedule_at(sec(9) + msec(50), [&cluster, group, &out] {
      out.recovery = cluster.restart_endpoint(group[1]);
    });
    cluster.run_until(sec(12));
    for (int period = 0; period < 8 && !replicas_identical(cluster, kFile);
         ++period) {
      cluster.run_for(kAePeriod);
    }
    out.converged = replicas_identical(cluster, kFile);
    const ReplicaSyncStats& s = cluster.sync_agent(kFile, 1)->stats();
    out.repair_updates_applied = s.repair_updates_applied;
    out.migrate_updates_applied = s.migrate_updates_applied;
    out.final_count = cluster.replica_at_rank(kFile, 1)->store().update_count();
    return out;
  };

  const Outcome with_ckpt = run(replica::CheckpointEngineKind::kIncremental);
  const Outcome without = run(replica::CheckpointEngineKind::kNone);

  ASSERT_TRUE(with_ckpt.converged);
  ASSERT_TRUE(without.converged);
  EXPECT_EQ(with_ckpt.final_count, static_cast<std::size_t>(kWrites));
  EXPECT_EQ(without.final_count, static_cast<std::size_t>(kWrites));

  // The checkpointed recovery reloaded most of the log from durable
  // storage without touching the wire...
  EXPECT_GE(with_ckpt.recovery.checkpoint_updates, 28u);
  EXPECT_LE(with_ckpt.recovery.gap_updates, 10u);
  // ...so its repair traffic is the delta, not the history.
  EXPECT_LE(with_ckpt.repair_updates_applied, 10u);
  // The no-checkpoint control restarts empty and re-streams ~everything.
  EXPECT_EQ(without.recovery.checkpoint_files, 0u);
  EXPECT_EQ(without.recovery.checkpoint_updates, 0u);
  EXPECT_GE(without.repair_updates_applied, 30u);
  EXPECT_GT(without.repair_updates_applied,
            3 * with_ckpt.repair_updates_applied);
  // Recovery never uses the migration stream.
  EXPECT_EQ(with_ckpt.migrate_updates_applied, 0u);
  EXPECT_EQ(without.migrate_updates_applied, 0u);
}

TEST(CrashRecoveryTest, CoordinatorCrashFailsOverAndRestartsWithoutSeqReuse) {
  constexpr FileId kFile = 5;
  ShardedCluster cluster(crash_config(
      909, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  cluster.ensure_open(kFile);
  const std::vector<NodeId> group = cluster.group_of(kFile);
  client::ClientSession session(cluster, {});

  // Phase 1: ten writes through the real coordinator (rank 0).
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().schedule_at(msec(300) * i, [&session, i] {
      ASSERT_TRUE(session.put(kFile, "a" + std::to_string(i), 1.0).ok());
    });
  }
  cluster.run_until(sec(3) + msec(400));
  cluster.crash_endpoint(group[0]);
  EXPECT_TRUE(cluster.is_crashed(group[0]));

  // Phase 2: writes and strong reads keep working through the acting
  // coordinator (lowest alive rank).
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().schedule_at(sec(3) + msec(500) + msec(300) * i,
                              [&session, i] {
                                ASSERT_TRUE(session
                                                .put(kFile,
                                                     "b" + std::to_string(i),
                                                     1.0)
                                                .ok());
                              });
  }
  cluster.run_until(sec(6) + msec(600));
  const client::OpHandle<client::ReadResult> read =
      session.read(kFile, client::ConsistencyLevel::strong());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->served_by, group[1]) << "strong read must fail over to "
                                          "the acting coordinator";
  EXPECT_EQ(cluster.router().stats().failover_writes, 10u);

  // Phase 3: restart.  The old coordinator re-adopts its own writer
  // history (checkpoint + survivor reconciliation) and resumes rank 0.
  const RecoveryReport rec = cluster.restart_endpoint(group[0]);
  EXPECT_GE(rec.checkpoint_files, 1u);
  EXPECT_GT(rec.checkpoint_updates + rec.reconciled_updates, 0u);
  core::IdeaNode* restarted = cluster.replica_at_rank(kFile, 0);
  ASSERT_NE(restarted, nullptr);
  // Sequence continuation: its next write must be seq 11, not a reused 1.
  EXPECT_EQ(restarted->store().local_seq(), 10u);

  cluster.sim().schedule_at(cluster.sim().now() + msec(100), [&session] {
    ASSERT_TRUE(session.put(kFile, "post", 1.0).ok());
  });
  cluster.run_for(sec(1));
  const replica::Update* post =
      restarted->store().find(replica::UpdateKey{0, 11});
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->content, "post");

  for (int period = 0; period < 10 && !replicas_identical(cluster, kFile);
       ++period) {
    cluster.run_for(kAePeriod);
  }
  ASSERT_TRUE(replicas_identical(cluster, kFile));
  EXPECT_EQ(restarted->store().update_count(), 21u);
}

TEST(CrashRecoveryTest, CheckpointEnginesAndDurableStorageSemantics) {
  ShardedCluster cluster(crash_config(
      44, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  constexpr FileId kFile = 2;
  cluster.ensure_open(kFile);
  const std::vector<NodeId> group = cluster.group_of(kFile);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "x", 1.0).ok());
  cluster.run_for(msec(200));  // let the push land everywhere

  replica::DurableStorage& storage = cluster.durable_storage();
  ASSERT_NE(cluster.checkpoint_engine(), nullptr);
  EXPECT_STREQ(cluster.checkpoint_engine()->name(), "incremental");

  // First manual pass persists the dirty replica; the second, with no
  // writes in between, skips it as clean.
  cluster.checkpoint_endpoint(group[0]);
  const replica::CheckpointRecord* first = storage.latest(group[0], kFile);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(first->updates.size(), 1u);
  EXPECT_EQ(first->members, group);
  EXPECT_GT(first->bytes, 0u);

  const std::uint64_t written_before = storage.records_written();
  cluster.checkpoint_endpoint(group[0]);
  EXPECT_EQ(storage.records_written(), written_before)
      << "clean replica must not be re-persisted by the incremental engine";
  EXPECT_GT(cluster.checkpoint_engine()->totals().files_clean, 0u);

  // A new write dirties it again; retention keeps the newest `retain`.
  ASSERT_TRUE(session.put(kFile, "y", 1.0).ok());
  cluster.checkpoint_endpoint(group[0]);
  ASSERT_TRUE(session.put(kFile, "z", 1.0).ok());
  // A record shares the replica's log buffer but stays a snapshot: the
  // write after it does not show in it.
  const replica::CheckpointRecord* second = storage.latest(group[0], kFile);
  ASSERT_NE(second, nullptr);
  ASSERT_EQ(second->updates.size(), 2u);
  EXPECT_EQ(second->updates.back().content, "y");
  cluster.checkpoint_endpoint(group[0]);
  const replica::CheckpointRecord* newest = storage.latest(group[0], kFile);
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->epoch, 3u);
  EXPECT_EQ(newest->updates.size(), 3u);
  EXPECT_LE(storage.record_count(),
            static_cast<std::size_t>(cluster.config().checkpoint.retain) *
                cluster.config().endpoints * 4);

  // The periodic timers are armed for every endpoint (enabled() config),
  // so simply running the clock also writes records for the other ranks.
  cluster.run_for(sec(2) + msec(100));
  EXPECT_NE(storage.latest(group[1], kFile), nullptr);
  EXPECT_NE(storage.latest(group[2], kFile), nullptr);
}

TEST(CrashRecoveryTest, ActingCoordinatorDrivesLevelProbeAndReplicaSelection) {
  // With rank 0 down, the controller's level probe and bounded-read
  // replica selection must both read the acting coordinator (rank 1),
  // like writes and strong reads do — not the dark rank 0 (which reads as
  // "fully consistent" and "every replica at lag 0").
  constexpr FileId kFile = 6;
  ShardedClusterConfig cfg = crash_config(
      515, replica::CheckpointEngineKind::kNone, /*loss_rate=*/0.0);
  cfg.anti_entropy_period = 0;  // nothing heals the divergence below
  ShardedCluster cluster(cfg);
  cluster.ensure_open(kFile);
  const std::vector<NodeId> group = cluster.group_of(kFile);
  ASSERT_EQ(group.size(), 3u);
  client::ClientSession session(cluster, {});
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(session.put(kFile, "base" + std::to_string(i), 1.0).ok());
    cluster.run_for(msec(500));
  }
  // The whole group holds the base; its ranks are the top layer.
  ASSERT_EQ(cluster.replica(kFile, group[1])->top_layer().size(), 3u);

  cluster.crash_endpoint(group[0]);
  ASSERT_EQ(cluster.coordinator(kFile).second, group[1]);
  // Under a full-loss window rank 1 coordinates four writes rank 2 never
  // receives, and rank 2 applies one of its own that rank 1 never sees:
  // rank 2 ends several versions behind, and the ranks are concurrent.
  const SimTime now = cluster.sim().now();
  cluster.transport().add_drop_window(now, now + msec(200));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.put(kFile, "acting" + std::to_string(i), 1.0).ok());
  }
  ReplicaSyncAgent* rank2 = cluster.sync_agent(kFile, 2);
  ASSERT_NE(rank2, nullptr);
  ASSERT_TRUE(rank2->put("rank2", 1.0));
  cluster.run_for(msec(300));

  core::IdeaNode* acting = cluster.replica(kFile, group[1]);
  core::IdeaNode* behind = cluster.replica(kFile, group[2]);
  ASSERT_NE(acting, nullptr);
  ASSERT_NE(behind, nullptr);
  const std::uint64_t behind_total = behind->store().evv().counts().total();
  ASSERT_GE(acting->store().evv().counts().total(), behind_total + 3);
  cluster.router().note_freshness(kFile, group[2], behind_total,
                                  cluster.sim().now());

  // A bounded read from rank 2's own endpoint: rank 2 is nearest, but
  // the live hint shows it lagging the acting coordinator, so selection
  // goes to rank 1 directly instead of probing rank 2 and escalating.
  const client::ReadResult read = cluster.router().read(
      kFile, client::ConsistencyLevel::bounded_staleness(1), group[2]);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.served_by, group[1]);
  EXPECT_FALSE(read.escalated);
  EXPECT_EQ(cluster.router().stats().bounded_escalations, 0u);

  // Detection at the acting coordinator sees rank 2's concurrent update,
  // so its level drops below 1.0; the router's probe must report it.
  acting->probe({});
  cluster.run_for(sec(2));
  ASSERT_LT(acting->current_level(), 1.0);
  EXPECT_EQ(cluster.router().level(kFile),
            cluster.replica(kFile, cluster.coordinator(kFile).second)
                ->current_level());
}

TEST(CrashRecoveryTest, MigrationReadPinWindowIsSizedFromTheAdopter) {
  // A member leaves while the file's rank 0 is dark: rank 1 adopts the
  // union snapshot and streams it, so the read-pin window must span the
  // adopter's trips to the live ranks — not the dark rank 0's.  Scan
  // files for one where the two windows differ, so the check bites.
  for (FileId file = 1; file <= 30; ++file) {
    ShardedCluster cluster(crash_config(
        717, replica::CheckpointEngineKind::kNone, /*loss_rate=*/0.0));
    ASSERT_NE(cluster.ensure_open(file), nullptr);
    client::ClientSession session(cluster, {});
    ASSERT_TRUE(session.put(file, "before", 1.0).ok());
    cluster.run_for(sec(1));
    const std::vector<NodeId> old_group = cluster.group_of(file);
    ASSERT_EQ(old_group.size(), 3u);
    cluster.crash_endpoint(old_group[0]);
    const SimTime migrated_at = cluster.sim().now();
    ASSERT_GT(cluster.remove_endpoint(old_group[2]).files_migrated, 0u);
    const std::vector<NodeId>* group = cluster.members_of(file);
    ASSERT_NE(group, nullptr);
    ASSERT_EQ(group->front(), old_group[0]);  // the new rank 0 is dark
    const NodeId adopter = cluster.coordinator(file).second;
    ASSERT_EQ(adopter, old_group[1]);

    SimDuration from_adopter = 0;
    SimDuration from_dark = 0;
    for (std::size_t rank = 1; rank < group->size(); ++rank) {
      const NodeId member = (*group)[rank];
      from_dark = std::max(from_dark,
                           cluster.latency().mean(group->front(), member));
      if (member != adopter) {
        from_adopter = std::max(from_adopter,
                                cluster.latency().mean(adopter, member));
      }
    }
    if (from_adopter == from_dark) continue;
    const SimTime window_end = migrated_at + 2 * from_adopter + msec(100);

    cluster.run_until(window_end - 1);
    EXPECT_TRUE(cluster.router().in_migration_window(file));
    cluster.run_until(window_end);
    EXPECT_FALSE(cluster.router().in_migration_window(file));
    return;
  }
  FAIL() << "no file whose adopter and dark-rank windows differ";
}

TEST(CrashRecoveryTest, CloseFileWhileAMemberIsDownThenRestart) {
  // Closing a group with a dark slot and a parked hint tears down only
  // the live ranks, drops the hint, and leaves nothing for the restart
  // to rebuild; re-opening builds a fresh group on the restarted member.
  constexpr FileId kFile = 4;
  ShardedCluster cluster(crash_config(
      313, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  client::SessionOptions options;
  options.write_concern = client::WriteConcern::all();
  client::ClientSession session(cluster, options);
  ASSERT_TRUE(session.open(kFile));
  const std::vector<NodeId> group = cluster.group_of(kFile);
  ASSERT_EQ(group.size(), 3u);
  cluster.crash_endpoint(group[2]);

  // w = all with one member dark parks a hint for it at a stand-in.
  const client::OpHandle<client::WriteAck> h =
      session.put(kFile, "parked", 1.0);
  cluster.run_for(sec(1));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->hinted, 1u);
  ASSERT_EQ(cluster.hint_store().depth(), 1u);

  ASSERT_TRUE(cluster.close_file(kFile));
  EXPECT_FALSE(cluster.is_placed(kFile));
  EXPECT_EQ(cluster.hint_store().depth(), 0u);
  const std::size_t placed = cluster.placed_files();

  const RecoveryReport rec = cluster.restart_endpoint(group[2]);
  EXPECT_EQ(rec.endpoint, group[2]);
  EXPECT_EQ(rec.files_recovered, 0u);
  EXPECT_EQ(rec.hinted_updates, 0u);
  EXPECT_EQ(cluster.placed_files(), placed);
  EXPECT_EQ(cluster.hint_store().depth(), 0u);
  cluster.run_for(sec(2));  // checkpoint passes and stale traffic

  ASSERT_NE(cluster.ensure_open(kFile), nullptr);
  ASSERT_NE(cluster.members_of(kFile), nullptr);
  EXPECT_EQ(*cluster.members_of(kFile), group);
  ASSERT_NE(cluster.replica(kFile, group[2]), nullptr);
  EXPECT_EQ(cluster.coordinator(kFile).second, group[0]);
  const client::OpHandle<client::WriteAck> after =
      session.put(kFile, "reopened", 1.0);
  cluster.run_for(sec(1));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->w_satisfied);
  EXPECT_EQ(after->acks, 3u);
  EXPECT_EQ(after->hinted, 0u);
}

}  // namespace
}  // namespace idea::shard
