#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace idea::core {
namespace {

TEST(Cluster, BuildsFortyNodes) {
  ClusterConfig cfg;
  cfg.nodes = 40;
  cfg.sync_sizes();
  IdeaCluster cluster(cfg);
  EXPECT_EQ(cluster.size(), 40u);
  EXPECT_EQ(cluster.latency().node_count(), 40u);
}

TEST(Cluster, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg;
    cfg.nodes = 16;
    cfg.seed = seed;
    cfg.sync_sizes();
    cfg.idea.controller.mode = AdaptiveMode::kHintBased;
    cfg.idea.controller.hint = 0.9;
    IdeaCluster cluster(cfg);
    cluster.start();
    cluster.warm_up({2, 9}, sec(20));
    cluster.node(2).write("a", 2.0);
    cluster.node(9).write("b", 3.0);
    cluster.run_for(sec(30));
    return std::make_tuple(
        cluster.transport().counters().total_messages(),
        cluster.transport().counters().total_bytes(),
        cluster.node(2).store().content_digest(),
        cluster.sim().events_processed());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(std::get<0>(run(42)), std::get<0>(run(43)));
}

TEST(Cluster, PaperScaleTopLayerFormation) {
  // §6.1: 40 nodes, four concurrent writers; after warm-up the four
  // writers form the top layer of exactly four nodes, at every node.
  ClusterConfig cfg;
  cfg.nodes = 40;
  cfg.sync_sizes();
  IdeaCluster cluster(cfg);
  cluster.start();
  const std::vector<NodeId> writers{3, 11, 22, 37};
  cluster.warm_up(writers, sec(25));
  for (NodeId n = 0; n < 40; ++n) {
    EXPECT_EQ(cluster.node(n).top_layer(), writers) << "at node " << n;
  }
}

TEST(Cluster, TopLayerShrinksWhenWriterGoesCold) {
  ClusterConfig cfg;
  cfg.nodes = 12;
  cfg.sync_sizes();
  cfg.idea.temperature.tau = sec(30);
  IdeaCluster cluster(cfg);
  cluster.start();
  // Both writers are active through the warm-up window.
  for (int i = 0; i < 4; ++i) {
    cluster.node(2).write("w2", 0.1);
    cluster.node(7).write("w7", 0.1);
    cluster.run_for(sec(5));
  }
  EXPECT_EQ(cluster.node(2).top_layer(), (std::vector<NodeId>{2, 7}));
  // Writer 7 goes silent; writer 2 keeps writing.  With tau = 30 s, a few
  // minutes of silence cools writer 7 well below the hot threshold.
  for (int i = 0; i < 40; ++i) {
    cluster.node(2).write("keepalive", 0.1);
    cluster.run_for(sec(5));
  }
  const auto tl = cluster.node(2).top_layer();
  EXPECT_EQ(tl, (std::vector<NodeId>{2}));
}

TEST(Cluster, MessageAccountingByCategory) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.sync_sizes();
  IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up({2, 9}, sec(20));
  cluster.node(2).write("a", 1.0);
  cluster.node(9).write("b", 1.0);
  cluster.node(2).demand_active_resolution();
  cluster.run_for(sec(10));
  const auto& c = cluster.transport().counters();
  EXPECT_GT(c.messages_with_prefix("ransub."), 0u);
  EXPECT_GT(c.messages_with_prefix("detect."), 0u);
  EXPECT_GT(c.messages_with_prefix("resolve."), 0u);
  EXPECT_GT(c.messages_with_prefix("gossip."), 0u);
  EXPECT_EQ(c.total_messages(),
            c.messages_with_prefix("ransub.") +
                c.messages_with_prefix("detect.") +
                c.messages_with_prefix("resolve.") +
                c.messages_with_prefix("gossip."));
}

TEST(Cluster, PaperStackGoldenAtFixedSeed) {
  // Pins the paper's full overlay stack (RanSub epochs, temperature
  // gossip, bottom-layer scans, write-triggered probes, hint-driven
  // resolution) to one fixed-seed replay: the content digest of every
  // replica plus the per-type message counts.  The shard layer's group
  // stack must never leak into IdeaCluster.
  ClusterConfig cfg;
  cfg.nodes = 12;
  cfg.seed = 1717;
  cfg.transport.loss_rate = 0.02;
  cfg.sync_sizes();
  cfg.idea.controller.mode = AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.9;
  cfg.idea.background_period = sec(15);
  IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up({1, 5, 8}, sec(20));
  for (int i = 0; i < 6; ++i) {
    cluster.node(1).write("a" + std::to_string(i), 1.0);
    cluster.node(5).write("b" + std::to_string(i), 2.0);
    if (i % 2 == 0) cluster.node(8).write("c" + std::to_string(i), 0.5);
    cluster.run_for(sec(4));
  }
  cluster.run_for(sec(20));

  std::uint64_t digest = 0;
  for (NodeId n = 0; n < cluster.size(); ++n) {
    digest ^= cluster.node(n).store().content_digest() *
              (n * 2654435761ull + 1);
  }
  EXPECT_EQ(digest, 0x6cb0677aef5001a3ull);
  const std::map<std::string, std::uint64_t> expected{
      {"detect.probe", 1967},      {"detect.reply", 1899},
      {"detect.report", 120},      {"gossip.push", 2313},
      {"ransub.collect", 130},     {"ransub.distribute", 132},
      {"ransub.epoch", 132},       {"resolve.attn", 618},
      {"resolve.attn_ack", 602},   {"resolve.collect", 115},
      {"resolve.collect_reply", 113}, {"resolve.commit", 112},
      {"resolve.done", 110},
  };
  EXPECT_EQ(cluster.transport().counters().by_type(), expected);
}

TEST(Cluster, LossyNetworkStillConverges) {
  ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.transport.loss_rate = 0.05;
  cfg.sync_sizes();
  cfg.idea.controller.mode = AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.9;
  cfg.idea.background_period = sec(10);
  IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up({1, 4}, sec(20));
  cluster.node(1).write("a", 1.0);
  cluster.node(4).write("b", 2.0);
  cluster.run_for(sec(60));
  EXPECT_TRUE(cluster.converged({1, 4}));
  EXPECT_GT(cluster.transport().dropped(), 0u);
}

TEST(Cluster, ClockSkewDoesNotBreakDetection) {
  ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.transport.max_clock_skew = msec(500);
  cfg.sync_sizes();
  cfg.idea.controller.mode = AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.9;
  IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up({1, 4}, sec(20));
  cluster.node(1).write("a", 1.0);
  cluster.node(4).write("b", 2.0);
  cluster.run_for(sec(30));
  EXPECT_TRUE(cluster.converged({1, 4}));
}

}  // namespace
}  // namespace idea::core
