#include "detect/detector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "net/dispatcher.hpp"
#include "net/sim_transport.hpp"

namespace idea::detect {
namespace {

// A miniature deployment: stores + gossip + detectors with a fixed top
// layer, no IdeaNode on top.
class DetectorFixture : public ::testing::Test {
 protected:
  static constexpr FileId kFile = 1;

  void Build(std::uint32_t nodes, std::vector<NodeId> top_layer,
             DetectorParams params = {}) {
    nodes_ = nodes;
    top_layer_ = std::move(top_layer);
    transport_ = std::make_unique<net::SimTransport>(sim_, latency_);
    overlay::GossipParams gp;
    gp.nodes = nodes;
    gp.ttl = 6;
    for (NodeId n = 0; n < nodes; ++n) {
      stores_.push_back(std::make_unique<replica::ReplicaStore>(n, kFile));
      dispatchers_.push_back(std::make_unique<net::Dispatcher>());
      gossips_.push_back(std::make_unique<overlay::GossipAgent>(
          n, *transport_, gp,
          [this, n](const overlay::GossipEnvelope& env) {
            detectors_[n]->on_gossip(env);
          },
          500 + n));
      detectors_.push_back(std::make_unique<InconsistencyDetector>(
          n, kFile, *transport_, *stores_[n], gossips_[n].get(),
          [this] { return top_layer_; }, params, 900 + n));
      dispatchers_[n]->route("gossip.", gossips_[n].get());
      dispatchers_[n]->route("detect.", detectors_[n].get());
      transport_->attach(n, dispatchers_[n].get());
    }
  }

  std::optional<DetectionResult> detect_blocking(NodeId node) {
    std::optional<DetectionResult> out;
    detectors_[node]->detect(
        [&out](const DetectionResult& r) { out = r; });
    sim_.run_until(sim_.now() + sec(5));
    return out;
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_{msec(25)};
  std::unique_ptr<net::SimTransport> transport_;
  std::uint32_t nodes_ = 0;
  std::vector<NodeId> top_layer_;
  std::vector<std::unique_ptr<replica::ReplicaStore>> stores_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<overlay::GossipAgent>> gossips_;
  std::vector<std::unique_ptr<InconsistencyDetector>> detectors_;
};

TEST(ChooseReference, SingleCandidate) {
  vv::ExtendedVersionVector e;
  e.record_update(0, sec(1), 0);
  EXPECT_EQ(choose_reference({{3, e}}), 3u);
}

TEST(ChooseReference, DominatedReplicaLoses) {
  vv::ExtendedVersionVector low, high;
  low.record_update(0, sec(1), 0);
  high.record_update(0, sec(1), 0);
  high.record_update(0, sec(2), 0);
  // Node 9 holds the dominated state; node 2 the maximal one.
  EXPECT_EQ(choose_reference({{9, low}, {2, high}}), 2u);
}

TEST(ChooseReference, ConcurrentPicksHighestId) {
  vv::ExtendedVersionVector x, y;
  x.record_update(0, sec(1), 0);
  y.record_update(1, sec(1), 0);
  EXPECT_EQ(choose_reference({{4, x}, {7, y}}), 7u);
  EXPECT_EQ(choose_reference({{7, x}, {4, y}}), 7u);
}

TEST(ChooseReference, EqualStatesPickHighestId) {
  vv::ExtendedVersionVector x;
  x.record_update(0, sec(1), 0);
  EXPECT_EQ(choose_reference({{4, x}, {7, x}}), 7u);
}

TEST_F(DetectorFixture, NoConflictWhenIdentical) {
  Build(4, {0, 1, 2, 3});
  // Same update applied everywhere.
  const replica::Update u = stores_[0]->apply_local(sec(1), "x", 1.0);
  for (NodeId n = 1; n < 4; ++n) stores_[n]->apply_remote(u);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->conflict);  // "success"
  EXPECT_TRUE(result->triple.is_zero());
  EXPECT_EQ(result->peers_probed, 3u);
  EXPECT_EQ(result->peers_replied, 3u);
  EXPECT_EQ(result->gathered.size(), 4u);
}

TEST_F(DetectorFixture, ConflictDetected) {
  Build(4, {0, 1, 2, 3});
  stores_[0]->apply_local(sec(1), "a", 1.0);
  stores_[2]->apply_local(sec(2), "b", 4.0);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->conflict);  // "fail"
  EXPECT_FALSE(result->triple.is_zero());
}

TEST_F(DetectorFixture, ReferenceIsHighestMaximal) {
  Build(4, {0, 1, 2, 3});
  stores_[1]->apply_local(sec(1), "a", 1.0);
  stores_[3]->apply_local(sec(2), "b", 2.0);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->reference, 3u);
}

TEST_F(DetectorFixture, TripleAttachedToStore) {
  Build(3, {0, 1, 2});
  stores_[1]->apply_local(sec(2), "b", 5.0);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(stores_[0]->evv().triple(), result->triple);
  EXPECT_GT(result->triple.order_error, 0.0);
}

TEST_F(DetectorFixture, AloneInTopLayerSucceeds) {
  Build(3, {0});
  stores_[0]->apply_local(sec(1), "a", 1.0);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->conflict);
  EXPECT_EQ(result->peers_probed, 0u);
}

TEST_F(DetectorFixture, TimeoutToleratesDeadPeer) {
  DetectorParams p;
  p.probe_timeout = msec(500);
  Build(4, {0, 1, 2, 3}, p);
  transport_->detach(2);  // node 2 is dead
  stores_[0]->apply_local(sec(1), "a", 1.0);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->peers_probed, 3u);
  EXPECT_EQ(result->peers_replied, 2u);
  EXPECT_GE(result->finished_at - result->started_at, msec(500));
}

TEST_F(DetectorFixture, RoundLatencyIsOneRtt) {
  Build(4, {0, 1, 2, 3});
  stores_[0]->apply_local(sec(1), "a", 1.0);
  const auto result = detect_blocking(0);
  ASSERT_TRUE(result.has_value());
  // Parallel probes: latency ~ max RTT = 2 * 25 ms with constant latency.
  EXPECT_EQ(result->finished_at - result->started_at, msec(50));
}

TEST_F(DetectorFixture, BottomScanReportsConflictToOrigin) {
  Build(8, {0, 1});
  bool reported = false;
  ScanReport seen;
  detectors_[0]->set_report_callback([&](const ScanReport& r) {
    reported = true;
    seen = r;
  });
  stores_[0]->apply_local(sec(1), "a", 1.0);
  // Node 5 (bottom layer) holds a conflicting update the top layer misses.
  stores_[5]->apply_local(sec(2), "hidden", 9.0);
  detectors_[0]->start_background_scan();
  sim_.run_until(sec(25));
  EXPECT_TRUE(reported);
  EXPECT_EQ(seen.reporter, 5u);
  EXPECT_EQ(seen.reporter_evv.count_of(5), 1u);
}

TEST_F(DetectorFixture, NoReportWhenBottomLayerConsistent) {
  Build(8, {0, 1});
  bool reported = false;
  detectors_[0]->set_report_callback(
      [&](const ScanReport&) { reported = true; });
  const replica::Update u = stores_[0]->apply_local(sec(1), "a", 1.0);
  for (NodeId n = 1; n < 8; ++n) stores_[n]->apply_remote(u);
  detectors_[0]->start_background_scan();
  sim_.run_until(sec(25));
  EXPECT_FALSE(reported);
}

TEST_F(DetectorFixture, ScanTimerStartsAndStops) {
  DetectorParams p;
  p.scan_period = sec(5);
  Build(4, {0, 1}, p);
  detectors_[0]->start_background_scan();
  sim_.run_until(sec(21));
  const auto scans_after_20s = detectors_[0]->scans_started();
  EXPECT_EQ(scans_after_20s, 4u);
  detectors_[0]->stop_background_scan();
  sim_.run_until(sec(60));
  EXPECT_EQ(detectors_[0]->scans_started(), scans_after_20s);
}

TEST_F(DetectorFixture, ConcurrentRoundsBothComplete) {
  Build(4, {0, 1, 2, 3});
  stores_[1]->apply_local(sec(1), "x", 1.0);
  int completed = 0;
  detectors_[0]->detect([&](const DetectionResult&) { ++completed; });
  detectors_[0]->detect([&](const DetectionResult&) { ++completed; });
  sim_.run_until(sec(5));
  EXPECT_EQ(completed, 2);
}

}  // namespace
}  // namespace idea::detect
