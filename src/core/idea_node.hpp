#pragma once
/// \file idea_node.hpp
/// \brief One IDEA middleware node: the public API of the library.
///
/// An IdeaNode sits between an application replica and the network.  It owns
/// the node's replica of one shared file, the inconsistency detector, the
/// resolution manager and the adaptive controller.  It runs one of two
/// stacks:
///
///  * the paper stack (the plain constructor) adds the open-membership
///    overlay: temperature bookkeeping, RanSub epochs, the two-layer view
///    and gossip bottom-layer scans, and probes on every write;
///  * the group stack (the GroupStack constructor, built by
///    IdeaService::open_via for ring-managed replica groups) has none of
///    that: membership is fixed, so ranks 0..k-1 are the top layer, and
///    the periodic detection timer parks after a clean round until the
///    replica's state moves again.
///
/// Applications interact through:
///
///  * write()/read()               — the data path;
///  * the Table-1 developer API    — set_consistency_metric, set_weight,
///    set_resolution, set_hint, demand_active_resolution,
///    set_background_freq;
///  * the end-user surface         — user_unsatisfied(), boost/weight
///    adjustment (§5.1);
///  * listeners                    — consistency-level updates, resolution
///    round stats, bottom-layer discrepancy alerts.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/formula.hpp"
#include "core/resolution.hpp"
#include "detect/detector.hpp"
#include "net/dispatcher.hpp"
#include "net/transport.hpp"
#include "overlay/gossip.hpp"
#include "overlay/ransub.hpp"
#include "overlay/temperature.hpp"
#include "overlay/two_layer.hpp"
#include "replica/store.hpp"

namespace idea::core {

/// Everything configurable about one IDEA node.  The nested structs carry
/// the per-module tunables; the fields here wire the protocol together.
struct IdeaConfig {
  vv::TripleWeights weights;
  vv::TripleMaxima maxima;
  ResolutionConfig resolution;
  detect::DetectorParams detector;
  ControllerConfig controller;
  overlay::TemperatureParams temperature;
  overlay::TwoLayerParams two_layer;
  overlay::RanSubParams ransub;
  overlay::GossipParams gossip;

  /// Period of the proactive top-layer detection rounds that keep the
  /// node's consistency level fresh ("periodically detecting inconsistency
  /// with sufficient frequency behind the scene" — §5.1).  A group stack
  /// parks this timer while its replica is quiet (see IdeaNode).
  SimDuration detection_period = sec(1);
  /// Background-resolution period; 0 disables background resolution.
  SimDuration background_period = 0;
  /// Also run detect() on every local write (the paper's write trigger;
  /// the group stack never probes on write).
  bool detect_on_write = true;
  /// Alert threshold for top-vs-bottom layer disagreement (§4.4.2's "78%
  /// vs 80%" closeness test).
  double discrepancy_threshold = 0.05;
  /// If true, a discrepancy whose corrected level is unacceptable triggers
  /// a rollback to the last consistent point before resolving.
  bool auto_rollback = false;
};

/// A consistency-level observation delivered to the application.
struct LevelSample {
  double level = 1.0;
  vv::TactTriple triple;
  bool conflict = false;
  NodeId reference = kNoNode;
  SimTime at = 0;
};

/// Alert raised when the bottom layer contradicts the top-layer estimate.
struct DiscrepancyAlert {
  double top_layer_level = 1.0;
  double bottom_layer_level = 1.0;
  NodeId reporter = kNoNode;
  bool rolled_back = false;
  SimTime at = 0;
};

/// Selects the group stack: a ring-managed replica group of `size` ranks.
struct GroupStack {
  std::uint32_t size = 0;
};

class IdeaNode {
 public:
  using LevelListener = std::function<void(const LevelSample&)>;
  using RoundListener = std::function<void(const RoundStats&)>;
  using DiscrepancyListener = std::function<void(const DiscrepancyAlert&)>;

  /// `attach_transport` controls whether the node claims the transport
  /// endpoint for its id.  Single-file deployments leave it true; an
  /// IdeaService managing several files per node attaches itself instead
  /// and routes by file id (§4.1: per-file top layers are independent).
  IdeaNode(NodeId self, FileId file, net::Transport& transport,
           IdeaConfig config, std::uint64_t seed,
           bool attach_transport = true);
  /// The group stack for rank `self` of a `group.size`-rank replica group.
  /// It never claims the transport endpoint: IdeaService routes to it.
  IdeaNode(NodeId self, FileId file, net::Transport& transport,
           IdeaConfig config, std::uint64_t seed, GroupStack group);
  ~IdeaNode();

  IdeaNode(const IdeaNode&) = delete;
  IdeaNode& operator=(const IdeaNode&) = delete;

  /// Arm the periodic machinery (detection rounds, background resolution;
  /// on the paper stack also bottom scans and the RanSub epoch timer on the
  /// tree root).
  void start();

  // ------------------------------------------------------------------
  // Data path
  // ------------------------------------------------------------------

  /// Issue a local write.  Returns false (and applies nothing) while a
  /// resolution round blocks updates — the paper's §4.4.1 blocking rule.
  bool write(std::string content, double meta_delta);

  /// Read the replica in canonical order.  A read of a fresh file would
  /// trigger detection in the paper's protocol; pass `trigger_detection`
  /// accordingly.
  [[nodiscard]] std::vector<replica::Update> read(
      bool trigger_detection = false);

  /// Zero-copy read: a shared immutable canonical-order view of the
  /// replica (ReplicaStore::contents_snapshot).  The session read path
  /// serves gets from this, so fan-out reads share one allocation
  /// instead of copying the log per get.
  [[nodiscard]] std::shared_ptr<const replica::ContentsView> read_view(
      bool trigger_detection = false);

  /// Record hosting activity without issuing a write.  Sharded replicas
  /// call this when they ingest replicated updates.  On the paper stack it
  /// feeds temperature, so the replica group stays hot and surfaces as the
  /// file's top layer; on the group stack it re-arms parked detection.
  void note_replica_activity();

  // ------------------------------------------------------------------
  // Table-1 developer API
  // ------------------------------------------------------------------

  /// set_consistency_metric(a, b, c): calibrate the per-metric maxima that
  /// cast the application onto IDEA's metric space.
  void set_consistency_metric(double max_numerical, double max_order,
                              double max_staleness_sec);

  /// set_weight(a, b, c): weights of the three metrics in Formula 1.
  void set_weight(double w_numerical, double w_order, double w_staleness);

  /// set_resolution(r): 1 = invalidate both, 2 = user-ID, 3 = priority.
  void set_resolution(int policy);

  /// set_hint(h): 0 disables hint-based control, 1 tolerates nothing.
  void set_hint(double hint);

  /// demand_active_resolution(): explicit user/application demand.
  /// Returns false if a round is already running locally.
  bool demand_active_resolution();

  /// set_background_freq(f): background resolutions per second (0 stops).
  void set_background_freq(double hz);

  // ------------------------------------------------------------------
  // End-user interaction (§5.1)
  // ------------------------------------------------------------------

  /// The user saw the current level and is not satisfied: resolve now and
  /// learn a higher acceptable level (L1 + delta).
  void user_unsatisfied();

  /// The user re-weights the metrics without changing the overall target.
  void user_adjust_weights(double w_numerical, double w_order,
                           double w_staleness);

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  [[nodiscard]] double current_level() const { return level_.level; }
  [[nodiscard]] const LevelSample& last_sample() const { return level_; }
  [[nodiscard]] NodeId id() const { return self_; }
  [[nodiscard]] FileId file() const { return file_; }
  [[nodiscard]] const replica::ReplicaStore& store() const { return store_; }
  [[nodiscard]] replica::ReplicaStore& store() { return store_; }
  [[nodiscard]] AdaptiveController& controller() { return controller_; }
  [[nodiscard]] ResolutionManager& resolution() { return resolution_; }
  [[nodiscard]] detect::InconsistencyDetector& detector() {
    return detector_;
  }
  [[nodiscard]] const IdeaConfig& config() const { return config_; }
  /// The file's top layer as this node sees it; ranks 0..k-1 on the group
  /// stack.
  [[nodiscard]] std::vector<NodeId> top_layer() const;
  /// True while the periodic detection timer is pending (false once a
  /// group stack parked it, or when detection_period is 0).
  [[nodiscard]] bool detection_armed() const { return detection_timer_ != 0; }
  [[nodiscard]] std::uint64_t blocked_writes() const {
    return blocked_writes_;
  }

  void set_level_listener(LevelListener cb) { on_level_ = std::move(cb); }
  void set_round_listener(RoundListener cb) { on_round_user_ = std::move(cb); }
  void set_discrepancy_listener(DiscrepancyListener cb) {
    on_discrepancy_ = std::move(cb);
  }

  /// Run one detection round immediately (also used by benches to align
  /// sampling instants); the callback variant exposes the full result.
  void probe(detect::InconsistencyDetector::DetectCallback cb = nullptr);

  /// The node's protocol demultiplexer (used by IdeaService routing).
  [[nodiscard]] net::Dispatcher& dispatcher() { return dispatcher_; }

 private:
  /// The paper stack's open-membership overlay; null on the group stack.
  struct Overlay;

  IdeaNode(NodeId self, FileId file, net::Transport& transport,
           IdeaConfig config, std::uint64_t seed, bool attach_transport,
           std::uint32_t group_size);

  void on_detection(const detect::DetectionResult& result);
  void on_scan_report(const detect::ScanReport& report);
  void arm_background_timer(SimDuration period);
  void background_tick();
  [[nodiscard]] std::vector<NodeId> current_top_layer();
  void arm_detection();
  void detection_round();
  /// Group stack: the replica's state may have moved — re-arm parked
  /// detection and keep the next round from parking.
  void wake_detection();

  NodeId self_;
  FileId file_;
  net::Transport& transport_;
  IdeaConfig config_;

  replica::ReplicaStore store_;
  net::Dispatcher dispatcher_;
  std::unique_ptr<Overlay> overlay_;
  std::vector<NodeId> group_ranks_;  ///< Group stack's top layer.
  detect::InconsistencyDetector detector_;
  ResolutionManager resolution_;
  AdaptiveController controller_;

  LevelSample level_;
  std::uint64_t detection_timer_ = 0;
  /// Group stack: a write, ingest or divergent probe since the last
  /// periodic round began.
  bool woken_ = false;
  std::uint64_t background_timer_ = 0;
  SimDuration background_period_ = 0;
  std::uint64_t blocked_writes_ = 0;

  bool attached_ = false;
  LevelListener on_level_;
  RoundListener on_round_user_;
  DiscrepancyListener on_discrepancy_;
};

}  // namespace idea::core
