#include "core/idea_node.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace idea::core {

namespace {

/// No conflict and every probed peer replied.
bool clean_round(const detect::DetectionResult& result) {
  return !result.conflict && result.peers_replied == result.peers_probed;
}

}  // namespace

struct IdeaNode::Overlay {
  Overlay(IdeaNode& node, std::uint64_t seed);

  overlay::TemperatureTracker temperature;
  overlay::TwoLayerView two_layer;
  overlay::GossipAgent gossip;
  overlay::RanSubAgent ransub;
};

IdeaNode::Overlay::Overlay(IdeaNode& node, std::uint64_t seed)
    : temperature(node.config_.temperature),
      two_layer(node.self_, node.config_.two_layer),
      gossip(node.self_, node.transport_, node.config_.gossip,
             [&node](const overlay::GossipEnvelope& env) {
               node.detector_.on_gossip(env);
             },
             mix64(seed ^ 0x60551FULL ^ node.self_)),
      ransub(node.self_, node.file_, node.transport_, node.config_.ransub,
             [this, &node] {
               std::vector<overlay::TempAd> ads;
               const SimTime now = node.transport_.now();
               ads.push_back(overlay::TempAd{
                   node.self_, node.file_,
                   temperature.temperature(node.file_, now), now});
               return ads;
             },
             [this, &node](const std::vector<overlay::TempAd>& ads) {
               two_layer.ingest(ads, node.transport_.now());
             },
             mix64(seed ^ 0x4A5ULL ^ node.self_)) {}

IdeaNode::IdeaNode(NodeId self, FileId file, net::Transport& transport,
                   IdeaConfig config, std::uint64_t seed,
                   bool attach_transport)
    : IdeaNode(self, file, transport, std::move(config), seed,
               attach_transport, /*group_size=*/0) {}

IdeaNode::IdeaNode(NodeId self, FileId file, net::Transport& transport,
                   IdeaConfig config, std::uint64_t seed, GroupStack group)
    : IdeaNode(self, file, transport, std::move(config), seed,
               /*attach_transport=*/false, group.size) {
  assert(group.size > 0 && self < group.size);
}

IdeaNode::IdeaNode(NodeId self, FileId file, net::Transport& transport,
                   IdeaConfig config, std::uint64_t seed,
                   bool attach_transport, std::uint32_t group_size)
    : self_(self), file_(file), transport_(transport),
      config_(std::move(config)), store_(self, file),
      overlay_(group_size == 0 ? std::make_unique<Overlay>(*this, seed)
                               : nullptr),
      detector_(self, file, transport, store_,
                overlay_ == nullptr ? nullptr : &overlay_->gossip,
                [this] { return current_top_layer(); }, config_.detector,
                mix64(seed ^ 0xDE7EC7ULL ^ self)),
      resolution_(self, file, transport, store_,
                  [this] { return current_top_layer(); }, config_.resolution,
                  mix64(seed ^ 0x2E50ULL ^ self)),
      controller_(config_.controller,
                  [this] { demand_active_resolution(); },
                  [this](SimDuration period) {
                    arm_background_timer(period);
                  }) {
  if (overlay_ != nullptr) {
    dispatcher_.route("ransub.", &overlay_->ransub);
    dispatcher_.route("gossip.", &overlay_->gossip);
  } else {
    for (NodeId rank = 0; rank < group_size; ++rank) {
      group_ranks_.push_back(rank);
    }
    detector_.set_divergence_callback([this] { wake_detection(); });
  }
  dispatcher_.route("detect.", &detector_);
  dispatcher_.route("resolve.", &resolution_);
  attached_ = attach_transport;
  if (attached_) transport_.attach(self_, &dispatcher_);

  detector_.set_report_callback(
      [this](const detect::ScanReport& r) { on_scan_report(r); });
  resolution_.set_round_callback([this](const RoundStats& s) {
    controller_.observe_round_cost(
        static_cast<double>(s.updates_shipped) * 256.0 +
        static_cast<double>(s.participants) * 512.0);
    if (on_round_user_) on_round_user_(s);
  });
}

IdeaNode::~IdeaNode() {
  if (detection_timer_ != 0) transport_.cancel_call(detection_timer_);
  if (background_timer_ != 0) transport_.cancel_call(background_timer_);
  if (attached_) transport_.detach(self_);
}

void IdeaNode::start() {
  if (overlay_ != nullptr) {
    overlay_->ransub.start();  // no-op except on the tree root
    detector_.start_background_scan();
  }
  arm_detection();
  if (config_.background_period > 0) {
    arm_background_timer(config_.background_period);
  }
}

bool IdeaNode::write(std::string content, double meta_delta) {
  if (resolution_.busy()) {
    // §4.4.1: updates are blocked while a resolution is in flight, to
    // prevent writes on top of a state being replaced.
    ++blocked_writes_;
    return false;
  }
  const SimTime local_now = transport_.local_time(self_);
  store_.apply_local(local_now, std::move(content), meta_delta);
  note_replica_activity();
  if (overlay_ != nullptr && config_.detect_on_write) probe();
  return true;
}

std::vector<replica::Update> IdeaNode::read(bool trigger_detection) {
  if (trigger_detection) probe();
  return store_.ordered_contents();
}

std::shared_ptr<const replica::ContentsView> IdeaNode::read_view(
    bool trigger_detection) {
  if (trigger_detection) probe();
  return store_.contents_snapshot();
}

void IdeaNode::note_replica_activity() {
  if (overlay_ == nullptr) {
    wake_detection();
    return;
  }
  const SimTime now = transport_.now();
  overlay_->temperature.record_update(file_, now);
  overlay_->two_layer.note_self(
      file_, overlay_->temperature.temperature(file_, now), now);
}

void IdeaNode::set_consistency_metric(double max_numerical, double max_order,
                                      double max_staleness_sec) {
  config_.maxima = vv::TripleMaxima{max_numerical, max_order,
                                    max_staleness_sec};
  assert(config_.maxima.valid());
}

void IdeaNode::set_weight(double w_numerical, double w_order,
                          double w_staleness) {
  config_.weights = vv::TripleWeights{w_numerical, w_order, w_staleness};
  assert(config_.weights.valid());
}

void IdeaNode::set_resolution(int policy) {
  assert(policy >= 1 && policy <= 3);
  config_.resolution.policy.policy = static_cast<ResolutionPolicy>(policy);
}

void IdeaNode::set_hint(double hint) { controller_.set_hint(hint); }

bool IdeaNode::demand_active_resolution() {
  return resolution_.start_active();
}

void IdeaNode::set_background_freq(double hz) {
  if (hz <= 0.0) {
    arm_background_timer(0);
  } else {
    arm_background_timer(sec_f(1.0 / hz));
  }
}

void IdeaNode::user_unsatisfied() {
  controller_.user_unsatisfied(transport_.now());
}

void IdeaNode::user_adjust_weights(double w_numerical, double w_order,
                                   double w_staleness) {
  set_weight(w_numerical, w_order, w_staleness);
}

std::vector<NodeId> IdeaNode::top_layer() const {
  if (overlay_ == nullptr) return group_ranks_;
  return overlay_->two_layer.top_layer(file_, transport_.now());
}

void IdeaNode::probe(detect::InconsistencyDetector::DetectCallback cb) {
  detector_.detect([this, cb = std::move(cb)](
                       const detect::DetectionResult& result) {
    on_detection(result);
    if (cb) cb(result);
  });
}

void IdeaNode::arm_detection() {
  if (detection_timer_ != 0 || config_.detection_period <= 0) return;
  detection_timer_ = transport_.call_every(config_.detection_period,
                                           [this] { detection_round(); });
}

void IdeaNode::detection_round() {
  if (overlay_ != nullptr) {
    probe();
    return;
  }
  // Park after a clean round that nothing touched: no write, ingest or
  // divergent probe since the previous round began or while this one ran.
  const bool quiet = !woken_;
  woken_ = false;
  probe([this, quiet](const detect::DetectionResult& result) {
    if (!quiet || woken_ || !clean_round(result) || detection_timer_ == 0) {
      return;
    }
    transport_.cancel_call(detection_timer_);
    detection_timer_ = 0;
  });
}

void IdeaNode::wake_detection() {
  woken_ = true;
  arm_detection();
}

void IdeaNode::on_detection(const detect::DetectionResult& result) {
  LevelSample sample;
  sample.level = consistency_level(result.triple, config_.weights,
                                   config_.maxima);
  sample.triple = result.triple;
  sample.conflict = result.conflict;
  sample.reference = result.reference;
  sample.at = transport_.now();
  level_ = sample;
  // A parked group stack keeps serving its last level, so only a clean
  // round may leave the timer parked.
  if (overlay_ == nullptr && !clean_round(result)) arm_detection();
  controller_.observe_level(sample.level, sample.at, sample.conflict);
  if (on_level_) on_level_(sample);
}

void IdeaNode::on_scan_report(const detect::ScanReport& report) {
  // Quantify our state against the reporter's: the bottom layer's verdict.
  const vv::TactTriple triple =
      store_.evv().triple_against(report.reporter_evv);
  const double bottom_level =
      consistency_level(triple, config_.weights, config_.maxima);
  const double top_level = level_.level;
  if (std::abs(bottom_level - top_level) <= config_.discrepancy_threshold) {
    return;  // §4.4.2: sufficiently close — keep the top-layer result.
  }
  DiscrepancyAlert alert;
  alert.top_layer_level = top_level;
  alert.bottom_layer_level = bottom_level;
  alert.reporter = report.reporter;
  alert.at = transport_.now();

  const double acceptable = controller_.hint();
  if (bottom_level < acceptable) {
    if (config_.auto_rollback) {
      const SimTime cutoff =
          store_.evv().last_consistent_time(report.reporter_evv);
      const std::size_t dropped = store_.rollback_to(cutoff);
      alert.rolled_back = dropped > 0;
      IDEA_LOG(kInfo) << node_name(self_) << " rolled back " << dropped
                      << " updates after bottom-layer discrepancy";
    }
    demand_active_resolution();
  }
  if (on_discrepancy_) on_discrepancy_(alert);
}

void IdeaNode::arm_background_timer(SimDuration period) {
  if (background_timer_ != 0) {
    transport_.cancel_call(background_timer_);
    background_timer_ = 0;
  }
  background_period_ = period;
  if (period > 0) {
    background_timer_ =
        transport_.call_every(period, [this] { background_tick(); });
  }
}

void IdeaNode::background_tick() {
  // "One replica (chosen by IDEA) in the top layer acts as the initiator"
  // (§4.5.2): the lowest-id top-layer member is the designated initiator;
  // everyone runs the timer, only the designee fires.
  const std::vector<NodeId> tl = current_top_layer();
  if (tl.empty()) return;
  if (tl.front() != self_) return;
  resolution_.start_background();
}

std::vector<NodeId> IdeaNode::current_top_layer() {
  if (overlay_ == nullptr) return group_ranks_;
  const SimTime now = transport_.now();
  // Keep our own advertisement fresh before consulting the view.
  overlay_->two_layer.note_self(
      file_, overlay_->temperature.temperature(file_, now), now);
  return overlay_->two_layer.top_layer(file_, now);
}

}  // namespace idea::core
