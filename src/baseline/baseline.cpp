#include "baseline/baseline.hpp"

#include <algorithm>
#include <cassert>

namespace idea::baseline {

namespace {

struct UpdateBatch {
  std::vector<replica::Update> updates;
  vv::VersionVector sender_counts;  ///< For push-pull reconciliation.
};

std::uint32_t batch_bytes(const UpdateBatch& b) {
  std::uint32_t bytes = 64;
  for (const auto& u : b.updates) bytes += u.wire_bytes();
  return bytes;
}

struct StrongSubmit {
  std::uint64_t client_tag;
  std::string content;
  double meta_delta;
};

struct StrongReplicate {
  std::uint64_t commit_id;
  replica::Update update;
};

struct StrongReplicaAck {
  std::uint64_t commit_id;
};

struct StrongCommitted {
  std::uint64_t client_tag;
};

}  // namespace

const net::MsgType OptimisticNode::kRequestType =
    net::MsgType::intern("optimistic.request");
const net::MsgType OptimisticNode::kPushType =
    net::MsgType::intern("optimistic.push");
const net::MsgType OptimisticNode::kPullType =
    net::MsgType::intern("optimistic.pull");
const net::MsgType StrongNode::kSubmitType =
    net::MsgType::intern("strong.submit");
const net::MsgType StrongNode::kReplicateType =
    net::MsgType::intern("strong.replicate");
const net::MsgType StrongNode::kReplicaAckType =
    net::MsgType::intern("strong.replica_ack");
const net::MsgType StrongNode::kCommittedType =
    net::MsgType::intern("strong.committed");
const net::MsgType TactNode::kPushType = net::MsgType::intern("tact.push");

// ---------------------------------------------------------------------------
// OptimisticNode
// ---------------------------------------------------------------------------

OptimisticNode::OptimisticNode(NodeId self, FileId file,
                               net::Transport& transport,
                               OptimisticParams params, std::uint64_t seed)
    : BaselineNode(self, file, transport), params_(params), rng_(seed) {
  assert(params_.nodes > 1);
}

OptimisticNode::~OptimisticNode() {
  if (timer_ != 0) transport_.cancel_call(timer_);
}

void OptimisticNode::write(std::string content, double meta_delta,
                           std::function<void()> done) {
  store_.apply_local(transport_.local_time(self_), std::move(content),
                     meta_delta);
  if (done) done();  // optimistic: committed the moment it is local
}

void OptimisticNode::start() {
  timer_ = transport_.call_every(params_.anti_entropy_period,
                                 [this] { anti_entropy_round(); });
}

void OptimisticNode::anti_entropy_round() {
  // Classic Bayou session with a random partner: send our version vector,
  // the partner answers with the updates we miss (plus its own vector), and
  // we complete the push-pull with what it misses.  Three messages total.
  const NodeId peer = [&] {
    auto r = static_cast<NodeId>(rng_.next_below(params_.nodes - 1));
    return r >= self_ ? r + 1 : r;
  }();
  net::Message m;
  m.from = self_;
  m.to = peer;
  m.file = file_;
  m.type = kRequestType;
  m.wire_bytes = 64;
  m.payload = store_.evv().counts();
  transport_.send(std::move(m));
}

void OptimisticNode::on_message(const net::Message& msg) {
  if (msg.type == kRequestType) {
    const auto& peer_counts =
        msg.payload.as<vv::VersionVector>();
    UpdateBatch reply;
    reply.sender_counts = store_.evv().counts();
    reply.updates = store_.updates_ahead_of(peer_counts);
    net::Message m;
    m.from = self_;
    m.to = msg.from;
    m.file = file_;
    m.type = kPushType;
    m.wire_bytes = batch_bytes(reply);
    m.payload = std::move(reply);
    transport_.send(std::move(m));
  } else if (msg.type == kPushType) {
    const auto& batch = msg.payload.as<UpdateBatch>();
    for (const auto& u : batch.updates) {
      if (!store_.has(u.key)) store_.apply_remote(u);
    }
    // Pull half of the session: send back what the partner is missing.
    UpdateBatch reply;
    reply.sender_counts = store_.evv().counts();
    reply.updates = store_.updates_ahead_of(batch.sender_counts);
    if (!reply.updates.empty()) {
      net::Message m;
      m.from = self_;
      m.to = msg.from;
      m.file = file_;
      m.type = kPullType;
      m.wire_bytes = batch_bytes(reply);
      m.payload = std::move(reply);
      transport_.send(std::move(m));
    }
  } else if (msg.type == kPullType) {
    const auto& batch = msg.payload.as<UpdateBatch>();
    for (const auto& u : batch.updates) {
      if (!store_.has(u.key)) store_.apply_remote(u);
    }
  }
}

// ---------------------------------------------------------------------------
// StrongNode
// ---------------------------------------------------------------------------

StrongNode::StrongNode(NodeId self, FileId file, net::Transport& transport,
                       StrongParams params)
    : BaselineNode(self, file, transport), params_(params) {
  assert(params_.nodes > 0);
}

StrongNode::~StrongNode() = default;

void StrongNode::write(std::string content, double meta_delta,
                       std::function<void()> done) {
  const std::uint64_t tag = next_tag_++;
  if (done) local_waiting_[tag] = std::move(done);
  if (self_ == params_.primary) {
    primary_apply_and_replicate(self_, tag, std::move(content), meta_delta);
    return;
  }
  net::Message m;
  m.from = self_;
  m.to = params_.primary;
  m.file = file_;
  m.type = kSubmitType;
  m.wire_bytes = static_cast<std::uint32_t>(48 + content.size());
  m.payload = StrongSubmit{tag, std::move(content), meta_delta};
  transport_.send(std::move(m));
}

void StrongNode::primary_apply_and_replicate(NodeId origin,
                                             std::uint64_t client_tag,
                                             std::string content,
                                             double meta_delta) {
  // The primary is the only writer in the store's eyes: a single total
  // order, so version vectors never conflict.  A copy: the store's
  // reference lasts only until its next mutation.
  const replica::Update u = store_.apply_local(
      transport_.local_time(self_), std::move(content), meta_delta);
  const std::uint64_t commit_id = next_commit_id_++;
  PendingCommit pc;
  pc.origin = origin;
  pc.client_tag = client_tag;
  pc.acks_needed = params_.nodes - 1;
  if (pc.acks_needed == 0) {
    // Single-replica deployment: committed immediately.
    if (origin == self_) {
      auto it = local_waiting_.find(client_tag);
      if (it != local_waiting_.end()) {
        it->second();
        local_waiting_.erase(it);
      }
    }
    return;
  }
  pending_[commit_id] = std::move(pc);
  for (NodeId n = 0; n < params_.nodes; ++n) {
    if (n == self_) continue;
    net::Message m;
    m.from = self_;
    m.to = n;
    m.file = file_;
    m.type = kReplicateType;
    m.wire_bytes = 32 + u.wire_bytes();
    m.payload = StrongReplicate{commit_id, u};
    transport_.send(std::move(m));
  }
}

void StrongNode::on_message(const net::Message& msg) {
  if (msg.type == kSubmitType) {
    const auto& s = msg.payload.as<StrongSubmit>();
    primary_apply_and_replicate(msg.from, s.client_tag, s.content,
                                s.meta_delta);
  } else if (msg.type == kReplicateType) {
    const auto& r = msg.payload.as<StrongReplicate>();
    if (!store_.has(r.update.key)) store_.apply_remote(r.update);
    net::Message ack;
    ack.from = self_;
    ack.to = msg.from;
    ack.file = file_;
    ack.type = kReplicaAckType;
    ack.wire_bytes = 16;
    ack.payload = StrongReplicaAck{r.commit_id};
    transport_.send(std::move(ack));
  } else if (msg.type == kReplicaAckType) {
    const auto& a = msg.payload.as<StrongReplicaAck>();
    auto it = pending_.find(a.commit_id);
    if (it == pending_.end()) return;
    if (--it->second.acks_needed > 0) return;
    const PendingCommit pc = it->second;
    pending_.erase(it);
    if (pc.origin == self_) {
      auto wit = local_waiting_.find(pc.client_tag);
      if (wit != local_waiting_.end()) {
        wit->second();
        local_waiting_.erase(wit);
      }
    } else {
      net::Message m;
      m.from = self_;
      m.to = pc.origin;
      m.file = file_;
      m.type = kCommittedType;
      m.wire_bytes = 16;
      m.payload = StrongCommitted{pc.client_tag};
      transport_.send(std::move(m));
    }
  } else if (msg.type == kCommittedType) {
    const auto& c = msg.payload.as<StrongCommitted>();
    auto it = local_waiting_.find(c.client_tag);
    if (it != local_waiting_.end()) {
      it->second();
      local_waiting_.erase(it);
    }
  }
}

// ---------------------------------------------------------------------------
// TactNode
// ---------------------------------------------------------------------------

TactNode::TactNode(NodeId self, FileId file, net::Transport& transport,
                   TactParams params)
    : BaselineNode(self, file, transport), params_(params),
      peer_seen_(params.nodes, 0) {
  assert(params_.nodes > 1);
}

TactNode::~TactNode() {
  if (timer_ != 0) transport_.cancel_call(timer_);
}

void TactNode::write(std::string content, double meta_delta,
                     std::function<void()> done) {
  store_.apply_local(transport_.local_time(self_), std::move(content),
                     meta_delta);
  check_bounds();
  if (done) done();
}

void TactNode::start() {
  timer_ = transport_.call_every(params_.check_period,
                                 [this] { check_bounds(); });
}

void TactNode::check_bounds() {
  const std::uint64_t my_seq = store_.local_seq();
  const SimTime now = transport_.now();
  for (NodeId peer = 0; peer < params_.nodes; ++peer) {
    if (peer == self_) continue;
    const std::uint64_t unseen = my_seq - peer_seen_[peer];
    if (unseen == 0) continue;
    bool must_push = unseen >= params_.order_bound;
    if (!must_push) {
      // Staleness bound: oldest unseen update too old?
      const SimTime oldest =
          store_.evv().stamp_of(self_, peer_seen_[peer] + 1);
      if (oldest != kNever && now - oldest >= params_.staleness_bound) {
        must_push = true;
      }
    }
    if (must_push) push_to(peer);
  }
}

void TactNode::push_to(NodeId peer) {
  UpdateBatch batch;
  vv::VersionVector assumed;
  assumed.set(self_, peer_seen_[peer]);
  // Push only our own pending updates; relayed third-party updates travel
  // via their writers' own bounds.
  for (const auto& u : store_.updates_ahead_of(assumed)) {
    if (u.key.writer == self_) batch.updates.push_back(u);
  }
  if (batch.updates.empty()) return;
  batch.sender_counts = store_.evv().counts();
  peer_seen_[peer] = store_.local_seq();
  net::Message m;
  m.from = self_;
  m.to = peer;
  m.file = file_;
  m.type = kPushType;
  m.wire_bytes = batch_bytes(batch);
  m.payload = std::move(batch);
  transport_.send(std::move(m));
}

void TactNode::on_message(const net::Message& msg) {
  if (msg.type != kPushType) return;
  const auto& batch = msg.payload.as<UpdateBatch>();
  for (const auto& u : batch.updates) {
    if (!store_.has(u.key)) store_.apply_remote(u);
  }
}

}  // namespace idea::baseline
