#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <unordered_map>

#include "client/session.hpp"
#include "runtime/fleet.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/engine.hpp"

namespace repobench {
namespace {

using idea::FileId;
using idea::NodeId;
using idea::SimDuration;
using idea::SimTime;
using idea::client::ConsistencyLevel;
using idea::client::Level;
using idea::client::WriteConcern;
using idea::shard::ShardedCluster;

/// The benchmark advances the sim clock in slices of this length; on the
/// fleet it is the runtime's epoch, so one slice is one epoch.
constexpr SimDuration kSlice = idea::msec(50);

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return idea::mix64(h ^ idea::mix64(v + 0x9E3779B97F4A7C15ull));
}

// ---------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------

/// One open-loop client tenant: its sessions' options and its load.
struct TenantDef {
  idea::client::SessionOptions options;
  double ops_per_sec = 0.0;
};

idea::client::SessionOptions tenant(ConsistencyLevel level,
                                    WriteConcern concern = {}) {
  idea::client::SessionOptions o;
  o.level = level;
  o.write_concern = concern;
  return o;
}

/// One tenant per consistency level, w=1 writes.
std::vector<TenantDef> four_levels(double ops_per_sec) {
  return {{tenant(ConsistencyLevel::strong()), ops_per_sec},
          {tenant(ConsistencyLevel::bounded_staleness(2)), ops_per_sec},
          {tenant(ConsistencyLevel::eventual_nearest()), ops_per_sec},
          {tenant(ConsistencyLevel::quorum()), ops_per_sec}};
}

/// What every tenant of a workload shares.
struct Shape {
  std::vector<TenantDef> tenants;
  double read_fraction = 0.7;
  double zipf_s = 1.0;
  /// The hot keys move this many times during the load phase, to evenly
  /// spaced offsets (2: to the other half of the keys at mid-run).
  std::uint32_t hot_phases = 1;
};

/// Timing of one run, on the sim clock.  The management-plane events
/// happen at the same fractions of the load phase on every workload, and
/// writes pause for kMaintenance before each one — a maintenance window,
/// so no w>1 write is still in flight when its coordinator goes away.
struct Timeline {
  SimDuration load = 0;        ///< Arrivals happen in [0, load).
  SimDuration tail = 0;        ///< Drain with no arrivals afterwards.
  SimDuration ckpt_every = 0;  ///< Checkpoint pass period.

  static constexpr double kCrash = 0.30;
  static constexpr double kRestart = 0.40;
  static constexpr double kLeave = 0.70;
  static constexpr double kJoin = 0.80;
  static constexpr SimDuration kMaintenance = idea::msec(500);

  [[nodiscard]] SimTime end() const { return load + tail; }
  [[nodiscard]] SimTime at(double fraction) const {
    return static_cast<SimTime>(fraction * static_cast<double>(load));
  }
};

/// Two engine tenants per client tenant: its reads (spec 2t) and its
/// writes (spec 2t+1), so writes alone pause in maintenance windows.
std::vector<idea::workload::TenantSpec> tenant_specs(
    const Shape& shape, std::uint32_t keys, std::uint32_t origins,
    const Timeline& tl) {
  std::vector<idea::workload::RatePhase> write_phases{{0, 1.0}};
  for (const double f : {Timeline::kCrash, Timeline::kRestart,
                         Timeline::kLeave, Timeline::kJoin}) {
    write_phases.push_back({tl.at(f) - Timeline::kMaintenance, 0.0});
    write_phases.push_back({tl.at(f), 1.0});
  }
  std::vector<idea::workload::TenantSpec> specs;
  std::vector<NodeId> all(origins);
  for (NodeId i = 0; i < origins; ++i) all[i] = i;
  for (const TenantDef& t : shape.tenants) {
    idea::workload::TenantSpec spec;
    spec.keys = keys;
    spec.zipf = {{0, shape.zipf_s}};
    for (std::uint32_t i = 0; i < shape.hot_phases; ++i) {
      spec.hotspot.push_back(
          {tl.at(static_cast<double>(i) / shape.hot_phases),
           static_cast<std::uint32_t>(std::uint64_t{keys} * i /
                                      shape.hot_phases)});
    }
    spec.origins = all;
    spec.read_fraction = 1.0;
    spec.rate = {{0, t.ops_per_sec * shape.read_fraction}};
    specs.push_back(spec);
    spec.read_fraction = 0.0;
    spec.rate = write_phases;
    for (idea::workload::RatePhase& p : spec.rate) {
      p.ops_per_sec *= t.ops_per_sec * (1.0 - shape.read_fraction);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

idea::shard::ShardedClusterConfig base_config(std::uint32_t endpoints,
                                              std::uint64_t seed) {
  idea::shard::ShardedClusterConfig cfg;
  cfg.endpoints = endpoints;
  cfg.replication = 3;
  // The seed picks the whole deployment: topology (the latency model's
  // node coordinates), ring points and the transport's jitter stream, as
  // well as the client arrivals.
  cfg.seed = idea::mix64(seed ^ 0xC1u);
  cfg.latency.placement_seed = idea::mix64(seed ^ 0xC2u);
  cfg.ring.seed = idea::mix64(seed ^ 0xC3u);
  cfg.transport.seed = idea::mix64(seed ^ 0xC4u);
  cfg.sync_sizes();
  cfg.idea.maxima = idea::vv::TripleMaxima{100, 100, 100};
  cfg.idea.controller.mode = idea::core::AdaptiveMode::kOnDemand;
  cfg.idea.controller.hint = 0.0;
  cfg.idea.detection_period = idea::sec(2);
  // Checkpoint passes are driven by the benchmark (no periodic timers).
  cfg.checkpoint.engine = idea::replica::CheckpointEngineKind::kIncremental;
  cfg.checkpoint.period = 0;
  return cfg;
}

}  // namespace

void ClientOutcome::violation(std::string what) {
  if (violations.size() < 8) {
    violations.push_back(std::move(what));
  } else if (violations.size() == 8) {
    violations.push_back("...");
  }
}

void ClientOutcome::merge(const ClientOutcome& o) {
  read_latency.insert(read_latency.end(), o.read_latency.begin(),
                      o.read_latency.end());
  write_latency.insert(write_latency.end(), o.write_latency.begin(),
                       o.write_latency.end());
  ops += o.ops;
  reads_attempted += o.reads_attempted;
  reads_served += o.reads_served;
  stale_reads += o.stale_reads;
  writes_attempted += o.writes_attempted;
  cache_hits += o.cache_hits;
  failures.blocked_writes += o.failures.blocked_writes;
  failures.unmet_concerns += o.failures.unmet_concerns;
  failures.unresolved_writes += o.failures.unresolved_writes;
  failures.failed_reads += o.failures.failed_reads;
  failures.unreplied_remote += o.failures.unreplied_remote;
  oracle_checks += o.oracle_checks;
  strong_failover_misses += o.strong_failover_misses;
  for (const std::string& v : o.violations) violation(v);
}

namespace {

// ---------------------------------------------------------------------
// Client tier: one session per (tenant, origin), per-op oracles
// ---------------------------------------------------------------------

const char* read_span(Level level) {
  switch (level) {
    case Level::kStrong: return "client.read.strong";
    case Level::kBoundedStaleness: return "client.read.bounded";
    case Level::kEventualNearest: return "client.read.eventual";
    case Level::kQuorum: return "client.read.quorum";
  }
  return "client.read.other";
}

class ClientTier {
 public:
  ClientTier(ShardedCluster& cluster, const Shape& shape,
               std::uint32_t origins, std::vector<FileId> files,
               std::string prefix, SpanLog* log)
      : cluster_(cluster),
        files_(std::move(files)),
        prefix_(std::move(prefix)),
        log_(log) {
    idea::client::Client client(cluster);
    for (std::uint32_t t = 0; t < shape.tenants.size(); ++t) {
      sessions_.emplace_back();
      for (NodeId origin = 0; origin < origins; ++origin) {
        idea::client::SessionOptions opts = shape.tenants[t].options;
        opts.origin = origin;
        opts.declare_slo = opts.declare_slo && origin == 0;
        sessions_.back().push_back(client.session(opts));
      }
    }
  }

  ClientTier(const ClientTier&) = delete;
  ClientTier& operator=(const ClientTier&) = delete;

  void issue(const idea::workload::Op& op) {
    idea::client::ClientSession& s = sessions_[op.tenant / 2][op.origin];
    const FileId file = files_[op.key];
    const std::uint64_t id = next_op_++;
    if (op.is_read) {
      read(s, file, id);
    } else {
      write(s, file, prefix_ + std::to_string(op.tenant) + ':' +
                         std::to_string(op.index),
            id);
    }
  }

  /// After the drain: writes never resolved count as failed.
  ClientOutcome finish() {
    tally_.failures.unresolved_writes += pending_writes_;
    tally_.ops = tally_.reads_attempted + tally_.writes_attempted;
    for (const auto& per_tenant : sessions_) {
      for (const auto& s : per_tenant) {
        tally_.cache_hits += s.stats().cache_hits;
      }
    }
    return std::move(tally_);
  }

 private:
  void read(idea::client::ClientSession& s, FileId file, std::uint64_t id) {
    const std::uint64_t hits_before = s.stats().cache_hits;
    idea::client::OpHandle<idea::client::ReadResult> h;
    {
      Scope span(log_, read_span(s.options().level.level), id);
      h = s.read(file);
    }
    ++tally_.reads_attempted;
    if (!h.ok()) {
      ++tally_.failures.failed_reads;
      return;
    }
    ++tally_.reads_served;
    if (h->staleness_versions > 0) ++tally_.stale_reads;
    {
      Scope span(log_, "bench.oracle", id);
      check_read(s, file, *h, s.stats().cache_hits != hits_before);
    }
    h.on_complete([this, id](const idea::client::OpHandle<
                             idea::client::ReadResult>& done) {
      Scope span(log_, "client.complete", id);
      tally_.read_latency.push_back(done.latency());
    });
  }

  void write(idea::client::ClientSession& s, FileId file, std::string content,
             std::uint64_t id) {
    idea::client::OpHandle<idea::client::WriteAck> h;
    {
      Scope span(log_, "client.put", id);
      h = s.put(file, content, 1.0);
    }
    ++tally_.writes_attempted;
    ++pending_writes_;
    const bool majority = s.options().write_concern == WriteConcern::majority();
    h.on_complete([this, id, file, majority, content = std::move(content)](
                      const idea::client::OpHandle<idea::client::WriteAck>&
                          done) {
      Scope span(log_, "client.complete", id);
      --pending_writes_;
      if (!done.ok()) {
        ++(done->applied ? tally_.failures.unmet_concerns
                         : tally_.failures.blocked_writes);
        return;
      }
      tally_.write_latency.push_back(done.latency());
      if (majority) {
        last_acked_[file] = {content, done->coordinator,
                             cluster_.incarnation(done->coordinator)};
      }
    });
  }

  /// Bounded reads stay within their bound unless escalated; strong and
  /// quorum reads hold the file's last acknowledged w=majority write.
  void check_read(idea::client::ClientSession& s, FileId file,
                  const idea::client::ReadResult& r, bool cache_hit) {
    const idea::client::SessionOptions& o = s.options();
    if (r.effective_level == Level::kBoundedStaleness && !r.escalated) {
      ConsistencyLevel bound = o.level;
      if (o.adaptive && cluster_.controller() != nullptr) {
        const ConsistencyLevel eff =
            cluster_.controller()->effective_level(file, o.tenant, o.level);
        if (eff.level == Level::kBoundedStaleness) bound = eff;
      }
      ++tally_.oracle_checks;
      if (r.staleness_versions > bound.max_versions ||
          (bound.max_age > 0 && r.staleness_age > bound.max_age)) {
        tally_.violation("bounded read of file " + std::to_string(file) +
                         " at " + std::to_string(cluster_.sim().now()) +
                         "us served " + std::to_string(r.staleness_versions) +
                         "v/" + std::to_string(r.staleness_age) +
                         "us stale past " + bound.describe());
      }
    }
    if (cache_hit || (r.effective_level != Level::kStrong &&
         r.effective_level != Level::kQuorum)) {
      return;
    }
    const auto it = last_acked_.find(file);
    if (it == last_acked_.end()) return;
    const AckedWrite& w = it->second;
    // Canonical order is by stamp, so a recent write sits near the end.
    const auto& updates = *r.updates;
    for (auto u = updates.rbegin(); u != updates.rend(); ++u) {
      if (u->content == w.content) {
        ++tally_.oracle_checks;
        return;
      }
    }
    // Quorum reads intersect every w=majority write quorum whatever single
    // endpoint failed.  Strong reads promise only the writes their
    // serving coordinator acked in its current life ("as long as the
    // coordinator lives"); a miss across a failover or restart is counted,
    // not failed.
    const bool promised =
        r.effective_level == Level::kQuorum ||
        (r.served_by == w.coordinator &&
         cluster_.incarnation(r.served_by) == w.incarnation);
    if (!promised) {
      ++tally_.strong_failover_misses;
      return;
    }
    ++tally_.oracle_checks;
    tally_.violation(std::string(r.effective_level == Level::kStrong
                                     ? "strong"
                                     : "quorum") +
                     " read of file " + std::to_string(file) + " at " +
                     std::to_string(cluster_.sim().now()) +
                     "us misses acknowledged write " + w.content);
  }

  /// The last acknowledged write of a file and who acknowledged it.
  struct AckedWrite {
    std::string content;
    NodeId coordinator = idea::kNoNode;
    std::uint32_t incarnation = 0;
  };

  ShardedCluster& cluster_;
  std::vector<FileId> files_;  ///< Engine key -> file.
  std::string prefix_;         ///< Makes write contents unique per tier.
  SpanLog* log_;
  std::vector<std::vector<idea::client::ClientSession>> sessions_;
  /// Per file, its last acknowledged w=majority write.
  std::unordered_map<FileId, AckedWrite> last_acked_;
  std::uint64_t next_op_ = 1;
  std::uint64_t pending_writes_ = 0;
  ClientOutcome tally_;
};

// ---------------------------------------------------------------------
// Management plane: checkpoints, crash/restart, leave/join
// ---------------------------------------------------------------------

struct ManagementTally {
  std::uint64_t ckpt_passes = 0;
  std::uint64_t gap_updates = 0;
  std::uint64_t hinted_updates = 0;
  std::uint64_t files_migrated = 0;
  std::uint64_t stream_msgs = 0;
};

/// Runs `fn` on the cluster at sim time `t` (directly, or through the
/// fleet so it executes inside the owning segment's epoch task).
using At = std::function<void(SimTime,
                              std::function<void(ShardedCluster&)>)>;

/// `files` (in engine key order) by popularity at `fraction` of the load
/// phase, hottest first.
std::vector<FileId> by_rank(std::vector<FileId> files, const Shape& shape,
                            double fraction) {
  const auto phase = static_cast<std::size_t>(
      fraction * static_cast<double>(shape.hot_phases));
  std::rotate(files.begin(),
              files.begin() + static_cast<std::ptrdiff_t>(
                                  files.size() * phase / shape.hot_phases),
              files.end());
  return files;
}

/// The live endpoint whose coordinated files carry the most traffic
/// (Zipf weight by key rank), lowest id on ties.
NodeId coordinator_heavy(ShardedCluster& c, const std::vector<FileId>& files,
                         double zipf_s) {
  std::unordered_map<NodeId, double> load;
  for (std::size_t rank = 0; rank < files.size(); ++rank) {
    load[c.coordinator_endpoint(files[rank])] +=
        1.0 / std::pow(static_cast<double>(rank + 1), zipf_s);
  }
  NodeId best = idea::kNoNode;
  double best_load = -1.0;
  for (const NodeId ep : c.endpoints()) {
    const double l = load.count(ep) ? load[ep] : 0.0;
    if (l > best_load) {
      best = ep;
      best_load = l;
    }
  }
  return best;
}

void schedule_checkpoints(const At& at, const Timeline& tl, SpanLog* log,
                          ManagementTally& tally) {
  for (SimTime t = tl.ckpt_every; t < tl.end(); t += tl.ckpt_every) {
    at(t, [log, &tally](ShardedCluster& c) {
      for (const NodeId ep : c.endpoints()) {
        Scope span(log, "ckpt.pass");
        c.checkpoint_endpoint(ep);
        ++tally.ckpt_passes;
      }
    });
  }
}

/// Crash the coordinator-heavy endpoint, restart it later.
void schedule_crash(const At& at, const Timeline& tl,
                    const std::vector<FileId>& files, double zipf_s,
                    SpanLog* log, ManagementTally& tally) {
  auto victim = std::make_shared<NodeId>(idea::kNoNode);
  at(tl.at(Timeline::kCrash), [=](ShardedCluster& c) {
    *victim = coordinator_heavy(c, files, zipf_s);
    Scope span(log, "fault.crash");
    c.crash_endpoint(*victim);
  });
  at(tl.at(Timeline::kRestart), [=, &tally](ShardedCluster& c) {
    idea::shard::RecoveryReport r;
    {
      Scope span(log, "fault.restart");
      r = c.restart_endpoint(*victim);
    }
    tally.gap_updates += r.gap_updates;
    tally.hinted_updates += r.hinted_updates;
  });
}

/// The coordinator-heavy endpoint leaves (so the hottest files migrate on
/// every seed), then a new one joins, reusing its id.
void schedule_churn(const At& at, const Timeline& tl,
                    const std::vector<FileId>& files, double zipf_s,
                    SpanLog* log, ManagementTally& tally) {
  at(tl.at(Timeline::kLeave), [=, &tally](ShardedCluster& c) {
    idea::shard::MembershipChange ch;
    const NodeId leaver = coordinator_heavy(c, files, zipf_s);
    {
      Scope span(log, "membership.remove");
      ch = c.remove_endpoint(leaver);
    }
    tally.files_migrated += ch.files_migrated;
    tally.stream_msgs += ch.stream_messages;
  });
  at(tl.at(Timeline::kJoin), [=, &tally](ShardedCluster& c) {
    idea::shard::MembershipChange ch;
    {
      Scope span(log, "membership.add");
      ch = c.add_endpoint();
    }
    tally.files_migrated += ch.files_migrated;
    tally.stream_msgs += ch.stream_messages;
  });
}

// ---------------------------------------------------------------------
// Result assembly
// ---------------------------------------------------------------------

/// Counters summed over one or more clusters (the fleet's segments).
struct ClusterCounters {
  std::uint64_t events = 0;
  std::uint64_t pool = 0;
  std::uint64_t logical = 0;
  std::uint64_t bytes = 0;
  std::uint64_t envelopes = 0;
  double queue_wait_us = 0.0;
  std::uint64_t detect = 0, resolve = 0, gossip = 0, ransub = 0, shard = 0,
                optimistic = 0;
  idea::shard::RouterStats router;
  idea::shard::ReplicaSyncStats sync;
  double log_updates = 0.0;
  std::uint64_t replicas = 0;
  idea::replica::CheckpointRunStats ckpt;
  std::uint64_t hints_queued = 0, hints_drained = 0;
  idea::adapt::ControllerStats adapt;

  void add(ShardedCluster& c, const std::vector<FileId>& files) {
    events += c.sim().events_processed();
    pool += c.sim().pool_size();
    const idea::net::MessageCounters& m = c.batching()->counters();
    logical += m.total_messages();
    bytes += m.total_bytes();
    envelopes += c.batching()->stats().envelopes;
    queue_wait_us +=
        static_cast<double>(c.batching()->stats().queue_wait_total);
    detect += m.messages_with_prefix("detect.");
    resolve += m.messages_with_prefix("resolve.");
    gossip += m.messages_with_prefix("gossip.");
    ransub += m.messages_with_prefix("ransub.");
    shard += m.messages_with_prefix("shard.");
    optimistic += m.messages_with_prefix("optimistic.");
    const idea::shard::RouterStats& r = c.router().stats();
    router.reads += r.reads;
    router.bounded_reads += r.bounded_reads;
    router.bounded_escalations += r.bounded_escalations;
    router.adapted_reads += r.adapted_reads;
    router.blocked_writes += r.blocked_writes;
    router.failover_writes += r.failover_writes;
    router.sloppy_writes += r.sloppy_writes;
    for (const FileId f : files) {
      const std::vector<NodeId>* members = c.members_of(f);
      if (members == nullptr) continue;
      for (std::uint32_t rank = 0; rank < members->size(); ++rank) {
        if (const auto* agent = c.sync_agent(f, rank)) {
          const idea::shard::ReplicaSyncStats& s = agent->stats();
          sync.puts += s.puts;
          sync.pushed += s.pushed;
          sync.applied += s.applied;
          sync.redundant += s.redundant;
          sync.ae_rounds += s.ae_rounds;
          sync.repair_updates_sent += s.repair_updates_sent;
          sync.repair_updates_applied += s.repair_updates_applied;
          sync.resends += s.resends;
          sync.resend_gaveups += s.resend_gaveups;
          sync.wack_tracked += s.wack_tracked;
          sync.wack_satisfied += s.wack_satisfied;
        }
        if (const auto* node = c.replica_at_rank(f, rank)) {
          log_updates += static_cast<double>(node->store().update_count());
          ++replicas;
        }
      }
    }
    if (const auto* engine = c.checkpoint_engine()) {
      ckpt.files_written += engine->totals().files_written;
      ckpt.files_clean += engine->totals().files_clean;
      ckpt.bytes_written += engine->totals().bytes_written;
    }
    hints_queued += c.hint_store().stats().queued;
    hints_drained += c.hint_store().stats().drained;
    if (const auto* ctl = c.controller()) {
      adapt.ticks += ctl->stats().ticks;
      adapt.escalations += ctl->stats().escalations;
      adapt.relaxations += ctl->stats().relaxations;
      adapt.renegotiations += ctl->stats().renegotiations;
    }
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Fill the client-side and counter-derived fields of `out`.
void assemble(RepResult& out, const std::vector<ClientOutcome>& clients,
              const ClusterCounters& cc, const ManagementTally& mt) {
  for (const ClientOutcome& c : clients) out.client.merge(c);
  const ClientOutcome& cl = out.client;
  out.logical_msgs = cc.logical;
  out.logical_bytes = cc.bytes;

  const double sim_s = out.sim_s;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const idea::shard::ReplicaSyncStats& sy = cc.sync;
  out.layers = {
      {"sim.events_per_sim_s", d(cc.events) / sim_s, "1/s"},
      {"sim.pool_hwm", d(cc.pool), "count"},
      {"net.logical_msgs_per_sim_s", d(cc.logical) / sim_s, "1/s"},
      {"net.envelopes_per_sim_s", d(cc.envelopes) / sim_s, "1/s"},
      {"net.batch_factor", ratio(d(cc.logical), d(cc.envelopes)), "ratio"},
      {"net.queue_wait_us_mean", ratio(cc.queue_wait_us, d(cc.logical)),
       "sim_us"},
      {"net.bytes_per_sim_s", d(cc.bytes) / sim_s, "B/s"},
      {"net.msgs.detect", d(cc.detect), "count"},
      {"net.msgs.resolve", d(cc.resolve), "count"},
      {"net.msgs.gossip", d(cc.gossip), "count"},
      {"net.msgs.ransub", d(cc.ransub), "count"},
      {"net.msgs.shard", d(cc.shard), "count"},
      {"net.msgs.optimistic", d(cc.optimistic), "count"},
      {"overlay.msg_share", ratio(d(cc.gossip + cc.ransub), d(cc.logical)),
       "ratio"},
      {"router.escalation_ratio",
       ratio(d(cc.router.bounded_escalations), d(cc.router.bounded_reads)),
       "ratio"},
      {"router.adapted_reads_ratio",
       ratio(d(cc.router.adapted_reads), d(cc.router.reads)), "ratio"},
      {"client.cache_hit_ratio", ratio(d(cl.cache_hits), d(cl.reads_attempted)),
       "ratio"},
      {"oracle.strong_failover_misses", d(cl.strong_failover_misses),
       "count"},
      {"client.failed_op_frac", ratio(d(cl.failures.total()), d(cl.ops)),
       "ratio"},
      {"router.blocked_writes", d(cc.router.blocked_writes), "count"},
      {"router.failover_writes", d(cc.router.failover_writes), "count"},
      {"router.sloppy_writes", d(cc.router.sloppy_writes), "count"},
      {"sync.pushed_per_write", ratio(d(sy.pushed), d(sy.puts)), "ratio"},
      {"sync.redundant_ratio",
       ratio(d(sy.redundant), d(sy.applied + sy.redundant)), "ratio"},
      {"sync.ae_rounds_per_sim_s", d(sy.ae_rounds) / sim_s, "1/s"},
      {"sync.repair_useful_ratio",
       ratio(d(sy.repair_updates_applied), d(sy.repair_updates_sent)),
       "ratio"},
      {"sync.resends", d(sy.resends), "count"},
      {"sync.resend_gaveups", d(sy.resend_gaveups), "count"},
      {"sync.wack_satisfied_ratio",
       ratio(d(sy.wack_satisfied), d(sy.wack_tracked)), "ratio"},
      {"replica.log_updates_mean", ratio(cc.log_updates, d(cc.replicas)),
       "count"},
      {"ckpt.bytes_per_pass",
       ratio(d(cc.ckpt.bytes_written), d(mt.ckpt_passes)), "B"},
      {"ckpt.clean_ratio",
       ratio(d(cc.ckpt.files_clean),
             d(cc.ckpt.files_clean + cc.ckpt.files_written)),
       "ratio"},
      {"hints.queued", d(cc.hints_queued), "count"},
      {"hints.drained", d(cc.hints_drained), "count"},
      {"recovery.gap_updates", d(mt.gap_updates), "count"},
      {"recovery.hinted_updates", d(mt.hinted_updates), "count"},
      {"adapt.ticks", d(cc.adapt.ticks), "count"},
      {"adapt.escalations", d(cc.adapt.escalations), "count"},
      {"adapt.relaxations", d(cc.adapt.relaxations), "count"},
      {"adapt.renegotiations", d(cc.adapt.renegotiations), "count"},
      {"membership.files_migrated", d(mt.files_migrated), "count"},
      {"membership.stream_msgs", d(mt.stream_msgs), "count"},
      {"runtime.cpu_per_wall", ratio(out.run_cpu_s, out.run_wall_s), "ratio"},
  };
}

/// Evenly spaced sample of `files` (at most `n`), offset by the seed.
std::vector<FileId> sample_files(const std::vector<FileId>& files,
                                 std::size_t n, std::uint64_t seed) {
  std::vector<FileId> out;
  if (files.empty()) return out;
  const std::size_t stride = std::max<std::size_t>(1, files.size() / n);
  for (std::size_t i = seed % stride; i < files.size() && out.size() < n;
       i += stride) {
    out.push_back(files[i]);
  }
  return out;
}

/// Wall seconds `fn` takes, recorded as span `name` when tracing.
template <typename Fn>
double timed_s(SpanLog* log, const char* name, Fn&& fn) {
  Scope span(log, name);
  const std::int64_t t0 = now_ns();
  fn();
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

// ---------------------------------------------------------------------
// Single-cluster workloads (idle_catalog, hot_mixed)
// ---------------------------------------------------------------------

/// Both single-cluster workloads run on 32 endpoints.
constexpr std::uint32_t kClusterEndpoints = 32;

struct ClusterWorkload {
  std::uint32_t files = 0;
  Shape shape;
  Timeline timeline;
  std::function<void(idea::shard::ShardedClusterConfig&)> configure;
  /// Scripted faults on the transport beyond the management plane.
  std::function<void(ShardedCluster&, const Timeline&)> faults;
};

RepResult run_cluster(const ClusterWorkload& w, const RunConfig& rc,
                      Tracing* tracing) {
  SpanLog* log = nullptr;
  if (tracing != nullptr) {
    tracing->logs.assign(1, SpanLog(0));
    log = &tracing->logs[0];
  }
  RepResult out;
  out.files = w.files;
  idea::shard::ShardedClusterConfig cfg =
      base_config(kClusterEndpoints, rc.seed);
  w.configure(cfg);

  const double heap0 = heap_in_use_bytes();
  std::unique_ptr<ShardedCluster> cluster;
  out.construct_s = timed_s(log, "setup.construct", [&] {
    cluster = std::make_unique<ShardedCluster>(cfg);
  });
  out.place_s =
      timed_s(log, "setup.place", [&] { cluster->place(1, w.files); });
  out.setup_heap_bytes = heap_in_use_bytes() - heap0;
  ShardedCluster& c = *cluster;

  std::vector<FileId> files(w.files);
  for (std::uint32_t i = 0; i < w.files; ++i) files[i] = 1 + i;
  if (w.faults) w.faults(c, w.timeline);
  ManagementTally mt;
  const At at = [&c](SimTime t, std::function<void(ShardedCluster&)> fn) {
    c.sim().schedule_at(t, [&c, fn = std::move(fn)] { fn(c); });
  };
  schedule_checkpoints(at, w.timeline, log, mt);
  schedule_crash(at, w.timeline, by_rank(files, w.shape, Timeline::kCrash),
                 w.shape.zipf_s, log, mt);
  schedule_churn(at, w.timeline, by_rank(files, w.shape, Timeline::kLeave),
                 w.shape.zipf_s, log, mt);

  ClientTier tier(c, w.shape, kClusterEndpoints, files, "w", log);
  idea::workload::OpenLoopEngine engine(
      c.sim(),
      idea::workload::EngineOptions{0, w.timeline.load,
                                    idea::mix64(rc.seed ^ 0xE6u)},
      tenant_specs(w.shape, w.files, kClusterEndpoints, w.timeline),
      [&tier](const idea::workload::Op& op) { tier.issue(op); });
  engine.start();

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  for (SimTime t = kSlice; t <= w.timeline.end(); t += kSlice) {
    Scope span(log, "sim.slice");
    c.run_until(t);
  }
  out.run_wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  out.run_cpu_s = process_cpu_s() - cpu0;
  out.sim_s = idea::to_sec(w.timeline.end());

  for (const FileId f : files) {
    out.digest =
        fold(out.digest, c.replica_at_rank(f, 0)->store().content_digest());
  }
  for (const FileId f : sample_files(files, 64, rc.seed)) {
    ++out.sampled_files;
    if (c.converged(f)) ++out.converged_files;
  }
  ClusterCounters cc;
  cc.add(c, files);
  assemble(out, {tier.finish()}, cc, mt);
  // A single cluster has no runtime: one segment, no conveyor.
  out.layers.insert(out.layers.end(),
                    {{"runtime.segment_imbalance", 1.0, "ratio"},
                     {"runtime.steals_per_epoch", 0.0, "ratio"},
                     {"runtime.conveyor_msgs", 0.0, "count"},
                     {"runtime.conveyor_packets", 0.0, "count"},
                     {"runtime.conveyor_lane_stalls", 0.0, "count"},
                     {"runtime.remote_rtt_ms_mean", 0.0, "sim_ms"}});
  return out;
}

ClusterWorkload idle_catalog(const RunConfig& rc) {
  ClusterWorkload w;
  w.files = rc.short_mode ? 2000 : 8000;
  w.timeline.load = idea::sec(rc.short_mode ? 10 : 20);
  w.timeline.tail = idea::sec(6);
  w.timeline.ckpt_every = idea::sec(5);
  // About 0.03 ops per file per sim-second over four tenants, one per
  // consistency level, with w=1 writes.  Popularity is skewed (Zipf 1.3)
  // and drifts: the hot keys move twenty times, so staleness is measured
  // over many hot files rather than hanging on where one was placed.
  const double per_tenant = rc.short_mode ? 100.0 : 60.0;
  w.shape.read_fraction = 0.75;
  w.shape.zipf_s = 1.3;
  w.shape.hot_phases = 20;
  w.shape.tenants = four_levels(per_tenant);
  w.configure = [](idea::shard::ShardedClusterConfig& cfg) {
    cfg.anti_entropy_period = idea::sec(4);
  };
  return w;
}

ClusterWorkload hot_mixed(const RunConfig& rc) {
  ClusterWorkload w;
  w.files = 128;
  w.timeline.load = idea::sec(rc.short_mode ? 8 : 16);
  w.timeline.tail = idea::sec(4);
  w.timeline.ckpt_every = idea::sec(2);
  // Five tenants, ~3000 ops/s in all, 30% writes at w=majority, Zipf 1.1
  // with the hotspot jumping to the other half of the keys at mid-run.
  const double per_tenant = 600.0;
  const WriteConcern maj = WriteConcern::majority();
  w.shape.read_fraction = 0.7;
  w.shape.zipf_s = 1.1;
  w.shape.hot_phases = 2;
  TenantDef strong{tenant(ConsistencyLevel::strong(), maj), per_tenant};
  TenantDef quorum{tenant(ConsistencyLevel::quorum(), maj), per_tenant};
  TenantDef adaptive{tenant(ConsistencyLevel::bounded_staleness(2), maj),
                     per_tenant};
  adaptive.options.adaptive = true;
  adaptive.options.tenant = 3;
  adaptive.options.declare_slo = true;
  adaptive.options.slo = idea::adapt::Slo{2, idea::msec(80)};
  TenantDef cached{
      tenant(ConsistencyLevel::bounded_staleness(4, idea::msec(250)), maj),
      per_tenant};
  cached.options.cache_reads = true;
  TenantDef eventual{tenant(ConsistencyLevel::eventual_nearest(), maj),
                     per_tenant};
  w.shape.tenants = {strong, quorum, adaptive, cached, eventual};
  w.configure = [](idea::shard::ShardedClusterConfig& cfg) {
    cfg.anti_entropy_period = idea::msec(500);
    cfg.replication_resend_timeout = idea::msec(200);
    cfg.replication_max_resends = 4;
    cfg.freshness_hint_ttl = idea::msec(800);
    cfg.adapt.enabled = true;
  };
  // Three 600 ms full-loss windows, clear of the maintenance windows.
  w.faults = [](ShardedCluster& c, const Timeline& tl) {
    for (const double f : {0.10, 0.50, 0.88}) {
      c.transport().add_drop_window(tl.at(f), tl.at(f) + idea::msec(600));
    }
  };
  return w;
}

// ---------------------------------------------------------------------
// fleet_churn
// ---------------------------------------------------------------------

RepResult run_fleet(const RunConfig& rc, Tracing* tracing) {
  const std::uint32_t segments = 8;
  const std::uint32_t endpoints = rc.short_mode ? 240 : 1000;
  const std::uint32_t nfiles = rc.short_mode ? 960 : 4000;
  Timeline tl;
  tl.load = idea::sec(rc.short_mode ? 8 : 20);
  tl.tail = idea::sec(5);
  tl.ckpt_every = idea::sec(5);

  std::vector<SpanLog*> logs(segments + 1, nullptr);
  if (tracing != nullptr) {
    tracing->logs.clear();
    for (std::uint32_t i = 0; i <= segments; ++i) tracing->logs.emplace_back(i);
    for (std::uint32_t i = 0; i <= segments; ++i) logs[i] = &tracing->logs[i];
  }
  SpanLog* log = logs[0];

  RepResult out;
  out.files = nfiles;
  idea::shard::ShardedClusterConfig cfg = base_config(endpoints, rc.seed);
  cfg.anti_entropy_period = idea::sec(2);
  cfg.runtime.threads = rc.threads;
  cfg.runtime.segments = segments;
  cfg.runtime.epoch = kSlice;

  const double heap0 = heap_in_use_bytes();
  std::unique_ptr<idea::runtime::ShardedFleet> fleet_ptr;
  out.construct_s = timed_s(log, "setup.construct", [&] {
    fleet_ptr = std::make_unique<idea::runtime::ShardedFleet>(cfg);
  });
  idea::runtime::ShardedFleet& fleet = *fleet_ptr;
  out.place_s = timed_s(log, "setup.place", [&] { fleet.place(1, nfiles); });
  out.setup_heap_bytes = heap_in_use_bytes() - heap0;

  // The fleet's own workload supplies the cross-segment conveyor traffic.
  idea::runtime::FleetWorkloadParams fw;
  fw.ops_per_endpoint_per_sec = 1.0;
  fw.read_fraction = 0.5;
  fw.cross_segment_fraction = 0.25;
  fw.duration = tl.load;
  fleet.set_workload(fw);

  // The measured client ops: per segment, four tenants (one per level)
  // issuing through sessions on that segment's cluster.
  Shape shape;
  shape.read_fraction = 0.7;
  shape.zipf_s = 1.2;
  shape.hot_phases = 5;
  const double per_tenant = 60.0;
  shape.tenants = four_levels(per_tenant);
  std::vector<std::vector<FileId>> seg_files(segments);
  for (FileId f = 1; f <= nfiles; ++f) {
    seg_files[fleet.segment_of_file(f)].push_back(f);
  }
  ManagementTally mt;
  std::vector<ManagementTally> seg_mt(segments);
  std::vector<std::unique_ptr<ClientTier>> tiers;
  std::vector<std::unique_ptr<idea::workload::OpenLoopEngine>> engines;
  for (std::uint32_t s = 0; s < segments; ++s) {
    ShardedCluster& c = fleet.segment(s);
    const std::uint32_t origins = fleet.segment_endpoints(s);
    tiers.push_back(std::make_unique<ClientTier>(
        c, shape, origins, seg_files[s], std::to_string(s) + "s", logs[s + 1]));
    ClientTier* tier = tiers.back().get();
    engines.push_back(std::make_unique<idea::workload::OpenLoopEngine>(
        c.sim(),
        idea::workload::EngineOptions{0, tl.load,
                                      idea::mix64(rc.seed ^ (0xE60u + s))},
        tenant_specs(shape, static_cast<std::uint32_t>(seg_files[s].size()),
                     origins, tl),
        [tier](const idea::workload::Op& op) { tier->issue(op); }));
    engines.back()->start();
    const At at = [&fleet, s](SimTime t,
                              std::function<void(ShardedCluster&)> fn) {
      fleet.schedule_on(s, t, std::move(fn));
    };
    schedule_checkpoints(at, tl, logs[s + 1], seg_mt[s]);
    if (s == 2) {
      schedule_crash(at, tl, by_rank(seg_files[s], shape, Timeline::kCrash),
                     shape.zipf_s, logs[s + 1], seg_mt[s]);
    }
    if (s == 5) {
      schedule_churn(at, tl, by_rank(seg_files[s], shape, Timeline::kLeave),
                     shape.zipf_s, logs[s + 1], seg_mt[s]);
    }
  }

  std::vector<std::uint64_t> seg_events(segments, 0);
  double imbalance_sum = 0.0;
  std::uint64_t epochs = 0;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  for (SimTime t = kSlice; t <= tl.end(); t += kSlice) {
    {
      Scope span(log, "runtime.epoch");
      fleet.run_for(kSlice);
    }
    // Between epochs the pool barrier has parked every worker, so the
    // segments can be read from here.
    double max_ev = 0.0;
    double sum_ev = 0.0;
    for (std::uint32_t s = 0; s < segments; ++s) {
      const std::uint64_t ev = fleet.segment(s).sim().events_processed();
      const double delta = static_cast<double>(ev - seg_events[s]);
      seg_events[s] = ev;
      max_ev = std::max(max_ev, delta);
      sum_ev += delta;
    }
    if (sum_ev > 0.0) {
      imbalance_sum += max_ev / (sum_ev / static_cast<double>(segments));
      ++epochs;
    }
  }
  out.run_wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
  out.run_cpu_s = process_cpu_s() - cpu0;
  out.sim_s = idea::to_sec(tl.end());

  for (const auto& [ep, d] : fleet.endpoint_digests()) {
    out.digest = fold(fold(out.digest, ep), d);
  }
  const idea::runtime::FleetStats fs = fleet.stats();
  out.digest = fold(out.digest, fs.op_digest);
  ClusterCounters cc;
  std::vector<ClientOutcome> clients;
  for (std::uint32_t s = 0; s < segments; ++s) {
    for (const FileId f : sample_files(seg_files[s], 8, rc.seed)) {
      ++out.sampled_files;
      if (fleet.segment(s).converged(f)) ++out.converged_files;
    }
    cc.add(fleet.segment(s), seg_files[s]);
    clients.push_back(tiers[s]->finish());
    mt.ckpt_passes += seg_mt[s].ckpt_passes;
    mt.gap_updates += seg_mt[s].gap_updates;
    mt.hinted_updates += seg_mt[s].hinted_updates;
    mt.files_migrated += seg_mt[s].files_migrated;
    mt.stream_msgs += seg_mt[s].stream_msgs;
  }
  // The fleet's own ops count as client ops; a remote op never replied to
  // is a failed op.
  ClientOutcome own;
  own.ops = fs.local_ops + fs.remote_ops;
  own.failures.unreplied_remote =
      fs.remote_ops - std::min(fs.remote_ops, fs.replies);
  clients.push_back(own);
  assemble(out, clients, cc, mt);
  const double ep = static_cast<double>(std::max<std::uint64_t>(1, epochs));
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.layers.insert(
      out.layers.end(),
      {{"runtime.segment_imbalance", imbalance_sum / ep, "ratio"},
       {"runtime.steals_per_epoch", d(fs.pool.steals) / ep, "ratio"},
       {"runtime.conveyor_msgs", d(fs.conveyor.messages), "count"},
       {"runtime.conveyor_packets", d(fs.conveyor.packets), "count"},
       {"runtime.conveyor_lane_stalls", d(fs.conveyor.lane_stalls), "count"},
       {"runtime.remote_rtt_ms_mean",
        ratio(idea::to_ms(fs.remote_latency_total), d(fs.replies)),
        "sim_ms"}});
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"idle_catalog", "hot_mixed",
                                                 "fleet_churn"};
  return names;
}

RepResult run_workload(const std::string& workload, const RunConfig& cfg,
                       Tracing* tracing) {
  if (workload == "idle_catalog") {
    return run_cluster(idle_catalog(cfg), cfg, tracing);
  }
  if (workload == "hot_mixed") return run_cluster(hot_mixed(cfg), cfg, tracing);
  return run_fleet(cfg, tracing);
}

}  // namespace repobench
