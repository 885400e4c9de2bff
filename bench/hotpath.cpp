/// \file hotpath.cpp
/// \brief Hot-path throughput trajectory: simulator kernel, transport
///        send->deliver, version-vector merges, and the sharded macro run.
///
/// Every future PR is measured against this bench: it emits
/// BENCH_hotpath.json so the perf trajectory accumulates per PR (the CI
/// Release job uploads the file as an artifact).  Six sections:
///
///   1. sim_events  — schedule/cancel/periodic churn through the Simulator.
///   2. transport   — SimTransport message storm with realistic EVV payloads
///                    (each hop re-sends, so the cost of forwarding a
///                    payload across transport hops is on the clock).
///   3. vv_merge    — VersionVector merge + compare walks.
///   4. macro       — the PR 1 shard-scalability headline configuration
///                    (32 endpoints / 2000 files, k=3), reporting logical
///                    messages per wall-clock second plus the per-type
///                    message counts and replica digest used by the
///                    determinism regression test.
///   5. store       — ReplicaStore per-operation cost at log lengths 100,
///                    1,000 and 10,000: a write followed by a pinned read
///                    view, updates_ahead_of and staleness_ahead_of for a
///                    peer four updates behind.  Each should stay flat as
///                    the log grows.
///   6. protocol    — IDEA's per-file primitives: one top-layer detection
///                    round on the paper's warm 40-node deployment, the
///                    extended-VV triple at 8, 64 and 512 updates per
///                    writer, and the consistency formula.
///
///   $ ./hotpath [--smoke] [--json BENCH_hotpath.json]
///               [--endpoints 32] [--files 2000] [--sim-secs 10]
///
/// Every section runs three times (once with --smoke); the JSON
/// reports each metric's median, its [min, max] under "spread", the rep
/// count and the machine's hardware thread count.  The macro's message
/// counts and digest must agree across reps (non-zero exit otherwise).
///
/// The kBaseline* constants are the numbers this bench printed at the
/// pre-refactor seed (PR 1, string message types + std::any payloads +
/// unpooled simulator) on the reference build machine; speedups in the
/// JSON are relative to them.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/kvstore.hpp"
#include "bench/common.hpp"
#include "core/formula.hpp"
#include "net/batching_transport.hpp"
#include "net/sim_transport.hpp"
#include "replica/store.hpp"
#include "shard/sharded_cluster.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vv/extended_vv.hpp"
#include "vv/version_vector.hpp"

namespace idea::bench {
namespace {

// Pre-refactor reference throughput: medians of 5 runs of this bench
// built against the seed commit (string message types, std::any payloads,
// unordered_set-cancellation simulator, std::map version vectors) on the
// single-core CI reference machine, Release -O2, interleaved with the
// post-refactor runs to cancel machine drift.  0 disables the speedup
// report for a metric.
constexpr double kBaselineSimEvents = 14.1e6;
constexpr double kBaselineTransportMsgs = 0.88e6;
constexpr double kBaselineBatchedTransportMsgs = 0.57e6;
constexpr double kBaselineVvMerges = 3.32e6;
constexpr double kBaselineMacroMsgsPerWallSec = 0.43e6;

// Store section before shared-prefix read views (map log, per-write meta
// recompute, whole-log scans and a lazily rebuilt contents copy): ns per
// operation at log lengths 100 / 1,000 / 10,000, medians of 3 runs of
// this bench built against the parent commit, Release -O2, on the 4-core
// container the after numbers come from.
constexpr std::size_t kStoreLogLengths[] = {100, 1'000, 10'000};
constexpr double kBaselineStoreReadAfterWriteNs[] = {13'688, 101'665,
                                                     1'440'859};
constexpr double kBaselineStoreUpdatesAheadNs[] = {1'152, 10'299, 150'329};
constexpr double kBaselineStoreStalenessNs[] = {943, 10'832, 152'185};

// ---------------------------------------------------------------------------
// 1. Simulator kernel: schedule / cancel / periodic churn.
// ---------------------------------------------------------------------------
struct SimEventsResult {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_sec = 0.0;
};

SimEventsResult bench_sim_events(std::uint64_t n) {
  sim::Simulator sim;
  Rng rng(4242);
  std::uint64_t fired = 0;

  const auto start = WallClock::now();
  std::uint64_t ops = 0;
  // A few periodic chains tick throughout the run.
  std::vector<sim::EventId> chains;
  for (int i = 0; i < 8; ++i) {
    chains.push_back(sim.schedule_periodic(msec(10 + i), [&] { ++fired; }));
    ++ops;
  }
  // Batches of one-shot events at pseudo-random offsets; a quarter of each
  // batch is cancelled before it can run.
  const std::uint64_t batch = 1024;
  std::vector<sim::EventId> cancellable;
  cancellable.reserve(batch / 4);
  for (std::uint64_t done = 0; done < n; done += batch) {
    cancellable.clear();
    for (std::uint64_t i = 0; i < batch; ++i) {
      const SimDuration delay = static_cast<SimDuration>(
          rng.uniform_int(0, static_cast<std::int64_t>(msec(50))));
      const sim::EventId id = sim.schedule_after(delay, [&] { ++fired; });
      ++ops;
      if ((i & 3u) == 0) cancellable.push_back(id);
    }
    for (const sim::EventId id : cancellable) {
      sim.cancel(id);
      ++ops;
    }
    sim.run_for(msec(25));
  }
  for (const sim::EventId id : chains) sim.cancel(id);
  sim.run_for(sec(1));

  SimEventsResult r;
  r.ops = ops + sim.events_processed();
  r.wall_s = secs_since(start);
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("sim_events: %" PRIu64 " ops (%" PRIu64
              " fired) in %.3f s -> %.2fM ops/s\n",
              r.ops, fired, r.wall_s, r.ops_per_sec / 1e6);
  return r;
}

// ---------------------------------------------------------------------------
// 2. Transport storm: every delivery re-sends until its hop budget runs out,
//    so one logical "flow" crosses the send->schedule->deliver path many
//    times carrying a realistic detect-probe-sized EVV payload.
// ---------------------------------------------------------------------------
struct TransportResult {
  std::uint64_t messages = 0;
  double wall_s = 0.0;
  double msgs_per_sec = 0.0;
};

struct HopPayload {
  std::uint32_t hops_left = 0;
  vv::ExtendedVersionVector evv;
};

class HopHandler final : public net::MessageHandler {
 public:
  HopHandler(net::Transport& t, std::uint32_t nodes)
      : transport_(t), nodes_(nodes) {}

  void on_message(const net::Message& msg) override {
    ++received_;
    const auto& p = msg.payload.as<HopPayload>();
    if (p.hops_left == 0) return;
    net::Message next;
    next.from = msg.to;
    next.to = (msg.to + 1) % nodes_;
    next.file = msg.file;
    next.type = msg.type;
    next.wire_bytes = msg.wire_bytes;
    next.payload = HopPayload{p.hops_left - 1, p.evv};
    transport_.send(std::move(next));
  }

  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  net::Transport& transport_;
  std::uint32_t nodes_;
  std::uint64_t received_ = 0;
};

const net::MsgType kProbeLike = net::MsgType::intern("bench.probe");

vv::ExtendedVersionVector make_probe_evv(std::uint32_t writers,
                                         std::uint32_t updates_each) {
  vv::ExtendedVersionVector evv;
  SimTime t = 0;
  for (std::uint32_t w = 0; w < writers; ++w) {
    for (std::uint32_t k = 0; k < updates_each; ++k) {
      t += msec(3);
      evv.record_update(w, t, static_cast<double>(w * k));
    }
  }
  return evv;
}

TransportResult bench_transport(std::uint64_t flows, std::uint32_t hops,
                                bool batching, std::uint32_t nodes,
                                std::uint32_t files) {
  sim::Simulator sim;
  // Constant latency on purpose: a latency model that burns CPU on
  // per-message jitter math (e.g. PlanetLab lognormal sampling) would
  // swamp the send->schedule->deliver path this section isolates.  The
  // node/file shape matches the macro deployment below.
  sim::ConstantLatency latency(msec(2));
  net::SimTransportOptions opts;
  opts.node_count = nodes;
  net::SimTransport wire(sim, latency, opts);
  net::BatchingTransport batch(wire, net::BatchingOptions{});
  net::Transport& edge =
      batching ? static_cast<net::Transport&>(batch) : wire;

  std::vector<std::unique_ptr<HopHandler>> handlers;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    handlers.push_back(std::make_unique<HopHandler>(edge, nodes));
    edge.attach(n, handlers.back().get());
  }

  const vv::ExtendedVersionVector evv = make_probe_evv(8, 6);
  const auto start = WallClock::now();
  for (std::uint64_t f = 0; f < flows; ++f) {
    net::Message m;
    m.from = static_cast<NodeId>(f % nodes);
    m.to = static_cast<NodeId>((f + 1) % nodes);
    m.file = static_cast<FileId>(f % files + 1);
    m.type = kProbeLike;
    m.wire_bytes = evv.wire_bytes();
    m.payload = HopPayload{hops, evv};
    edge.send(std::move(m));
  }
  sim.run();

  TransportResult r;
  for (const auto& h : handlers) r.messages += h->received();
  r.wall_s = secs_since(start);
  r.msgs_per_sec = static_cast<double>(r.messages) / r.wall_s;
  std::printf("transport%s: %" PRIu64 " msgs in %.3f s -> %.2fM msgs/s\n",
              batching ? "+batching" : "", r.messages, r.wall_s,
              r.msgs_per_sec / 1e6);
  return r;
}

// ---------------------------------------------------------------------------
// 3. Version-vector merge/compare walks.
// ---------------------------------------------------------------------------
struct VvResult {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_sec = 0.0;
};

VvResult bench_vv(std::uint64_t iters) {
  Rng rng(99);
  const std::uint32_t writers = 24;
  vv::VersionVector a, b;
  for (std::uint32_t w = 0; w < writers; ++w) {
    // Overlapping but distinct writer sets, like detect/resolve exchanges.
    if (w % 3 != 0) a.set(w, rng.uniform_int(1, 50));
    if (w % 3 != 1) b.set(w, rng.uniform_int(1, 50));
  }
  const auto start = WallClock::now();
  std::uint64_t concurrent = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    vv::VersionVector c = a;
    c.merge(b);
    if (vv::VersionVector::compare(a, b) == vv::Order::kConcurrent) {
      ++concurrent;
    }
    if (vv::VersionVector::compare(c, a) == vv::Order::kBefore) ++concurrent;
  }
  VvResult r;
  r.ops = iters * 3;  // one merge + two compares per iteration
  r.wall_s = secs_since(start);
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("vv_merge: %" PRIu64 " ops in %.3f s -> %.2fM ops/s "
              "(checksum %" PRIu64 ")\n",
              r.ops, r.wall_s, r.ops_per_sec / 1e6, concurrent);
  return r;
}

// ---------------------------------------------------------------------------
// 4. Macro: the PR 1 shard-scalability headline configuration.
// ---------------------------------------------------------------------------
struct MacroResult {
  std::uint32_t endpoints = 0;
  std::uint32_t files = 0;
  double sim_secs = 0.0;
  double wall_ms = 0.0;
  std::uint64_t puts_applied = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t wire_messages = 0;
  double msgs_per_wall_sec = 0.0;
  double converged_pct = 0.0;
  std::uint64_t digest_xor = 0;  ///< XOR of sampled coordinator digests.
};

MacroResult bench_macro(std::uint32_t endpoints, std::uint32_t files,
                        SimDuration sim_duration, std::uint64_t seed) {
  const auto start = WallClock::now();
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = endpoints;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.controller.mode = core::AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.85;
  cfg.idea.detection_period = sec(2);
  shard::ShardedCluster cluster(cfg);

  cluster.place(1, files);
  apps::KvStore kv(cluster,
                   apps::KvStoreOptions{.buckets = files, .first_file = 1});
  apps::KvWorkloadParams wl;
  wl.clients = endpoints * 2;
  wl.interval = msec(250);
  wl.duration = sim_duration;
  wl.keyspace = files * 4;
  wl.zipf_s = 0.9;
  apps::KvWorkload workload(kv, cluster.sim(), wl, seed ^ 0xBEEF);
  workload.start();
  cluster.run_for(sim_duration + sec(10));

  MacroResult r;
  r.endpoints = endpoints;
  r.files = files;
  r.sim_secs = to_sec(sim_duration);
  r.puts_applied = kv.puts();
  r.wire_messages = cluster.wire_counters().total_messages();
  r.logical_messages = cluster.batching() != nullptr
                           ? cluster.batching()->stats().logical_messages
                           : r.wire_messages;
  std::size_t sampled = 0, converged = 0;
  for (FileId f = 1; f <= files; f += 7) {
    ++sampled;
    if (cluster.converged(f)) ++converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) r.digest_xor ^= coord->store().content_digest();
  }
  r.converged_pct =
      100.0 * static_cast<double>(converged) / static_cast<double>(sampled);
  r.wall_ms = ms_since(start);
  r.msgs_per_wall_sec =
      static_cast<double>(r.logical_messages) / (r.wall_ms / 1000.0);
  std::printf("macro: %u endpoints / %u files, %" PRIu64 " logical msgs "
              "(%" PRIu64 " wire) in %.0f ms wall -> %.2fM msgs/wall-s, "
              "%.1f%% converged, digest %016" PRIx64 "\n",
              r.endpoints, r.files, r.logical_messages, r.wire_messages,
              r.wall_ms, r.msgs_per_wall_sec / 1e6, r.converged_pct,
              r.digest_xor);
  return r;
}

// ---------------------------------------------------------------------------
// 5. Replica store: per-operation cost against log length.
// ---------------------------------------------------------------------------
struct StoreRow {
  std::size_t log_len = 0;
  double read_after_write_ns = 0.0;  ///< apply_local + pin a read view.
  double updates_ahead_ns = 0.0;     ///< Peer 4 updates behind.
  double staleness_ns = 0.0;         ///< Same peer, count-only probe.
};

/// A replica holding `len` updates from two writers, every fourth learned
/// from the remote one; stamps are 1 ms apart.
void fill_store(replica::ReplicaStore& s, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    const SimTime stamp = msec(static_cast<std::int64_t>(i));
    if (i % 4 == 3) {
      replica::Update u;
      u.key = replica::UpdateKey{1, s.evv().count_of(1) + 1};
      u.file = s.file();
      u.stamp = stamp;
      u.content = "remote write";
      u.meta_delta = 1.0;
      s.apply_remote(u);
    } else {
      s.apply_local(stamp, "local write", 1.0);
    }
  }
}

/// Time `op` in batches until `budget_s` of timed work has run; ns per op.
template <typename Op, typename Reset>
double ns_per_op(double budget_s, std::uint64_t batch, Op op, Reset reset) {
  double timed_s = 0.0;
  std::uint64_t ops = 0;
  while (timed_s < budget_s) {
    const auto start = WallClock::now();
    for (std::uint64_t i = 0; i < batch; ++i) op(i);
    timed_s += secs_since(start);
    ops += batch;
    reset();
  }
  return timed_s * 1e9 / static_cast<double>(ops);
}

StoreRow bench_store(std::size_t len, double budget_s) {
  StoreRow row;
  row.log_len = len;
  replica::ReplicaStore s(0, 1);
  fill_store(s, len);
  std::uint64_t sink = 0;

  // A write, then a read that pins the new contents (as a session cache
  // entry does).  Each batch of writes is rolled back afterwards (untimed)
  // so the log stays at `len`.
  const SimTime tail = msec(static_cast<std::int64_t>(len));
  auto held = s.contents_snapshot();
  row.read_after_write_ns = ns_per_op(
      budget_s, 64,
      [&](std::uint64_t i) {
        s.apply_local(tail + static_cast<SimTime>(i), "read-after-write",
                      1.0);
        held = s.contents_snapshot();
        sink += held->size();
      },
      [&] {
        held = nullptr;
        s.rollback_to(tail - 1);
      });

  vv::VersionVector peer = s.evv().counts();
  peer.set(0, peer.get(0) - 4);
  row.updates_ahead_ns = ns_per_op(
      budget_s, 256,
      [&](std::uint64_t) { sink += s.updates_ahead_of(peer).size(); }, [] {});
  row.staleness_ns = ns_per_op(
      budget_s, 256,
      [&](std::uint64_t) { sink += s.staleness_ahead_of(peer).versions; },
      [] {});
  std::printf("store: log %5zu  read-after-write %9.0f ns  "
              "updates_ahead_of %9.0f ns  staleness_ahead_of %9.0f ns "
              "(checksum %" PRIu64 ")\n",
              len, row.read_after_write_ns, row.updates_ahead_ns,
              row.staleness_ns, sink);
  return row;
}

// ---------------------------------------------------------------------------
// 6. Protocol primitives: detection round, extended-VV triple, formula.
// ---------------------------------------------------------------------------
constexpr std::size_t kTripleUpdatesPerWriter[] = {8, 64, 512};

struct ProtocolResult {
  double detection_round_us = 0.0;  ///< Probe until the callback fires.
  double events_per_round = 0.0;    ///< Sim events stepped per round.
  double peers_per_round = 0.0;     ///< Top-layer peers probed per round.
  std::vector<double> triple_ns;    ///< By kTripleUpdatesPerWriter.
  double formula_ns = 0.0;
};

/// An extended VV of four writers, each with `updates` stamped updates.
vv::ExtendedVersionVector make_writer_evv(std::size_t updates,
                                          std::uint64_t seed) {
  vv::ExtendedVersionVector e;
  Rng rng(seed);
  for (NodeId w = 0; w < 4; ++w) {
    SimTime t = 0;
    for (std::size_t u = 0; u < updates; ++u) {
      t += static_cast<SimTime>(rng.next_below(1'000'000));
      e.record_update(w, t, rng.uniform01() * 100);
    }
  }
  return e;
}

ProtocolResult bench_protocol(std::uint64_t rounds, double budget_s) {
  ProtocolResult r;
  double sink = 0.0;

  // Node 3 probes its top layer on the paper deployment after the §6
  // writers warmed it; each round steps the simulator until the
  // detection callback fires (periodic background work included).  The
  // writers cool off as sim time passes, so an untimed warm-up precedes
  // every block of rounds to keep them in the top layer.
  constexpr std::uint64_t kRoundsPerWarmUp = 100;
  core::IdeaCluster cluster(paper_cluster(2007));
  cluster.start();
  std::uint64_t events = 0;
  std::uint64_t peers = 0;
  double timed_s = 0.0;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    if (i % kRoundsPerWarmUp == 0) cluster.warm_up(kWriters, sec(25));
    bool done = false;
    const std::uint64_t before = cluster.sim().events_processed();
    const auto start = WallClock::now();
    cluster.node(kWriters.front())
        .probe([&](const detect::DetectionResult& res) {
          done = true;
          peers += res.peers_probed;
        });
    while (!done) cluster.sim().step();
    timed_s += secs_since(start);
    events += cluster.sim().events_processed() - before;
  }
  r.detection_round_us = timed_s * 1e6 / static_cast<double>(rounds);
  r.events_per_round =
      static_cast<double>(events) / static_cast<double>(rounds);
  r.peers_per_round = static_cast<double>(peers) / static_cast<double>(rounds);

  for (const std::size_t updates : kTripleUpdatesPerWriter) {
    const vv::ExtendedVersionVector a = make_writer_evv(updates, 3);
    const vv::ExtendedVersionVector b = make_writer_evv(updates, 4);
    r.triple_ns.push_back(ns_per_op(
        budget_s, 1024,
        [&](std::uint64_t) { sink += a.triple_against(b).order_error; },
        [] {}));
  }

  // The inputs vary per call so the formula cannot be hoisted out of the
  // timed loop.
  const vv::TripleWeights weights{0.4, 0.3, 0.3};
  const vv::TripleMaxima maxima{10, 10, 10};
  r.formula_ns = ns_per_op(
      budget_s, 4096,
      [&](std::uint64_t i) {
        const vv::TactTriple t{3.2 + static_cast<double>(i & 7), 1.5, 7.9};
        sink += core::consistency_level(t, weights, maxima);
      },
      [] {});

  std::printf("protocol: detection round %.1f us (%.0f events, %.1f peers)  "
              "triple %.0f/%.0f/%.0f ns  formula %.1f ns (checksum %.0f)\n",
              r.detection_round_us, r.events_per_round, r.peers_per_round,
              r.triple_ns[0], r.triple_ns[1], r.triple_ns[2], r.formula_ns,
              sink);
  return r;
}

double speedup_vs(double now, double baseline) {
  return baseline > 0.0 ? now / baseline : 0.0;
}

/// Each rep's value of every timed metric, keyed by its JSON path.
using Samples = std::map<std::string, std::vector<double>>;

void write_json(const std::string& path, bool smoke, std::int64_t reps,
                const MacroResult& mc, const ProtocolResult& pr,
                const Samples& samples) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const auto med = [&](const std::string& name) {
    return median(samples.at(name));
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"hotpath\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"reps\": %lld,\n", static_cast<long long>(reps));
  std::fprintf(f, "  \"hardware_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f, "    \"sim_events_per_sec\": %.0f,\n",
               med("sim_events_per_sec"));
  std::fprintf(f, "    \"transport_msgs_per_sec\": %.0f,\n",
               med("transport_msgs_per_sec"));
  std::fprintf(f, "    \"batched_transport_msgs_per_sec\": %.0f,\n",
               med("batched_transport_msgs_per_sec"));
  std::fprintf(f, "    \"vv_merge_ops_per_sec\": %.0f,\n",
               med("vv_merge_ops_per_sec"));
  std::fprintf(f, "    \"macro\": {\n");
  std::fprintf(f, "      \"endpoints\": %u,\n", mc.endpoints);
  std::fprintf(f, "      \"files\": %u,\n", mc.files);
  std::fprintf(f, "      \"sim_secs\": %.1f,\n", mc.sim_secs);
  std::fprintf(f, "      \"wall_ms\": %.1f,\n", med("macro.wall_ms"));
  std::fprintf(f, "      \"puts_applied\": %" PRIu64 ",\n", mc.puts_applied);
  std::fprintf(f, "      \"logical_messages\": %" PRIu64 ",\n",
               mc.logical_messages);
  std::fprintf(f, "      \"wire_messages\": %" PRIu64 ",\n",
               mc.wire_messages);
  std::fprintf(f, "      \"msgs_per_wall_sec\": %.0f,\n",
               med("macro.msgs_per_wall_sec"));
  std::fprintf(f, "      \"converged_pct\": %.1f,\n", mc.converged_pct);
  std::fprintf(f, "      \"content_digest_xor\": \"%016" PRIx64 "\"\n",
               mc.digest_xor);
  std::fprintf(f, "    },\n");
  // ns per op by log length; `growth_*` is cost at the longest log over
  // cost at the shortest (1.0 = flat).
  std::vector<StoreRow> store;
  for (const std::size_t len : kStoreLogLengths) {
    const std::string row = "store." + std::to_string(len) + ".";
    store.push_back(StoreRow{len, med(row + "read_after_write"),
                             med(row + "updates_ahead_of"),
                             med(row + "staleness_ahead_of")});
  }
  std::fprintf(f, "    \"store\": {\n");
  std::fprintf(f, "      \"unit\": \"ns_per_op\",\n");
  std::fprintf(f, "      \"rows\": [\n");
  for (std::size_t i = 0; i < store.size(); ++i) {
    std::fprintf(f,
                 "        {\"log_len\": %zu, \"read_after_write\": %.0f, "
                 "\"updates_ahead_of\": %.0f, \"staleness_ahead_of\": "
                 "%.0f}%s\n",
                 store[i].log_len, store[i].read_after_write_ns,
                 store[i].updates_ahead_ns, store[i].staleness_ns,
                 i + 1 < store.size() ? "," : "");
  }
  std::fprintf(f, "      ],\n");
  const StoreRow& shortest = store.front();
  const StoreRow& longest = store.back();
  std::fprintf(f, "      \"growth_read_after_write\": %.2f,\n",
               longest.read_after_write_ns / shortest.read_after_write_ns);
  std::fprintf(f, "      \"growth_updates_ahead_of\": %.2f,\n",
               longest.updates_ahead_ns / shortest.updates_ahead_ns);
  std::fprintf(f, "      \"growth_staleness_ahead_of\": %.2f\n",
               longest.staleness_ns / shortest.staleness_ns);
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"protocol\": {\n");
  std::fprintf(f, "      \"detection_round_us\": %.1f,\n",
               med("protocol.detection_round_us"));
  std::fprintf(f, "      \"detection_events_per_round\": %.1f,\n",
               pr.events_per_round);
  std::fprintf(f, "      \"detection_peers_per_round\": %.1f,\n",
               pr.peers_per_round);
  for (const std::size_t updates : kTripleUpdatesPerWriter) {
    const std::string name = "triple_ns_" + std::to_string(updates);
    std::fprintf(f, "      \"%s\": %.1f,\n", name.c_str(),
                 med("protocol." + name));
  }
  std::fprintf(f, "      \"formula_ns\": %.2f\n", med("protocol.formula_ns"));
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
  // [min, max] of every timed metric over the reps.
  std::fprintf(f, "  \"spread\": {\n");
  for (auto it = samples.begin(); it != samples.end(); ++it) {
    const auto [lo, hi] =
        std::minmax_element(it->second.begin(), it->second.end());
    std::fprintf(f, "    \"%s\": [%.2f, %.2f]%s\n", it->first.c_str(), *lo,
                 *hi, std::next(it) != samples.end() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"baseline_pre_refactor\": {\n");
  std::fprintf(f, "    \"sim_events_per_sec\": %.0f,\n", kBaselineSimEvents);
  std::fprintf(f, "    \"transport_msgs_per_sec\": %.0f,\n",
               kBaselineTransportMsgs);
  std::fprintf(f, "    \"batched_transport_msgs_per_sec\": %.0f,\n",
               kBaselineBatchedTransportMsgs);
  std::fprintf(f, "    \"vv_merge_ops_per_sec\": %.0f,\n", kBaselineVvMerges);
  std::fprintf(f, "    \"macro_msgs_per_wall_sec\": %.0f\n",
               kBaselineMacroMsgsPerWallSec);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"store_before_shared_views\": {\n");
  std::fprintf(f, "    \"unit\": \"ns_per_op\",\n");
  std::fprintf(f, "    \"rows\": [\n");
  for (std::size_t i = 0; i < std::size(kStoreLogLengths); ++i) {
    std::fprintf(f,
                 "      {\"log_len\": %zu, \"read_after_write\": %.0f, "
                 "\"updates_ahead_of\": %.0f, \"staleness_ahead_of\": "
                 "%.0f}%s\n",
                 kStoreLogLengths[i], kBaselineStoreReadAfterWriteNs[i],
                 kBaselineStoreUpdatesAheadNs[i], kBaselineStoreStalenessNs[i],
                 i + 1 < std::size(kStoreLogLengths) ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup\": {\n");
  std::fprintf(f, "    \"sim_events\": %.2f,\n",
               speedup_vs(med("sim_events_per_sec"), kBaselineSimEvents));
  std::fprintf(f, "    \"transport\": %.2f,\n",
               speedup_vs(med("transport_msgs_per_sec"),
                          kBaselineTransportMsgs));
  std::fprintf(f, "    \"batched_transport\": %.2f,\n",
               speedup_vs(med("batched_transport_msgs_per_sec"),
                          kBaselineBatchedTransportMsgs));
  std::fprintf(f, "    \"vv_merge\": %.2f,\n",
               speedup_vs(med("vv_merge_ops_per_sec"), kBaselineVvMerges));
  std::fprintf(f, "    \"macro\": %.2f\n",
               speedup_vs(med("macro.msgs_per_wall_sec"),
                          kBaselineMacroMsgsPerWallSec));
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  print_header(
      "Hot path: kernel, transport, version vectors, macro run, store, "
      "protocol");

  const std::uint64_t n_events = smoke ? 200'000 : 2'000'000;
  const std::uint64_t n_flows = smoke ? 2'000 : 20'000;
  const std::uint32_t hops = 32;
  const std::uint64_t n_vv = smoke ? 200'000 : 2'000'000;
  const auto endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", 32));
  const auto files = static_cast<std::uint32_t>(flags.get_int("files", 2000));
  const SimDuration sim_secs =
      sec_f(flags.get_double("sim-secs", smoke ? 3.0 : 10.0));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const std::int64_t reps = smoke ? 1 : 3;
  const double budget_s = smoke ? 0.02 : 0.3;

  Samples samples;
  MacroResult macro;
  ProtocolResult protocol;
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    std::printf("-- rep %lld of %lld\n", static_cast<long long>(rep + 1),
                static_cast<long long>(reps));
    samples["sim_events_per_sec"].push_back(
        bench_sim_events(n_events).ops_per_sec);
    samples["transport_msgs_per_sec"].push_back(
        bench_transport(n_flows, hops, false, endpoints, files).msgs_per_sec);
    samples["batched_transport_msgs_per_sec"].push_back(
        bench_transport(n_flows, hops, true, endpoints, files).msgs_per_sec);
    samples["vv_merge_ops_per_sec"].push_back(bench_vv(n_vv).ops_per_sec);

    const MacroResult mc = bench_macro(endpoints, files, sim_secs, seed);
    if (rep == 0) {
      macro = mc;
    } else if (mc.digest_xor != macro.digest_xor ||
               mc.logical_messages != macro.logical_messages ||
               mc.wire_messages != macro.wire_messages) {
      std::fprintf(stderr, "macro reps disagree: the run is not "
                           "deterministic\n");
      return 1;
    }
    samples["macro.wall_ms"].push_back(mc.wall_ms);
    samples["macro.msgs_per_wall_sec"].push_back(mc.msgs_per_wall_sec);

    for (const std::size_t len : kStoreLogLengths) {
      const StoreRow row = bench_store(len, budget_s);
      const std::string key = "store." + std::to_string(len) + ".";
      samples[key + "read_after_write"].push_back(row.read_after_write_ns);
      samples[key + "updates_ahead_of"].push_back(row.updates_ahead_ns);
      samples[key + "staleness_ahead_of"].push_back(row.staleness_ns);
    }

    const ProtocolResult pr = bench_protocol(smoke ? 200 : 2'000, budget_s);
    if (rep == 0) protocol = pr;
    samples["protocol.detection_round_us"].push_back(pr.detection_round_us);
    for (std::size_t i = 0; i < pr.triple_ns.size(); ++i) {
      samples["protocol.triple_ns_" +
              std::to_string(kTripleUpdatesPerWriter[i])]
          .push_back(pr.triple_ns[i]);
    }
    samples["protocol.formula_ns"].push_back(pr.formula_ns);
  }

  write_json(flags.get_string("json", "BENCH_hotpath.json"), smoke, reps,
             macro, protocol, samples);
  return 0;
}
