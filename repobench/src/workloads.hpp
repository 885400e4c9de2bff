#pragma once
/// \file workloads.hpp
/// \brief The benchmark's three workloads and what one repetition of a
///        workload reports.
///
///  * idle_catalog — 32 endpoints, k=3, ~8000 files, light Zipf traffic:
///    per-file background work (detection, gossip, RanSub, anti-entropy)
///    dominates and the client path is nearly idle.
///  * hot_mixed — 32 endpoints, 128 files, Zipf 1.1 with a hotspot that
///    moves mid-run, ~3000 ops/s with 30% w=majority writes over five
///    tenants, the adaptive controller, resends, loss windows: the client,
///    router and replica_sync paths dominate.
///  * fleet_churn — a 1000-endpoint, 8-segment ShardedFleet on up to four
///    worker threads with cross-segment conveyor traffic: the only
///    workload that runs the parallel runtime.
///
/// Every workload also takes benchmark-driven checkpoint passes, one
/// crash/restart of a coordinator-heavy endpoint and one leave/join, at
/// the same fractions of its run, so each management-plane call is timed
/// on every workload.  Arrivals are open loop (seeded Poisson on the sim
/// clock), so the generator is never late.

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"
#include "util/time.hpp"

namespace repobench {

using idea::SimDuration;

struct RunConfig {
  std::uint64_t seed = 1;
  bool short_mode = false;  ///< Smaller, shorter runs for the self-test.
  std::uint32_t threads = 1;  ///< Fleet worker threads (fleet_churn only).
};

/// Span logs of one traced repetition: index 0 is the driving thread,
/// index 1 + s is fleet segment s.  Null pointer = untraced.
struct Tracing {
  std::vector<SpanLog> logs;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Client ops that failed, by kind.
struct Failures {
  std::uint64_t blocked_writes = 0;     ///< Put refused mid-resolution.
  std::uint64_t unmet_concerns = 0;     ///< Write concern not met.
  std::uint64_t unresolved_writes = 0;  ///< Still pending after the drain.
  std::uint64_t failed_reads = 0;       ///< Read not ok().
  std::uint64_t unreplied_remote = 0;   ///< Fleet op never replied to.
  [[nodiscard]] std::uint64_t total() const {
    return blocked_writes + unmet_concerns + unresolved_writes +
           failed_reads + unreplied_remote;
  }
};

/// What clients saw, on the sim clock: one client tier, one
/// repetition, or several repetitions pooled.
struct ClientOutcome {
  std::vector<SimDuration> read_latency;   ///< Served reads.
  std::vector<SimDuration> write_latency;  ///< Successful writes.
  /// Every client op issued, including the fleet's own conveyor traffic.
  std::uint64_t ops = 0;
  std::uint64_t reads_attempted = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t writes_attempted = 0;
  std::uint64_t cache_hits = 0;
  Failures failures;
  // Correctness.
  std::uint64_t oracle_checks = 0;
  /// Strong reads that missed a write acknowledged by an earlier
  /// coordinator or an earlier life of the serving one.
  std::uint64_t strong_failover_misses = 0;
  std::vector<std::string> violations;  ///< The first few.

  void violation(std::string what);
  void merge(const ClientOutcome& other);
};

/// One repetition of a workload.  Everything except the wall/CPU/memory
/// fields is on the sim clock and exact for a fixed seed.
struct RepResult {
  // Machine cost.
  double construct_s = 0.0;
  double place_s = 0.0;
  double setup_heap_bytes = 0.0;  ///< Heap growth across set-up.
  double run_wall_s = 0.0;        ///< Timed run, set-up excluded.
  double run_cpu_s = 0.0;         ///< Process CPU over the same interval.

  std::uint32_t files = 0;
  double sim_s = 0.0;  ///< Simulated seconds of the timed run.
  ClientOutcome client;
  std::uint64_t logical_msgs = 0;
  std::uint64_t logical_bytes = 0;

  // Correctness beyond the per-read oracles.
  std::uint64_t digest = 0;  ///< Content digest of every placed file.
  std::uint64_t sampled_files = 0;
  std::uint64_t converged_files = 0;

  /// Per-layer metrics that need no spans (counts and ratios on the sim
  /// clock, plus the run's CPU/wall ratio).
  std::vector<Metric> layers;
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one repetition of `workload`.  `tracing` is null for an untraced
/// run; otherwise its logs are (re)created and filled.
RepResult run_workload(const std::string& workload, const RunConfig& cfg,
                       Tracing* tracing);

}  // namespace repobench
