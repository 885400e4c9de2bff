/// \file parallel_scalability.cpp
/// \brief Multicore runtime scalability: the same fixed-seed ShardedFleet
///        macro run swept across worker-thread counts.
///
/// Two things are on the clock:
///
///   1. Wall time per thread count — the speedup curve.  Each thread
///      count gets one untimed warm-up run, then `--reps` timed runs
///      (min/median/max are written; speedup uses the median).
///      Meaningful only on a machine with real cores; the JSON records
///      hardware_cores so a 1-core CI container's flat curve is not
///      mistaken for a runtime regression.
///   2. The determinism oracle — every run at every thread count must
///      produce the exact op digest, endpoint digests and message counts
///      of the threads=1 run (the sequential oracle).  A mismatch fails
///      the bench regardless of speed.
///
/// The `steals` column counts tasks run off their home worker (segment s
/// is homed on worker s % threads); it is 0 at one thread.
///
/// The JSON result is written only when `--json PATH` is given.
///
///   $ ./parallel_scalability [--smoke] [--json BENCH_parallel.json]
///       [--endpoints 1000] [--files 4000] [--segments 8] [--sim-secs 5]
///       [--threads 1,2,4,8] [--reps 3] [--seed 2007]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "runtime/fleet.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::bench {
namespace {

struct SweepPoint {
  std::uint32_t threads = 1;
  double wall_s = 0.0;      ///< Median over reps.
  double wall_s_min = 0.0;  ///< Fastest rep.
  double wall_s_max = 0.0;  ///< Slowest rep.
  double speedup = 1.0;     ///< vs the threads=1 median.
  bool reps_agree = true;   ///< Every rep matched the warm-up run.
  std::uint64_t op_digest = 0;
  std::uint64_t endpoint_digest_xor = 0;
  std::uint64_t wire_messages = 0;
  std::uint64_t remote_ops = 0;
  std::uint64_t steals = 0;  ///< Tasks run off their home worker.
  std::uint64_t conveyor_packets = 0;
};

struct MacroConfig {
  std::uint32_t endpoints = 1000;
  std::uint32_t files = 4000;
  std::uint32_t segments = 8;
  double sim_secs = 5.0;
  std::uint64_t seed = 2007;
};

/// One fleet macro run; fills the result fields of `p` and returns the
/// wall time of the run itself.
double run_once(const MacroConfig& mc, std::uint32_t threads, SweepPoint& p) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = mc.endpoints;
  cfg.replication = 3;
  cfg.seed = mc.seed;
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.detection_period = sec(2);
  cfg.runtime.threads = threads;
  cfg.runtime.segments = mc.segments;  // pinned across the sweep
  cfg.sync_sizes();
  runtime::ShardedFleet fleet(cfg);
  fleet.place(1, mc.files);
  runtime::FleetWorkloadParams wl;
  wl.ops_per_endpoint_per_sec = 4.0;
  wl.cross_segment_fraction = 0.25;
  wl.duration = sec_f(mc.sim_secs);
  fleet.set_workload(wl);

  const auto start = WallClock::now();
  fleet.run_for(sec_f(mc.sim_secs) + sec(5));
  const double wall = secs_since(start);

  const runtime::FleetStats s = fleet.stats();
  p.op_digest = s.op_digest;
  p.remote_ops = s.remote_ops;
  p.steals = s.pool.steals;
  p.conveyor_packets = s.conveyor.packets;
  p.endpoint_digest_xor = 0;
  for (const auto& [endpoint, digest] : fleet.endpoint_digests()) {
    p.endpoint_digest_xor ^= mix64(digest + endpoint);
  }
  p.wire_messages = 0;
  for (const auto& [type, count] : fleet.message_counts()) {
    p.wire_messages += count;
  }
  return wall;
}

bool same_results(const SweepPoint& a, const SweepPoint& b) {
  return a.op_digest == b.op_digest &&
         a.endpoint_digest_xor == b.endpoint_digest_xor &&
         a.wire_messages == b.wire_messages;
}

SweepPoint run_macro(const MacroConfig& mc, std::uint32_t threads,
                     std::size_t reps) {
  SweepPoint p;
  p.threads = threads;
  (void)run_once(mc, threads, p);  // untimed warm-up
  const SweepPoint warm = p;
  std::vector<double> walls;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    walls.push_back(run_once(mc, threads, p));
    p.reps_agree = p.reps_agree && same_results(p, warm);
  }
  p.wall_s = median(walls);
  p.wall_s_min = *std::min_element(walls.begin(), walls.end());
  p.wall_s_max = *std::max_element(walls.begin(), walls.end());
  std::printf("threads %2u: %.3f s wall (min %.3f, max %.3f), op digest "
              "%016" PRIx64 ", %" PRIu64 " remote ops, %" PRIu64
              " steals\n",
              threads, p.wall_s, p.wall_s_min, p.wall_s_max, p.op_digest,
              p.remote_ops, p.steals);
  return p;
}

void write_json(const std::string& path, bool smoke, std::size_t reps,
                const MacroConfig& mc,
                const std::vector<SweepPoint>& sweep, bool digests_match) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"parallel_scalability\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"reps\": %zu,\n", reps);
  std::fprintf(f, "  \"hardware_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"endpoints\": %u,\n", mc.endpoints);
  std::fprintf(f, "    \"files\": %u,\n", mc.files);
  std::fprintf(f, "    \"segments\": %u,\n", mc.segments);
  std::fprintf(f, "    \"sim_secs\": %.1f,\n", mc.sim_secs);
  std::fprintf(f, "    \"seed\": %" PRIu64 "\n", mc.seed);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f,
                 "    {\"threads\": %u, \"wall_s\": %.3f, "
                 "\"wall_s_min\": %.3f, \"wall_s_max\": %.3f, ",
                 p.threads, p.wall_s, p.wall_s_min, p.wall_s_max);
    std::fprintf(f, "\"speedup_vs_1thread\": %.3f, ", p.speedup);
    std::fprintf(f, "\"op_digest\": \"%016" PRIx64 "\", ", p.op_digest);
    std::fprintf(f, "\"endpoint_digest_xor\": \"%016" PRIx64 "\", ",
                 p.endpoint_digest_xor);
    std::fprintf(f, "\"wire_messages\": %" PRIu64 ", ", p.wire_messages);
    std::fprintf(f, "\"remote_ops\": %" PRIu64 ", ", p.remote_ops);
    std::fprintf(f, "\"steals\": %" PRIu64 ", ", p.steals);
    std::fprintf(f, "\"conveyor_packets\": %" PRIu64 "}%s\n",
                 p.conveyor_packets, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"digests_match_across_threads\": %s,\n",
               digests_match ? "true" : "false");
  std::fprintf(f,
               "  \"note\": \"speedup_vs_1thread reflects wall time only; "
               "on a machine with fewer physical cores than threads the "
               "workers time-share and the curve is flat.  The determinism "
               "cross-check (identical digests at every thread count) holds "
               "regardless of core count.  wall_s is the median of reps "
               "timed runs after one untimed warm-up; steals counts tasks "
               "run off their home worker.\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::vector<std::uint32_t> parse_threads(const std::string& spec) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      out.push_back(static_cast<std::uint32_t>(std::strtoul(
          tok.c_str(), nullptr, 10)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  print_header("Parallel runtime scalability: fleet macro vs thread count");

  MacroConfig mc;
  mc.endpoints = static_cast<std::uint32_t>(
      flags.get_int("endpoints", smoke ? 32 : 1000));
  mc.files =
      static_cast<std::uint32_t>(flags.get_int("files", smoke ? 120 : 4000));
  mc.segments =
      static_cast<std::uint32_t>(flags.get_int("segments", 8));
  mc.sim_secs = flags.get_double("sim-secs", smoke ? 2.0 : 5.0);
  mc.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const std::int64_t reps_flag = flags.get_int("reps", smoke ? 1 : 3);
  if (reps_flag < 1) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    return 2;
  }
  const auto reps = static_cast<std::size_t>(reps_flag);
  const std::vector<std::uint32_t> threads = parse_threads(
      flags.get_string("threads", smoke ? "1,2" : "1,2,4,8"));

  std::vector<SweepPoint> sweep;
  sweep.reserve(threads.size());
  for (const std::uint32_t t : threads) {
    sweep.push_back(run_macro(mc, t, reps));
  }

  bool digests_match = true;
  for (const SweepPoint& p : sweep) {
    if (!p.reps_agree || !same_results(p, sweep.front())) {
      digests_match = false;
    }
  }
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    sweep[i].speedup = sweep.front().wall_s / sweep[i].wall_s;
  }

  if (flags.has("json")) {
    write_json(flags.get_string("json", ""), smoke, reps, mc, sweep,
               digests_match);
  }

  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: results diverged across thread counts — the "
                 "determinism oracle is broken\n");
    return 1;
  }
  return 0;
}
