/// \file main.cpp
/// \brief The repository benchmark program.
///
///   repobench --workload idle_catalog|hot_mixed|fleet_churn --seed N
///             --seconds S --trace 0|1 [--short] [--threads T]
///             [--trace-out FILE]
///
/// Runs repetitions of one workload until S wall seconds have passed,
/// cycling through kDeployments seed-derived deployments (each at least
/// once).  The sim-clock metrics (what the clients saw) pool the first
/// repetition of each deployment and are exact for the seed; every later
/// repetition must reproduce its deployment's content digest.  The
/// wall-clock metrics (what the run cost) are medians over all
/// repetitions.  With --trace 1 the repetitions alternate untraced and
/// traced, and the output is the per-layer metrics instead.  The last
/// line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"
#include "util/ids.hpp"
#include "util/thread_owner.hpp"  // defines IDEA_OWNER_CHECKS when armed
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REPOBENCH_SANITIZED 1
#else
#define REPOBENCH_SANITIZED 0
#endif

namespace repobench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::uint32_t threads = 0;  ///< 0 = min(4, nproc).
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--short] [--threads T] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--short") {
      a.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strtol(v, &end, 10) != 0;
    } else if (flag == "--threads") {
      a.threads = static_cast<std::uint32_t>(std::strtoul(v, &end, 10));
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::uint32_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

/// p50/p99 of a sorted sim-clock latency sample, in ms.  A p99 needs at
/// least ten samples beyond it; the caller refuses the run otherwise.
bool latency_quantiles(const std::vector<SimDuration>& sorted,
                       const char* what, double& p50_ms, double& p99_ms) {
  const std::size_t n = sorted.size();
  const std::size_t beyond =
      n - std::min(n, static_cast<std::size_t>(
                          std::ceil(0.99 * static_cast<double>(n))));
  if (beyond < 10) {
    std::fprintf(stderr,
                 "repobench: refusing %s p99: %zu samples leave %zu beyond "
                 "it (need 10)\n",
                 what, n, beyond);
    return false;
  }
  p50_ms = idea::to_ms(quantile_sorted(sorted, 0.50));
  p99_ms = idea::to_ms(quantile_sorted(sorted, 0.99));
  return true;
}

const SpanTotals* find(const std::vector<SpanTotals>& totals,
                       const std::string& name) {
  for (const SpanTotals& t : totals) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

double mean_of(const SpanTotals* t) {
  return t == nullptr || t->count == 0
             ? 0.0
             : t->total_ns / static_cast<double>(t->count);
}

double pct_of(const SpanTotals* t, double q) {
  return t == nullptr ? 0.0 : quantile_sorted(t->durations_ns, q);
}

double layer_value(const RepResult& r, const std::string& name) {
  for (const Metric& m : r.layers) {
    if (m.name == name) return m.value;
  }
  std::fprintf(stderr, "repobench: internal error: no layer value %s\n",
               name.c_str());
  std::exit(3);
}

/// Per-layer metrics of one traced repetition plus the run's medians.
std::vector<Metric> per_layer(const std::string& workload, const RepResult& r,
                              const Tracing& tracing, double setup_construct,
                              double setup_place, double overhead_pct) {
  std::vector<const SpanLog*> all;
  std::vector<const SpanLog*> segments;
  for (const SpanLog& log : tracing.logs) {
    all.push_back(&log);
    if (log.tid() != 0) segments.push_back(&log);
  }
  const std::vector<SpanTotals> totals = aggregate(all);
  const double sim_s = r.sim_s;
  const bool fleet = workload == "fleet_churn";

  // The sim kernel's own time: run slices minus the benchmark calls
  // nested in them.  On the fleet the slices run on several workers, so
  // it is the run's process CPU minus every span the segments recorded.
  double sim_self_ns = 0.0;
  if (fleet) {
    double seg_ns = 0.0;
    for (const SpanTotals& t : aggregate(segments)) seg_ns += t.self_ns;
    sim_self_ns = std::max(0.0, 1e9 * r.run_cpu_s - seg_ns);
  } else if (const SpanTotals* s = find(totals, "sim.slice")) {
    sim_self_ns = s->self_ns;
  }
  const double events = layer_value(r, "sim.events_per_sim_s") * sim_s;
  const SpanTotals* slice =
      find(totals, fleet ? "runtime.epoch" : "sim.slice");

  // The counts and ratios the repetition computed, then the span timings.
  std::vector<Metric> m = r.layers;
  const auto add = [&m](const std::string& name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  add("sim.self_ms_per_sim_s", 1e-6 * sim_self_ns / sim_s, "ms");
  add("sim.ns_per_event", events > 0 ? sim_self_ns / events : 0.0, "ns");
  for (const char* level : {"strong", "bounded", "eventual", "quorum"}) {
    const SpanTotals* t = find(totals, std::string("client.read.") + level);
    add(std::string("client.read_us.") + level + ".mean", 1e-3 * mean_of(t),
        "us");
    add(std::string("client.read_us.") + level + ".p99",
        1e-3 * pct_of(t, 0.99), "us");
  }
  const SpanTotals* put = find(totals, "client.put");
  add("client.put_us.mean", 1e-3 * mean_of(put), "us");
  add("client.put_us.p99", 1e-3 * pct_of(put, 0.99), "us");
  const SpanTotals* ckpt = find(totals, "ckpt.pass");
  add("ckpt.pass_ms_p50", 1e-6 * pct_of(ckpt, 0.50), "ms");
  add("ckpt.pass_ms_p99", 1e-6 * pct_of(ckpt, 0.99), "ms");
  const auto total_ms = [&](const char* name) {
    const SpanTotals* t = find(totals, name);
    return t == nullptr ? 0.0 : 1e-6 * t->total_ns;
  };
  add("fault.crash_ms", total_ms("fault.crash"), "ms");
  add("fault.restart_ms", total_ms("fault.restart"), "ms");
  add("runtime.epoch_ms_p50", 1e-6 * pct_of(slice, 0.50), "ms");
  add("runtime.epoch_ms_p99", 1e-6 * pct_of(slice, 0.99), "ms");
  add("membership.add_ms", total_ms("membership.add"), "ms");
  add("membership.remove_ms", total_ms("membership.remove"), "ms");
  add("setup.construct_s", setup_construct, "s");
  add("setup.place_s", setup_place, "s");
  add("mem.setup_kb_per_file", r.setup_heap_bytes / 1024.0 / r.files, "KB");
  add("trace.overhead_pct", overhead_pct, "%");

  // Self time per layer (span-name prefix), for the human-readable report.
  std::map<std::string, double> self_ms;
  for (const SpanTotals& t : totals) {
    self_ms[t.name.substr(0, t.name.find('.'))] += 1e-6 * t.self_ns;
  }
  if (fleet) self_ms["sim"] = 1e-6 * sim_self_ns;
  std::printf("layer self time (traced repetition, %.1f sim-s):\n", sim_s);
  for (const auto& [layer, ms] : self_ms) {
    std::printf("  %-12s %10.2f ms  %8.3f ms/sim-s\n", layer.c_str(), ms,
                ms / sim_s);
  }
  return m;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Deployments per run: repetition i replays deployment i % kDeployments,
/// each with its own seed-derived ring, topology and arrivals.  The
/// sim-clock metrics pool the first repetition of every deployment, so
/// they do not hang on where one ring happened to put the hottest file.
constexpr std::size_t kDeployments = 6;

std::uint64_t deployment_seed(std::uint64_t seed, std::size_t d) {
  return idea::mix64(seed * kDeployments + d);
}

struct Rep {
  std::size_t deployment = 0;
  bool traced = false;
  RepResult result;
};

/// The first untraced repetition of each deployment, pooled.
struct Pooled {
  ClientOutcome client;
  std::uint64_t logical_msgs = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t digest = 0;

  void add(const RepResult& r) {
    client.merge(r.client);
    logical_msgs += r.logical_msgs;
    logical_bytes += r.logical_bytes;
    digest = idea::mix64(digest ^ r.digest);
  }
};

int run(const Args& args) {
  const std::uint32_t cores = nproc();
  RunConfig rc;
  rc.short_mode = args.short_mode;
  rc.threads = args.threads != 0 ? args.threads : std::min(4u, cores);

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef IDEA_OWNER_CHECKS
  const bool owner_checks = true;
#else
  const bool owner_checks = false;
#endif
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"deployments\": %zu, \"nproc\": %u, \"fleet_threads\": %u, "
      "\"build_type\": \"%s\", \"ndebug\": %s, \"owner_checks\": %s, "
      "\"sanitizer\": %s, \"short\": %s, \"trace\": %s}\n",
      args.workload.c_str(), args.seed, kDeployments, cores, rc.threads,
      REPOBENCH_BUILD_TYPE, ndebug ? "true" : "false",
      owner_checks ? "true" : "false", REPOBENCH_SANITIZED ? "true" : "false",
      args.short_mode ? "true" : "false", args.trace ? "true" : "false");
  if (REPOBENCH_SANITIZED || owner_checks || !ndebug) {
    std::fprintf(stderr,
                 "repobench: refusing to measure a sanitizer, owner-check "
                 "or assert-enabled build\n");
    return 2;
  }

  // Untraced: every deployment at least once, then until the wall budget
  // is spent.  Traced: untraced/traced pairs on the same deployment, at
  // least two pairs.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<Rep> reps;
  std::vector<bool> sampled(kDeployments, false);
  Tracing tracing;
  Tracing first_trace;
  while (true) {
    Rep rep;
    const std::size_t i = reps.size();
    rep.traced = args.trace && i % 2 == 1;
    rep.deployment = (args.trace ? i / 2 : i) % kDeployments;
    rc.seed = deployment_seed(args.seed, rep.deployment);
    rep.result = run_workload(args.workload, rc,
                              rep.traced ? &tracing : nullptr);
    if (rep.traced && first_trace.logs.empty()) {
      first_trace = std::move(tracing);
    }
    // Only a deployment's first untraced repetition feeds the latency
    // quantiles; the others' samples are dropped so that they do not add
    // to the peak memory the run reports.
    if (rep.traced || sampled[rep.deployment]) {
      rep.result.client.read_latency = {};
      rep.result.client.write_latency = {};
    }
    sampled[rep.deployment] = sampled[rep.deployment] || !rep.traced;
    reps.push_back(std::move(rep));
    const bool enough = args.trace ? reps.size() >= 4 && reps.size() % 2 == 0
                                   : reps.size() >= kDeployments;
    if (enough && now_ns() >= deadline) break;
  }

  // Correctness: the oracles of every repetition, convergence, and every
  // repetition of a deployment (traced ones included) reproducing the
  // content digest of its first.
  std::vector<const RepResult*> first(kDeployments, nullptr);
  Pooled pooled;
  std::vector<std::string> problems;
  std::uint64_t checks = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i].result;
    const std::string which = "repetition " + std::to_string(i + 1);
    const RepResult*& ref = first[reps[i].deployment];
    if (ref == nullptr && !reps[i].traced) {
      ref = &r;
      pooled.add(r);
      problems.insert(problems.end(), r.client.violations.begin(),
                      r.client.violations.end());
    } else {
      if (!r.client.violations.empty()) {
        problems.push_back(which + ": oracle violations");
      }
      if (ref == nullptr || r.digest != ref->digest) {
        problems.push_back(which + ": content digest differs from the "
                                   "deployment's untraced run");
      }
    }
    if (r.converged_files != r.sampled_files) {
      problems.push_back(which + ": " +
                         std::to_string(r.sampled_files - r.converged_files) +
                         " of " + std::to_string(r.sampled_files) +
                         " sampled files did not converge");
    }
    checks += r.client.oracle_checks;
  }
  ClientOutcome& clients = pooled.client;
  std::size_t traced_reps = 0;
  for (const Rep& rep : reps) traced_reps += rep.traced ? 1 : 0;
  std::printf("digest: %016" PRIx64 "\n", pooled.digest);
  std::printf("deployment digests:");
  for (const RepResult* ref : first) {
    if (ref != nullptr) std::printf(" %016" PRIx64, ref->digest);
  }
  std::printf("\n");
  std::printf("repetitions: %zu untraced, %zu traced\n",
              reps.size() - traced_reps, traced_reps);
  std::printf("samples: reads %zu writes %zu (attempted %" PRIu64
              " reads, %" PRIu64 " writes, %" PRIu64 " client ops)\n",
              clients.read_latency.size(), clients.write_latency.size(),
              clients.reads_attempted, clients.writes_attempted,
              clients.ops);
  const Failures& f = clients.failures;
  std::printf("failed ops: %" PRIu64 " (blocked writes %" PRIu64
              ", unmet write concerns %" PRIu64 ", unresolved writes %" PRIu64
              ", failed reads %" PRIu64 ", unreplied remote ops %" PRIu64
              ")\n",
              f.total(), f.blocked_writes, f.unmet_concerns,
              f.unresolved_writes, f.failed_reads, f.unreplied_remote);
  std::printf("oracles: %" PRIu64 " checks, %zu problems; %" PRIu64
              " strong reads missed a write acked before a failover\n",
              checks, problems.size(), clients.strong_failover_misses);
  for (const std::string& p : problems) {
    std::printf("  VIOLATION %s\n", p.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> wall, cpu, setup;
    std::printf("wall ms per sim-s by repetition:");
    for (const Rep& rep : reps) {
      const RepResult& r = rep.result;
      wall.push_back(1e3 * r.run_wall_s / r.sim_s);
      cpu.push_back(1e3 * r.run_cpu_s / r.sim_s);
      setup.push_back(r.construct_s + r.place_s);
      std::printf(" %.2f", wall.back());
    }
    std::printf("\n");
    std::sort(clients.read_latency.begin(), clients.read_latency.end());
    std::sort(clients.write_latency.begin(), clients.write_latency.end());
    double r50 = 0, r99 = 0, w50 = 0, w99 = 0;
    if (!latency_quantiles(clients.read_latency, "read", r50, r99) ||
        !latency_quantiles(clients.write_latency, "write", w50, w99)) {
      return 1;
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"wall_ms_per_sim_s", median(wall), "ms"},
        {"cpu_ms_per_sim_s", median(cpu), "ms"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"read_p50_ms", r50, "sim_ms"},
        {"read_p99_ms", r99, "sim_ms"},
        {"write_p50_ms", w50, "sim_ms"},
        {"write_p99_ms", w99, "sim_ms"},
        {"stale_read_frac",
         clients.reads_served == 0
             ? 0.0
             : d(clients.stale_reads) / d(clients.reads_served),
         "ratio"},
        {"msgs_per_op", d(pooled.logical_msgs) / d(clients.ops),
         "msgs"},
        {"bytes_per_op", d(pooled.logical_bytes) / d(clients.ops), "B"},
    };
  } else {
    std::vector<double> wall_off, wall_on, construct, place;
    const RepResult* traced_first = nullptr;
    for (const Rep& rep : reps) {
      (rep.traced ? wall_on : wall_off).push_back(rep.result.run_wall_s);
      construct.push_back(rep.result.construct_s);
      place.push_back(rep.result.place_s);
      if (rep.traced && traced_first == nullptr) traced_first = &rep.result;
    }
    const double overhead =
        100.0 * (median(wall_on) - median(wall_off)) / median(wall_off);
    metrics = per_layer(args.workload, *traced_first, first_trace,
                        median(construct), median(place), overhead);
    if (!args.trace_out.empty()) {
      std::vector<const SpanLog*> logs;
      for (const SpanLog& log : first_trace.logs) logs.push_back(&log);
      if (!write_chrome_trace(args.trace_out, logs)) {
        std::fprintf(stderr, "repobench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
      std::printf("trace: %s\n", args.trace_out.c_str());
    }
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(clients.ops);
  json += ", \"failed\": " + std::to_string(clients.failures.total());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  return repobench::run(repobench::parse(argc, argv));
}
