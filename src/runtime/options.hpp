#pragma once
/// \file options.hpp
/// \brief Multicore runtime knobs (dependency-free so shard/ can embed
///        them; consumed by runtime::ShardedFleet).
///
/// Three knobs: worker threads, ring segments and the epoch length.  The
/// segment count has a fixed default, never derived from `threads`, so
/// a config produces the same results at every thread count.  The
/// cross-segment hop latency is a constant of the fleet, not a knob.

#include <cstdint>

#include "util/time.hpp"

namespace idea::runtime {

/// How a deployment executes.  `threads == 1` (the default) is the
/// determinism oracle: the whole epoch protocol runs inline on the
/// calling thread through the existing single-threaded sim::Simulator
/// kernels — nothing is spawned, nothing is atomic-contended, and the
/// schedule is the canonical sequential one.  `threads > 1` executes the
/// same epoch protocol on a barrier-synchronized WorkerPool; a fixed-seed
/// run must produce byte-identical digests, message counts and metrics
/// JSON in both modes (tests/runtime/ enforces it).
struct RuntimeOptions {
  /// Worker threads (the caller participates as worker 0).
  std::uint32_t threads = 1;
  /// Ring segments the endpoint space is partitioned into — the unit of
  /// scheduling and of replica-group confinement (every group lives
  /// entirely inside one segment, so endpoint-local state never needs
  /// locks).  Results depend on the segment count (it shapes the rings)
  /// but never on `threads`, so the default is fixed: one ring over the
  /// whole endpoint space.  Set it to at least `threads` for parallelism.
  std::uint32_t segments = 1;
  /// Epoch length: the barrier cadence.  All events at time <= T execute
  /// before any event > T becomes visible across segments; cross-segment
  /// messages flush at epoch edges (conveyor semantics).
  SimDuration epoch = msec(50);
};

}  // namespace idea::runtime
