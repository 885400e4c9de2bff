#pragma once
/// \file worker_pool.hpp
/// \brief Fixed pool of worker threads driven in barrier-synchronized
///        batches.
///
/// The pool executes *batches*: run_tasks(N, body) wakes every thread and
/// returns only when all N tasks ran and every worker parked again — a
/// full barrier on both sides, so the caller may mutate shared state
/// between batches without fences of its own.  Task t's home is worker
/// t % threads.  Within a batch, a worker claims its home tasks through
/// its own cursor (highest index first), then claims from the other
/// workers' cursors until all are dry, so unevenly sized tasks (hot
/// segments) still balance.  The task set of a batch is fixed, so a
/// claim is one fetch_add and needs no deque.
///
/// The calling thread participates as worker 0; a pool built with
/// `threads == 1` spawns nothing and runs every task inline in ascending
/// order — the degenerate case is the deterministic sequential schedule
/// the oracle mode relies on.
///
/// Tasks must be independent: the pool guarantees nothing about cross-task
/// ordering within a batch beyond "all complete before run_tasks returns".

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idea::runtime {

struct WorkerPoolStats {
  std::uint64_t batches = 0;    ///< run_tasks calls.
  std::uint64_t tasks_run = 0;  ///< Tasks executed across all batches.
  /// Tasks run by a worker other than their home worker (task % threads).
  std::uint64_t steals = 0;
};

class WorkerPool {
 public:
  /// Task body: (task id, executing worker id).
  using TaskBody = std::function<void(std::uint32_t, std::uint32_t)>;

  explicit WorkerPool(std::uint32_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::uint32_t threads() const { return threads_; }

  /// Execute tasks 0..task_count-1, blocking until all completed and all
  /// workers parked.  `body` may be invoked concurrently from different
  /// threads for different tasks.
  void run_tasks(std::uint32_t task_count, const TaskBody& body);

  [[nodiscard]] const WorkerPoolStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Claim counter over one worker's home tasks, on its own cache line.
  struct alignas(64) Cursor {
    std::atomic<std::uint32_t> next{0};
  };

  void worker_loop(std::uint32_t worker);
  /// Claim and run tasks (home first, then the others') until none is
  /// left, then wait for the batch to complete.
  void work(std::uint32_t worker);
  /// Next unclaimed task homed at `home`, highest first; kNone when dry.
  std::uint32_t claim(std::uint32_t home);

  const std::uint32_t threads_;
  std::vector<Cursor> cursors_;  ///< One per worker; reset per batch.

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;    ///< Bumped per batch (guarded by mu_).
  const TaskBody* body_ = nullptr;  ///< Current batch body (guarded by mu_).
  std::uint32_t task_count_ = 0;    ///< Current batch size (guarded by mu_).
  std::uint32_t parked_ = 0;        ///< Spawned workers waiting (guarded).
  bool shutdown_ = false;
  std::atomic<std::uint32_t> done_{0};  ///< Tasks of the batch completed.

  WorkerPoolStats stats_;
  std::vector<std::thread> spawned_;  ///< Workers 1..threads_-1.
};

}  // namespace idea::runtime
