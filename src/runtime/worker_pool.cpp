#include "runtime/worker_pool.hpp"

namespace idea::runtime {

WorkerPool::WorkerPool(std::uint32_t threads)
    : threads_(threads == 0 ? 1 : threads), cursors_(threads_) {
  spawned_.reserve(threads_ - 1);
  for (std::uint32_t w = 1; w < threads_; ++w) {
    spawned_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
    ++generation_;
  }
  cv_start_.notify_all();
  for (std::thread& t : spawned_) t.join();
}

void WorkerPool::run_tasks(std::uint32_t task_count, const TaskBody& body) {
  ++stats_.batches;
  stats_.tasks_run += task_count;
  if (task_count == 0) return;

  if (threads_ == 1) {
    // Degenerate pool: the deterministic sequential schedule (ascending
    // task order on the calling thread) — the oracle mode's execution.
    for (std::uint32_t t = 0; t < task_count; ++t) body(t, 0);
    return;
  }

  {
    // Wait until every spawned worker is parked: always true between
    // batches (the tail wait below), but freshly spawned workers may not
    // have reached their first park yet.  The resets below then
    // happen-before every worker's wake-up (via mu_).
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [this] { return parked_ == threads_ - 1; });
    for (Cursor& c : cursors_) c.next.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    body_ = &body;
    task_count_ = task_count;
    ++generation_;
    parked_ = 0;
  }
  cv_start_.notify_all();

  work(0);  // the caller is worker 0

  // Wait for every spawned worker to park again: after this, no thread
  // touches the cursors or `body` until the next batch.
  std::unique_lock lock(mu_);
  cv_done_.wait(lock, [this] { return parked_ == threads_ - 1; });
  body_ = nullptr;
}

void WorkerPool::worker_loop(std::uint32_t worker) {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock lock(mu_);
      ++parked_;
      cv_done_.notify_one();
      cv_start_.wait(lock, [this, seen_generation] {
        return generation_ != seen_generation;
      });
      seen_generation = generation_;
      if (shutdown_) return;
    }
    work(worker);
  }
}

void WorkerPool::work(std::uint32_t worker) {
  const TaskBody& body = *body_;
  std::uint64_t steals = 0;
  for (std::uint32_t i = 0; i < threads_; ++i) {
    const std::uint32_t home = (worker + i) % threads_;
    for (std::uint32_t task = claim(home); task != kNone; task = claim(home)) {
      body(task, worker);
      if (home != worker) ++steals;
      done_.fetch_add(1, std::memory_order_release);
    }
  }
  // Every task is claimed; spin (rather than park) until those still
  // running elsewhere finish, so the whole pool parks together.
  while (done_.load(std::memory_order_acquire) != task_count_) {
    std::this_thread::yield();
  }
  if (steals > 0) {
    std::lock_guard lock(mu_);
    stats_.steals += steals;
  }
}

std::uint32_t WorkerPool::claim(std::uint32_t home) {
  const std::uint32_t homed =
      home < task_count_ ? (task_count_ - home - 1) / threads_ + 1 : 0;
  const std::uint32_t i =
      cursors_[home].next.fetch_add(1, std::memory_order_relaxed);
  return i < homed ? home + (homed - 1 - i) * threads_ : kNone;
}

}  // namespace idea::runtime
