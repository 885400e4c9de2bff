/// \file primitives_test.cpp
/// \brief Units for the parallel-runtime building blocks: the worker pool,
///        the conveyor, and the epoch-barrier driver.  The concurrent
///        cases double as TSan targets (the sanitize CI job runs this
///        binary under -fsanitize=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/conveyor.hpp"
#include "runtime/parallel_sim.hpp"
#include "runtime/worker_pool.hpp"

namespace idea::runtime {
namespace {

TEST(WorkerPool, SingleThreadRunsTasksInAscendingOrder) {
  WorkerPool pool(1);
  std::vector<std::uint32_t> order;
  pool.run_tasks(16, [&](std::uint32_t task, std::uint32_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);
  });
  std::vector<std::uint32_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // the oracle schedule
}

TEST(WorkerPool, AllTasksRunExactlyOnceAcrossThreads) {
  WorkerPool pool(4);
  constexpr std::uint32_t kTasks = 5000;
  std::vector<std::atomic<std::uint32_t>> ran(kTasks);
  for (int batch = 0; batch < 3; ++batch) {
    for (auto& r : ran) r.store(0, std::memory_order_relaxed);
    pool.run_tasks(kTasks, [&](std::uint32_t task, std::uint32_t) {
      ran[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint32_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[i].load(), 1u) << "batch " << batch << " task " << i;
    }
  }
  EXPECT_EQ(pool.stats().batches, 3u);
  EXPECT_EQ(pool.stats().tasks_run, 3u * kTasks);
}

TEST(WorkerPool, BarrierMakesSideEffectsVisibleToCaller) {
  WorkerPool pool(4);
  std::vector<std::uint64_t> cell(256, 0);  // plain, unsynchronized
  pool.run_tasks(256,
                 [&](std::uint32_t task, std::uint32_t) { cell[task] = task; });
  // run_tasks is a full barrier: plain reads below are ordered after the
  // workers' plain writes above.
  for (std::uint32_t i = 0; i < 256; ++i) ASSERT_EQ(cell[i], i);
}

TEST(WorkerPool, UnevenBatchesRunEachTaskExactlyOnce) {
  // Fewer tasks than threads (2) and a count that leaves the home slices
  // unequal (7 = 2+2+2+1): idle workers must claim nothing twice.
  WorkerPool pool(4);
  std::uint64_t expected_tasks = 0;
  for (int batch = 0; batch < 400; ++batch) {
    const std::uint32_t n = batch % 2 == 0 ? 7 : 2;
    std::vector<std::atomic<std::uint32_t>> ran(n);
    pool.run_tasks(n, [&](std::uint32_t task, std::uint32_t) {
      ran[task].fetch_add(1, std::memory_order_relaxed);
    });
    expected_tasks += n;
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(ran[i].load(), 1u) << "batch " << batch << " task " << i;
    }
  }
  EXPECT_EQ(pool.stats().tasks_run, expected_tasks);
}

TEST(WorkerPool, StealsCountTasksRunOffTheirHomeWorker) {
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    WorkerPool pool(threads);
    std::uint64_t off_home = 0;
    for (int batch = 0; batch < 50; ++batch) {
      constexpr std::uint32_t kTasks = 8;
      std::vector<std::uint32_t> ran_on(kTasks, UINT32_MAX);
      pool.run_tasks(kTasks, [&](std::uint32_t task, std::uint32_t worker) {
        // Worker 0's home tasks are slow, so the others run some of them.
        if (task % threads == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ran_on[task] = worker;
      });
      for (std::uint32_t t = 0; t < kTasks; ++t) {
        if (ran_on[t] != t % threads) ++off_home;
      }
    }
    EXPECT_EQ(pool.stats().steals, off_home) << "threads " << threads;
    if (threads == 1) EXPECT_EQ(pool.stats().steals, 0u);
  }
}

TEST(Conveyor, SealedPacketsVisibleOnlyToLaterEpochs) {
  Conveyor<int> c(2);
  c.post(0, 1, 7);
  c.post(0, 1, 8);
  c.seal(0, /*epoch=*/0);
  int drained = 0;
  // Same epoch: not yet visible (the edge is the flush instant).
  c.drain(1, /*current=*/0, [&](std::uint32_t, std::vector<int>& msgs) {
    drained += static_cast<int>(msgs.size());
  });
  EXPECT_EQ(drained, 0);
  c.drain(1, /*current=*/1, [&](std::uint32_t src, std::vector<int>& msgs) {
    EXPECT_EQ(src, 0u);
    ASSERT_EQ(msgs.size(), 2u);
    EXPECT_EQ(msgs[0], 7);  // post order preserved
    EXPECT_EQ(msgs[1], 8);
    drained += static_cast<int>(msgs.size());
  });
  EXPECT_EQ(drained, 2);
  EXPECT_TRUE(c.idle());
  EXPECT_EQ(c.stats().messages, 2u);
  EXPECT_EQ(c.stats().packets, 1u);
  EXPECT_EQ(c.stats().drained, 1u);
}

TEST(Conveyor, DrainsSourcesAscendingAndLanesFifo) {
  // One packet per lane per epoch: every destination drains every epoch.
  Conveyor<int> c(3);
  std::vector<int> seen;
  const auto collect = [&](std::uint32_t, std::vector<int>& msgs) {
    for (int m : msgs) seen.push_back(m);
  };
  for (std::uint64_t epoch = 0; epoch < 2; ++epoch) {
    for (std::uint32_t dst = 0; dst < 3; ++dst) c.drain(dst, epoch, collect);
    const int base = 100 * static_cast<int>(epoch);
    c.post(2, 0, base + 20);
    c.seal(2, epoch);
    c.post(1, 0, base + 10);
    c.post(1, 0, base + 11);
    c.seal(1, epoch);
  }
  c.drain(0, 2, collect);
  // Per epoch: source 1 before source 2 (ascending), post order within
  // a packet; epochs arrive in order.
  EXPECT_EQ(seen, (std::vector<int>{10, 11, 20, 110, 111, 120}));
  EXPECT_TRUE(c.idle());
}

/// Toy partition: counts epochs and posts one message per epoch to its
/// peer through a conveyor, verifying the begin/run/end cadence.
class CountingPartition final : public Partition {
 public:
  CountingPartition(Conveyor<std::uint64_t>& conveyor, std::uint32_t self,
                    std::uint32_t peer)
      : conveyor_(conveyor), self_(self), peer_(peer) {}

  void begin_epoch(SimTime, std::uint64_t epoch) override {
    conveyor_.drain(self_, epoch,
                    [&](std::uint32_t, std::vector<std::uint64_t>& m) {
                      for (std::uint64_t v : m) received_ += v;
                    });
  }
  void run_until(SimTime end) override { now_ = end; }
  void end_epoch(SimTime, std::uint64_t epoch) override {
    conveyor_.post(self_, peer_, epoch + 1);
    conveyor_.seal(self_, epoch);
    ++epochs_;
  }

  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] SimTime now() const { return now_; }

 private:
  Conveyor<std::uint64_t>& conveyor_;
  const std::uint32_t self_;
  const std::uint32_t peer_;
  SimTime now_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t received_ = 0;
};

std::pair<std::uint64_t, std::uint64_t> drive(std::uint32_t threads) {
  Conveyor<std::uint64_t> conveyor(2);
  CountingPartition a(conveyor, 0, 1);
  CountingPartition b(conveyor, 1, 0);
  WorkerPool pool(threads);
  ParallelSimulator psim(pool, {&a, &b}, msec(10));
  psim.run_until(msec(100));
  EXPECT_EQ(psim.now(), msec(100));
  EXPECT_EQ(a.now(), msec(100));
  EXPECT_EQ(a.epochs(), 10u);
  EXPECT_EQ(b.epochs(), 10u);
  return {a.received(), b.received()};
}

TEST(ParallelSimulator, EpochCadenceIsThreadCountInvariant) {
  const auto seq = drive(1);
  const auto par = drive(4);
  // Epochs 1..9 drain the peer's packets from epochs 0..8: sum 1..9 = 45.
  EXPECT_EQ(seq.first, 45u);
  EXPECT_EQ(seq.second, 45u);
  EXPECT_EQ(par, seq);
}

TEST(ParallelSimulator, PartialEpochAdvancesToExactTarget) {
  Conveyor<std::uint64_t> conveyor(2);
  CountingPartition a(conveyor, 0, 1);
  CountingPartition b(conveyor, 1, 0);
  WorkerPool pool(1);
  ParallelSimulator psim(pool, {&a, &b}, msec(10));
  psim.run_until(msec(25));  // 2.5 epochs: the tail epoch is short
  EXPECT_EQ(psim.now(), msec(25));
  EXPECT_EQ(a.now(), msec(25));
  EXPECT_EQ(a.epochs(), 3u);
}

}  // namespace
}  // namespace idea::runtime
