// ThreadPool: every index of every batch runs exactly once and is visible
// to the caller when parallel_for returns, at any count, across back-to-
// back batches (workers still spinning from the last one) and after the
// workers have parked; the pool shuts down from either state; PoolObs
// totals add up.
#include "sim/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace sbp::sim {
namespace {

/// Sleeps long enough for every resident worker to give up spinning.
void let_workers_park() {
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(4 * ThreadPool::kSpinNs) +
      std::chrono::milliseconds(2));
}

/// Runs one batch of `count` and checks each index ran exactly once.
void expect_each_index_once(ThreadPool& pool, std::size_t count) {
  std::vector<std::atomic<std::uint32_t>> runs(count);
  pool.parallel_for(count, [&](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(runs[i].load(std::memory_order_relaxed), 1u)
        << "index " << i << " of " << count;
  }
}

TEST(ThreadPool, SizeCountsTheCaller) {
  EXPECT_EQ(ThreadPool(0).size(), 1u);
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(4).size(), 4u);
}

TEST(ThreadPool, CountsBelowAtAndAboveTheThreadCount) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 17u, 1000u}) {
      expect_each_index_once(pool, count);
    }
  }
}

TEST(ThreadPool, EveryIndexOnceOverManyBackToBackBatches) {
  ThreadPool pool(4);
  constexpr std::size_t kBatches = 10'000;
  constexpr std::size_t kMaxCount = 23;
  // Each batch writes its own number into the slots it covers; a slot run
  // twice, skipped, or run after the barrier shows up as a wrong sum or a
  // stale batch number.
  std::vector<std::atomic<std::uint64_t>> last(kMaxCount);
  std::vector<std::atomic<std::uint32_t>> runs(kMaxCount);
  for (std::size_t batch = 1; batch <= kBatches; ++batch) {
    const std::size_t count = batch % (kMaxCount + 1);
    for (auto& slot : runs) slot.store(0, std::memory_order_relaxed);
    pool.parallel_for(count, [&, batch](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
      last[i].store(batch, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(runs[i].load(std::memory_order_relaxed), 1u)
          << "batch " << batch << " index " << i;
      ASSERT_EQ(last[i].load(std::memory_order_relaxed), batch);
    }
    for (std::size_t i = count; i < kMaxCount; ++i) {
      ASSERT_EQ(runs[i].load(std::memory_order_relaxed), 0u)
          << "batch " << batch << " ran index " << i << " past its count";
    }
  }
}

TEST(ThreadPool, BatchesAfterTheWorkersParked) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    let_workers_park();
    expect_each_index_once(pool, 64);
  }
}

TEST(ThreadPool, DestroysWhileWorkersSpinOrPark) {
  {
    ThreadPool never_used(4);
  }
  for (int i = 0; i < 50; ++i) {  // workers still spinning from the batch
    ThreadPool pool(4);
    expect_each_index_once(pool, 8);
  }
  {
    ThreadPool pool(4);
    expect_each_index_once(pool, 8);
    let_workers_park();
  }
}

TEST(ThreadPool, PoolObsTotals) {
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    obs::PoolObs obs;
    pool.set_obs(&obs);
    ASSERT_EQ(obs.workers.size(), threads);
    const std::vector<std::size_t> counts = {0, 1, 2, 7, 64, 3};
    for (std::size_t round = 0; round < counts.size(); ++round) {
      if (round == 3) let_workers_park();
      expect_each_index_once(pool, counts[round]);
    }
    const std::size_t batches = counts.size() - 1;  // count 0 is no batch
    const std::uint64_t tasks =
        std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
    EXPECT_EQ(obs.batches, batches);
    EXPECT_EQ(obs.tasks, tasks);
    EXPECT_EQ(obs.imbalance_items.count(), batches);
    std::uint64_t executed = 0;
    std::uint64_t participations = 0;
    for (const obs::PoolObs::Worker& worker : obs.workers) {
      executed += worker.executed;
      participations += worker.batches;
    }
    EXPECT_EQ(executed, tasks);
    EXPECT_EQ(obs.workers[0].batches, batches);  // the caller is in each
    EXPECT_EQ(obs.busy_ns.count(), participations);
    // One dispatch sample per resident worker that entered a batch.
    EXPECT_EQ(obs.dispatch_ns.count(), participations - batches);
    EXPECT_LE(obs.dispatch_ns.count(), batches * (threads - 1));
  }
}

}  // namespace
}  // namespace sbp::sim
