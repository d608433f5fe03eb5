#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace dp::util {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.run(8, [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const auto id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreTasksThanThreads) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(10000);
  pool.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 10000);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::vector<double> slot(16, 0.0);
  for (int round = 1; round <= 50; ++round) {
    pool.run(slot.size(),
             [&](std::size_t i) { slot[i] = static_cast<double>(round); });
    const double sum = std::accumulate(slot.begin(), slot.end(), 0.0);
    ASSERT_DOUBLE_EQ(sum, 16.0 * round);
  }
}

TEST(ThreadPool, PerSlotWritesReduceDeterministically) {
  // The usage contract of the gradient kernels: each task owns a slot,
  // the caller reduces slots in fixed order. The reduced value must not
  // depend on the worker count.
  auto reduce_with = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<double> part(37, 0.0);
    pool.run(part.size(), [&](std::size_t i) {
      double acc = 0.0;
      for (std::size_t j = 0; j <= i; ++j) {
        acc += 1.0 / static_cast<double>(1 + ((i * 31 + j) % 97));
      }
      part[i] = acc;
    });
    double total = 0.0;
    for (const double p : part) total += p;
    return total;
  };
  const double serial = reduce_with(1);
  EXPECT_EQ(serial, reduce_with(2));
  EXPECT_EQ(serial, reduce_with(4));
  EXPECT_EQ(serial, reduce_with(7));
}

TEST(ThreadPool, HardwareConcurrencyDefault) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ForChunks, FixedContiguousChunksForAnyPool) {
  ThreadPool one(1), two(2), four(4);
  ThreadPool* const pools[] = {nullptr, &one, &two, &four};
  const std::size_t counts[] = {0, 1, 511, 512, 4097, 200000};
  for (const std::size_t min : {std::size_t{512}, std::size_t{2048}}) {
    for (const std::size_t count : counts) {
      const std::size_t n = num_chunks(count, min);
      EXPECT_EQ(n, std::clamp<std::size_t>(count / min, 1, 64));
      using Bounds = std::vector<std::pair<std::size_t, std::size_t>>;
      Bounds serial;
      for (ThreadPool* pool : pools) {
        Bounds bounds(n);
        std::atomic<std::size_t> calls{0};
        for_chunks(pool, count, min,
                   [&](std::size_t k, std::size_t lo, std::size_t hi) {
          bounds[k] = {lo, hi};
          calls.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(calls.load(), n) << "count " << count << " min " << min;
        // Contiguous from 0 to count with lo <= hi: every item lands in
        // exactly one chunk.
        std::size_t next = 0;
        for (const auto& [lo, hi] : bounds) {
          EXPECT_EQ(lo, next);
          EXPECT_LE(lo, hi);
          next = hi;
        }
        EXPECT_EQ(next, count);
        if (pool == nullptr) {
          serial = bounds;
        } else {
          EXPECT_EQ(bounds, serial) << pool->size() << " threads";
        }
      }
    }
  }
}

}  // namespace
}  // namespace dp::util
