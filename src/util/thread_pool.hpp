#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dp::util {

/// Fixed-size worker pool for fork-join parallelism over index ranges.
///
/// run(n, f) executes f(0), ..., f(n-1) across the pool's workers plus the
/// calling thread and returns once every task has finished. Tasks are
/// claimed from a shared atomic counter, so WHICH thread runs a given task
/// is nondeterministic; callers that need reproducible floating-point
/// results must give every task its own output slot and reduce the slots
/// in fixed order afterwards (see for_chunks below).
///
/// A pool of size 1 spawns no threads and runs everything inline, so the
/// serial path is byte-for-byte the parallel path with one worker.
class ThreadPool {
 public:
  /// `num_threads` is the total worker count including the calling
  /// thread; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count including the calling thread (>= 1).
  std::size_t size() const { return workers_.size() + 1; }

  /// Run task(i) for every i in [0, num_tasks); blocks until all have
  /// completed. Tasks must not throw and must not call run() on the same
  /// pool reentrantly. Only one run() may be in flight at a time.
  void run(std::size_t num_tasks,
           const std::function<void(std::size_t)>& task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t num_tasks_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t active_ = 0;  ///< workers still inside the current batch
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// task(k) for every k in [0, n): on `pool` when there is one, otherwise
/// inline in ascending order.
template <typename Task>
void run(ThreadPool* pool, std::size_t n, Task&& task) {
  if (pool != nullptr) {
    pool->run(n, task);
  } else {
    for (std::size_t k = 0; k < n; ++k) task(k);
  }
}

/// The most tasks any kernel splits its work into, so a pool with more
/// workers than this leaves the rest idle.
inline constexpr std::size_t kMaxChunks = 64;

/// The fixed chunk count of `count` items with at least `min_per_chunk`
/// per chunk: count / min_per_chunk, clamped to [1, kMaxChunks]. It
/// depends on the input size alone, never on the thread count.
std::size_t num_chunks(std::size_t count, std::size_t min_per_chunk);

/// The fixed-chunk contract every parallel kernel follows: splits
/// [0, count) into num_chunks(count, min_per_chunk) contiguous chunks of
/// ceil(count / chunks) items (trailing ones may be shorter or empty) and
/// runs body(k, lo, hi) for each chunk k, via run(). A kernel that writes
/// only chunk-owned slots and reduces them in chunk order gets the same
/// bits for every pool size. `count == 0` still makes one empty chunk.
template <typename Body>
void for_chunks(ThreadPool* pool, std::size_t count,
                std::size_t min_per_chunk, Body&& body) {
  const std::size_t chunks = num_chunks(count, min_per_chunk);
  const std::size_t per_chunk = (count + chunks - 1) / chunks;
  run(pool, chunks, [&](std::size_t k) {
    body(k, std::min(count, k * per_chunk),
         std::min(count, (k + 1) * per_chunk));
  });
}

}  // namespace dp::util
