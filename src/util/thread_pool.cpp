#include "util/thread_pool.hpp"

#include <algorithm>

namespace dp::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  std::size_t n = num_threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::run(std::size_t num_tasks,
                     const std::function<void(std::size_t)>& task) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (std::size_t i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    num_tasks_ = num_tasks;
    next_.store(0, std::memory_order_relaxed);
    active_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  // The calling thread claims tasks alongside the workers.
  std::size_t i;
  while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < num_tasks) {
    task(i);
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return active_ == 0; });
  task_ = nullptr;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* task = nullptr;
    std::size_t num = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
      num = num_tasks_;
    }
    std::size_t i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) < num) {
      (*task)(i);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

std::size_t num_chunks(std::size_t count, std::size_t min_per_chunk) {
  return std::clamp<std::size_t>(count / min_per_chunk, 1, kMaxChunks);
}

}  // namespace dp::util
