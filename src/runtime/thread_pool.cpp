#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace provmark::runtime {

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_available;
  std::deque<std::function<void()>> queue;
  std::vector<std::thread> workers;
  bool stopping = false;

  // A worker takes queued work only here, at the top of its own stack,
  // never while it waits inside a parallel_for. Every thread that waits
  // on a loop therefore waits only for items of loops nested strictly
  // deeper than its own, so waits cannot form a cycle.
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_available.wait(lock,
                            [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and drained
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(int threads)
    : impl_(new Impl), threads_(threads < 1 ? 1 : threads) {
  for (int i = 1; i < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_available.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Serial pool or tiny loop: run inline. Every other loop — nested on
  // one of this pool's workers or not — offers its indices to idle
  // workers and drains them itself, so it finishes even when no worker
  // is free to help.
  if (threads_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One shared claim counter; each participant (pool workers plus the
  // calling thread) pulls the next unclaimed index until none remain.
  // The whole loop state — including a copy of fn — lives in one
  // shared_ptr: queued drain closures may be popped after parallel_for
  // has returned (the claim counter is exhausted, so they do no work),
  // and must not reference the caller's dead stack frame. A loop
  // started while every worker is busy leaves exactly such no-op
  // closures behind.
  struct State {
    std::function<void(std::size_t)> fn;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;

  auto drain = [state] {
    for (;;) {
      std::size_t i = state->next.fetch_add(1);
      if (i >= state->n) return;
      if (!state->failed.load()) {
        try {
          state->fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->error_mutex);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true);
        }
      }
      if (state->done.fetch_add(1) + 1 == state->n) {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        state->all_done.notify_all();
      }
    }
  };

  std::size_t helpers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_ - 1), n - 1);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (std::size_t i = 0; i < helpers; ++i) impl_->queue.push_back(drain);
  }
  // Wake one idle worker per queued helper, not the whole pool.
  for (std::size_t i = 0; i < helpers; ++i) {
    impl_->work_available.notify_one();
  }

  drain();  // the caller participates

  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->all_done.wait(lock, [&] { return state->done.load() == n; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

int parse_thread_count(std::string_view text, std::string_view what) {
  bool digits = !text.empty();
  int value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      digits = false;
      break;
    }
    // Saturate just past the cap, so a long digit string cannot overflow.
    value = std::min(value * 10 + (c - '0'), kMaxThreads + 1);
  }
  if (!digits || value < 1 || value > kMaxThreads) {
    throw std::invalid_argument(
        std::string(what) + " must be a whole number from 1 to " +
        std::to_string(kMaxThreads) + ", got '" + std::string(text) + "'");
  }
  return value;
}

int default_thread_count() {
  const char* env = std::getenv("PROVMARK_THREADS");
  if (env != nullptr && *env != '\0') {
    return parse_thread_count(env, "PROVMARK_THREADS");
  }
#if defined(PROVMARK_THREADS) && PROVMARK_THREADS > 0
  return PROVMARK_THREADS;
#else
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
#endif
}

ThreadPool& default_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // Two SplitMix64 finalization rounds over (seed, index): adjacent
  // indices land in unrelated regions of the stream.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace provmark::runtime
