#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace provmark::runtime {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ClampsThreadCountToOne) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.thread_count(), 1);
  int runs = 0;
  pool.parallel_for(5, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 5);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelMapPreservesItemOrder) {
  ThreadPool pool(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  std::vector<int> doubled = pool.parallel_map<int>(
      items, [](int item, std::size_t) { return item * 2; });
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doubled[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  // The determinism contract: per-task values derived from (seed, index)
  // are bit-identical however the indices are scheduled.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(64);
    pool.parallel_for(out.size(), [&](std::size_t i) {
      out[i] = util::Rng(task_seed(42, i)).next_u64();
    });
    return out;
  };
  std::vector<std::uint64_t> serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

// -- nesting -----------------------------------------------------------------
//
// These tests never measure time. The only clock is a generous bound on
// each wait, so a scheduling bug fails a test instead of hanging it.

constexpr auto kWaitBound = std::chrono::seconds(10);

/// Holds each arriving thread until `needed` distinct threads have
/// arrived. arrive() returns false if the bound passes first.
class ThreadLatch {
 public:
  explicit ThreadLatch(std::size_t needed) : needed_(needed) {}

  bool arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.insert(std::this_thread::get_id());
    changed_.notify_all();
    return changed_.wait_for(lock, kWaitBound,
                             [&] { return arrived_.size() >= needed_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  std::set<std::thread::id> arrived_;
  std::size_t needed_;
};

/// A one-shot event; wait() returns false if the bound passes first.
class Flag {
 public:
  void set() {
    std::lock_guard<std::mutex> lock(mutex_);
    set_ = true;
    changed_.notify_all();
  }

  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, kWaitBound, [&] { return set_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool set_ = false;
};

/// Runs `body` once inside a task on one of `pool`'s workers — never on
/// the calling thread — and returns after it ran. The outer loop has two
/// indices; if the caller claims one, it waits there for the worker.
void run_on_worker(ThreadPool& pool, const std::function<void()>& body) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> claimed{false};
  Flag done;
  pool.parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      EXPECT_TRUE(done.wait()) << "no worker ran the outer task";
    } else if (!claimed.exchange(true)) {
      body();
      done.set();
    }
  });
}

TEST(ThreadPool, NestedLoopOnBusyWorkerIsHelpedByIdleWorker) {
  // The worker running the outer task opens a two-item loop whose items
  // only return once two distinct threads hold them: the worker itself
  // and the pool's other, idle worker. Run inline, the loop would wait
  // for a second thread that never comes.
  ThreadPool pool(3);
  std::atomic<int> met{0};
  std::set<std::thread::id> runners;
  std::mutex runners_mutex;
  run_on_worker(pool, [&] {
    ThreadLatch latch(2);
    pool.parallel_for(2, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lock(runners_mutex);
        runners.insert(std::this_thread::get_id());
      }
      if (latch.arrive()) met.fetch_add(1);
    });
  });
  EXPECT_EQ(met.load(), 2) << "the nested loop ran on one thread only";
  EXPECT_EQ(runners.size(), 2u);
  EXPECT_EQ(runners.count(std::this_thread::get_id()), 0u)
      << "the calling thread must not take queued work";
}

TEST(ThreadPool, ThreeLevelUnevenNestingCompletes) {
  // Level sizes differ per index (1..7 and 0..4 inner items), so
  // workers leave their own loops at different times and help others.
  // Every index-addressed slot matches the serial pool's.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(7 * 7 * 5, 0);
    pool.parallel_for(7, [&](std::size_t a) {
      pool.parallel_for(a + 1, [&](std::size_t b) {
        pool.parallel_for((a + b) % 5, [&](std::size_t c) {
          std::uint64_t seed = task_seed(a * 100 + b * 10 + c, 7);
          out[(a * 7 + b) * 5 + c] = util::Rng(seed).next_u64() | 1;
        });
      });
    });
    return out;
  };
  std::vector<std::uint64_t> serial = run(1);
  std::size_t filled = 0;
  for (std::uint64_t v : serial) filled += v != 0;
  EXPECT_GT(filled, 50u);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run(threads), serial) << "threads " << threads;
  }
}

TEST(ThreadPool, NestedExceptionFromHelperReachesLoopCaller) {
  // The nested loop's items meet at a two-thread latch, so one of them
  // surely runs on the idle helper worker; that one throws. The error
  // must reach the nested parallel_for's caller, not the outer loop or
  // the helper's worker thread, and the pool must stay usable.
  ThreadPool pool(3);
  bool caught = false;
  run_on_worker(pool, [&] {
    const std::thread::id owner = std::this_thread::get_id();
    ThreadLatch latch(2);
    try {
      pool.parallel_for(2, [&](std::size_t) {
        EXPECT_TRUE(latch.arrive());
        if (std::this_thread::get_id() != owner) {
          throw std::runtime_error("helper");
        }
      });
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "helper";
    }
  });
  EXPECT_TRUE(caught);
  std::atomic<int> runs{0};
  pool.parallel_for(16, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { runs.fetch_add(1); });
  });
  EXPECT_EQ(runs.load(), 64);
}

TEST(ThreadPool, FirstExceptionIsRethrown) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed loop and stays usable.
  std::atomic<int> runs{0};
  pool.parallel_for(16, [&](std::size_t) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 16);
}

TEST(ThreadPool, TaskSeedDecorrelatesNeighbours) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(task_seed(1, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(task_seed(1, 0), task_seed(2, 0));
}

TEST(ThreadPool, ParseThreadCountAcceptsOneToCap) {
  EXPECT_EQ(parse_thread_count("1", "--threads"), 1);
  EXPECT_EQ(parse_thread_count("4", "--threads"), 4);
  EXPECT_EQ(parse_thread_count("016", "--threads"), 16);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreads), "--threads"),
            kMaxThreads);
}

TEST(ThreadPool, ParseThreadCountRejectsMalformedAndOutOfRange) {
  // Only the parser runs here: no pool of any rejected size is built.
  for (const char* bad : {"", "4x", "x4", " 4", "4 ", "+4", "-2", "0", "00",
                          "257", "100000", "99999999999999999999", "1e3",
                          "4.0"}) {
    try {
      parse_thread_count(bad, "--matcher-threads");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      std::string message = e.what();
      EXPECT_NE(message.find("--matcher-threads"), std::string::npos)
          << message;
      EXPECT_NE(message.find(std::to_string(kMaxThreads)), std::string::npos)
          << "the error must name the cap: " << message;
    }
  }
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1);
  EXPECT_GE(default_pool().thread_count(), 1);
}

}  // namespace
}  // namespace provmark::runtime
