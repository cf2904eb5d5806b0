// Determinism under concurrency: the pipeline's parallel fan-out (trial
// recording/transformation, similarity buckets, bg/fg generalization)
// must produce results bit-identical to the serial run at any thread
// count — every trial derives its randomness from (seed, trial index),
// never from scheduling. These tests pin that contract at 1, 4 and 8
// threads, across the noisy recorders (SPADE truncation, CamFlow
// interference) where a scheduling leak would actually change results,
// and for nested loops: cells on pool workers whose trial, bucket and
// search loops are helped by the pool's idle workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "runtime/thread_pool.h"
#include "systems/spade.h"

namespace provmark::core {
namespace {

BenchmarkResult run_with_threads(const std::string& system,
                                 const std::string& benchmark, int threads,
                                 std::uint64_t seed, int trials = 0) {
  runtime::ThreadPool pool(threads);
  PipelineOptions options;
  options.system = system;
  options.seed = seed;
  options.trials = trials;
  options.pool = &pool;
  return run_benchmark(bench_suite::benchmark_by_name(benchmark), options);
}

/// Full result identity, timings excluded (wall clocks legitimately
/// differ across pool widths).
void expect_identical(const BenchmarkResult& a, const BenchmarkResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.status, b.status) << context;
  EXPECT_EQ(a.failure_reason, b.failure_reason) << context;
  EXPECT_TRUE(a.result == b.result) << context;
  EXPECT_TRUE(a.generalized_foreground == b.generalized_foreground)
      << context;
  EXPECT_TRUE(a.generalized_background == b.generalized_background)
      << context;
  EXPECT_EQ(a.dummy_nodes, b.dummy_nodes) << context;
  EXPECT_EQ(a.trials_run, b.trials_run) << context;
  EXPECT_EQ(a.trials_discarded, b.trials_discarded) << context;
  EXPECT_EQ(a.trials_unparseable, b.trials_unparseable) << context;
  EXPECT_EQ(a.transient_properties, b.transient_properties) << context;
  EXPECT_EQ(a.similarity_cache_lookups, b.similarity_cache_lookups)
      << context;
  EXPECT_EQ(a.similarity_cache_hits, b.similarity_cache_hits) << context;
}

TEST(ParallelDeterminism, CamflowSixteenTrialsIdenticalAt148Threads) {
  // The trial-heaviest configuration: 16 trials per variant, structural
  // interference noise, similarity buckets fanned out over the pool.
  BenchmarkResult serial = run_with_threads("camflow", "open", 1, 42);
  for (int threads : {4, 8}) {
    BenchmarkResult parallel =
        run_with_threads("camflow", "open", threads, 42);
    expect_identical(serial, parallel,
                     "camflow threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, SpadeTruncationNoiseIdenticalAt148Threads) {
  // SPADE's truncated flushes make some trials unparseable; the
  // unparseable count and the retry behaviour must not depend on which
  // thread hit the garbled trial.
  BenchmarkResult serial = run_with_threads("spade", "rename", 1, 7);
  for (int threads : {4, 8}) {
    BenchmarkResult parallel =
        run_with_threads("spade", "rename", threads, 7);
    expect_identical(serial, parallel,
                     "spade threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, SeedDrivesResultsNotScheduling) {
  // Re-running the same (seed, threads) pair reproduces the result
  // exactly, while a different seed reshuffles the recorder-minted
  // transients (element ids differ even when the structure agrees) —
  // i.e. variation comes from the seed, never from scheduling.
  BenchmarkResult a = run_with_threads("camflow", "open", 4, 1);
  BenchmarkResult a_again = run_with_threads("camflow", "open", 4, 1);
  expect_identical(a, a_again, "same seed, same threads");
  BenchmarkResult b = run_with_threads("camflow", "open", 4, 2);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.result.node_count(), b.result.node_count())
      << "structure is seed-independent for a stable benchmark";
  EXPECT_EQ(a.result.edge_count(), b.result.edge_count());
}

TEST(ParallelDeterminism, HeavyRetryWorkloadIdenticalAcrossThreads) {
  // Aggressive truncation forces retry rounds (doubling trials), the
  // path where the memo cache and cross-round trial reuse interact with
  // the pool the most.
  auto run = [](int threads) {
    runtime::ThreadPool pool(threads);
    systems::SpadeConfig config;
    config.truncation_probability = 0.5;
    PipelineOptions options;
    options.recorder = std::make_shared<systems::SpadeRecorder>(config);
    options.seed = 8;
    options.trials = 8;
    options.pool = &pool;
    return run_benchmark(bench_suite::benchmark_by_name("open"), options);
  };
  BenchmarkResult serial = run(1);
  EXPECT_EQ(serial.status, BenchmarkStatus::Ok);
  for (int threads : {4, 8}) {
    expect_identical(serial, run(threads),
                     "retry threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminism, CacheCountersExposedAndConsistent) {
  // The memo cache fields of BenchmarkResult: lookups cover every
  // similar() the classifier posed; a single-round run computes each
  // pair once (no hits — the memo is exact, not digest-trusting).
  BenchmarkResult result = run_with_threads("camflow", "open", 4, 42);
  EXPECT_GT(result.similarity_cache_lookups, 0u);
  EXPECT_LE(result.similarity_cache_hits, result.similarity_cache_lookups);
  EXPECT_EQ(result.threads_used, 4);
}

TEST(ParallelDeterminism, RetryRoundsRunFromCache) {
  // Retry rounds re-partition all trials, re-posing every previously
  // classified pair: those repeats must be served as memo hits.
  runtime::ThreadPool pool(4);
  systems::SpadeConfig config;
  config.truncation_probability = 0.7;
  PipelineOptions options;
  options.recorder = std::make_shared<systems::SpadeRecorder>(config);
  options.seed = 8;
  options.trials = 4;
  options.pool = &pool;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  ASSERT_GT(result.trials_run, 4) << "workload must have retried";
  EXPECT_GT(result.similarity_cache_hits, 0u);
  EXPECT_LE(result.similarity_cache_hits, result.similarity_cache_lookups);
}

TEST(ParallelDeterminism, FewUnevenCellsIdenticalAt1248Threads) {
  // The cold set-up shape of a sweep: one `close` cell per recorder,
  // fewer and more uneven cells than threads at 8. Workers that find no
  // cell left help with the trials, buckets and searches of the cells
  // still running; none of that may show in any result.
  std::vector<BatchCell> cells;
  for (const char* system :
       {"spade", "opus", "camflow", "spade-camflow", "audit", "ebpf"}) {
    cells.push_back({cells.size(), system, "close"});
  }
  auto run = [&](int threads) {
    runtime::ThreadPool pool(threads);
    CellRunOptions options;
    options.pool = &pool;
    return run_batch_cells(cells, options);
  };
  const std::vector<BenchmarkResult> serial = run(1);
  for (int threads : {2, 4, 8}) {
    const std::vector<BenchmarkResult> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      expect_identical(serial[i], parallel[i],
                       cells[i].system + " threads=" +
                           std::to_string(threads));
      EXPECT_EQ(serial[i].matcher_steps, parallel[i].matcher_steps)
          << cells[i].system << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace provmark::core
