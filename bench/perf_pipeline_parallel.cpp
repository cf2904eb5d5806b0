// Serial-vs-parallel pipeline benchmark: the perf trajectory of the
// src/runtime thread-pool work.
//
// Workload: the CamFlow 16-trial configuration (the trial-heaviest
// system, §3.2 / appendix A.6.3) over the five representative Figure 5
// syscall benchmarks plus two scale programs. Each (benchmark) pipeline
// is swept over the pool while its own recording/transformation trials
// fan out on the same pool — the two layers the runtime parallelizes.
//
// Recording latency: the real recorders spend most of each trial
// waiting (daemon start/stop, audit flush, Neo4j commit) — recording
// dominates the paper's Figures 5-7 — while this repo's simulated
// recorders run instantaneously. The bench restores that cost profile
// with PipelineOptions::simulated_recording_latency, so the measured
// speedup reflects the production-shaped workload (overlapped recorder
// waits) rather than raw CPU scaling, and is reproducible on small CI
// machines. The JSON records the latency plus the host's hardware
// concurrency so the numbers read honestly.
//
// Every thread count is cross-checked for bit-identical benchmark
// results against the 1-thread run (graphs, statuses, trial counters —
// timings excluded); any divergence fails the bench. Writes
// BENCH_pipeline_parallel.json.
//
// Usage: bench_perf_pipeline_parallel [--smoke] [output.json]
//   --smoke  fewer benchmarks, lower latency, threads {1,4} (CI-friendly)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "datalog/fact_io.h"
#include "runtime/thread_pool.h"
#include "util/strings.h"

using namespace provmark;

namespace {

/// Everything result-identity covers: structure and counters, no
/// timings, no thread counts.
std::string fingerprint(const core::BenchmarkResult& r) {
  std::string out;
  out += r.system + " " + r.benchmark + " ";
  out += core::status_name(r.status);
  out += " reason=" + r.failure_reason;
  out += util::format(
      " trials=%d discarded=%d unparseable=%d transient=%d cache=%llu/%llu\n",
      r.trials_run, r.trials_discarded, r.trials_unparseable,
      r.transient_properties,
      static_cast<unsigned long long>(r.similarity_cache_hits),
      static_cast<unsigned long long>(r.similarity_cache_lookups));
  out += datalog::to_datalog(r.result, "result");
  out += datalog::to_datalog(r.generalized_background, "bg");
  out += datalog::to_datalog(r.generalized_foreground, "fg");
  return out;
}

struct Run {
  int threads = 1;
  double seconds = 0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output = "BENCH_pipeline_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      output = argv[i];
    }
  }

  const double latency = smoke ? 0.005 : 0.025;  // seconds per trial
  const int trials = 16;  // the CamFlow default (appendix A.6.3 headroom)
  std::vector<bench_suite::BenchmarkProgram> programs;
  for (const char* name : {"open", "execve", "fork", "setuid", "rename"}) {
    programs.push_back(bench_suite::benchmark_by_name(name));
    if (smoke && programs.size() == 2) break;
  }
  if (!smoke) {
    programs.push_back(bench_suite::scale_benchmark(2));
    programs.push_back(bench_suite::scale_benchmark(4));
  }
  std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};

  auto run_workload = [&](int threads, double* seconds) {
    runtime::ThreadPool pool(threads);
    core::PipelineOptions options;
    options.system = "camflow";
    options.trials = trials;
    options.seed = 42;
    options.pool = &pool;
    options.simulated_recording_latency = latency;
    auto start = std::chrono::steady_clock::now();
    // (benchmark, system) sweep across the pool; each pipeline's trial
    // fan-out is offered to the same pool's idle workers.
    std::vector<std::string> prints = pool.parallel_map<std::string>(
        programs,
        [&](const bench_suite::BenchmarkProgram& program, std::size_t) {
          return fingerprint(core::run_benchmark(program, options));
        });
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    std::string all;
    for (const std::string& p : prints) all += p;
    return all;
  };

  std::printf("pipeline_parallel: camflow, %zu benchmarks, %d trials, "
              "%.0fms simulated recording latency/trial "
              "(host hardware threads: %u)\n\n",
              programs.size(), trials, latency * 1e3,
              std::thread::hardware_concurrency());

  std::vector<Run> runs;
  std::string baseline;
  bool all_identical = true;
  for (int threads : thread_counts) {
    Run run;
    run.threads = threads;
    std::string fp = run_workload(threads, &run.seconds);
    if (threads == thread_counts.front()) {
      baseline = fp;
    } else {
      run.identical = fp == baseline;
      all_identical = all_identical && run.identical;
    }
    std::printf("  threads=%d  wall=%.3fs  speedup=%.2fx  %s\n",
                threads, run.seconds,
                runs.empty() ? 1.0 : runs.front().seconds / run.seconds,
                run.identical ? "results identical to serial"
                              : "RESULT MISMATCH");
    runs.push_back(run);
  }

  double best_speedup = 0;
  int best_threads = 1;
  for (const Run& run : runs) {
    double speedup = runs.front().seconds / run.seconds;
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_threads = run.threads;
    }
  }
  std::printf("\nbest: %.2fx at %d threads; results %s\n", best_speedup,
              best_threads,
              all_identical ? "bit-identical across all thread counts"
                            : "DIVERGED");

  std::FILE* f = std::fopen(output.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"pipeline_parallel\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"system\": \"camflow\",\n  \"trials\": %d,\n", trials);
  std::fprintf(f, "  \"benchmarks\": %zu,\n", programs.size());
  std::fprintf(f, "  \"simulated_recording_latency_ms\": %.1f,\n",
               latency * 1e3);
  // Same key as BENCH_matcher_perf.json: parallel numbers from a
  // single-core container are self-describing.
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"seconds\": %.6f, "
                 "\"speedup\": %.3f, \"identical_to_serial\": %s}%s\n",
                 run.threads, run.seconds,
                 runs.front().seconds / run.seconds,
                 run.identical ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"best\": {\"threads\": %d, \"speedup\": %.3f},\n"
               "  \"identical\": %s\n}\n",
               best_threads, best_speedup, all_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", output.c_str());
  return all_identical ? 0 : 1;
}
