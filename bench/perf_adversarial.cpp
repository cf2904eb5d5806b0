// Adversarial-workload benchmark + identity gates: generator-scale
// programs driven through the full pipeline, the matcher, and the
// Datalog engine.
//
// Three phases, each with a self-asserting gate (exit 1 on violation):
//
//   1. generation — seeded program generation + kernel execution
//      throughput across scales; gate: byte-identical regeneration.
//   2. pipeline — generated workloads through the full pipeline on the
//      record-heavy recorders (audit: one vertex per record) serially
//      and on a 4-thread pool; gate: bit-identical results at every
//      width.
//   3. datalog — recorded graphs as fact stores, recursive reachability
//      saturated serially and in parallel; gate: identical relations.
//
// Usage: bench_perf_adversarial [--smoke] [output.json]
//   --smoke  fewer seeds, smaller scales (CI-friendly)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_suite/executor.h"
#include "bench_suite/generator.h"
#include "bench_suite/program_text.h"
#include "core/pipeline.h"
#include "core/transform.h"
#include "datalog/engine.h"
#include "runtime/thread_pool.h"
#include "systems/recorder.h"

using namespace provmark;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bench_suite::GeneratorOptions options_for(std::uint64_t seed, int scale) {
  bench_suite::GeneratorOptions options;
  options.seed = seed;
  options.scale = scale;
  return options;
}

/// Result identity, timings excluded (the parallel run's wall clock
/// legitimately differs).
bool results_identical(const core::BenchmarkResult& a,
                       const core::BenchmarkResult& b) {
  return a.status == b.status && a.failure_reason == b.failure_reason &&
         a.result == b.result &&
         a.generalized_foreground == b.generalized_foreground &&
         a.generalized_background == b.generalized_background &&
         a.dummy_nodes == b.dummy_nodes && a.trials_run == b.trials_run &&
         a.trials_discarded == b.trials_discarded &&
         a.trials_unparseable == b.trials_unparseable;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output = "BENCH_adversarial.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      output = argv[i];
    }
  }
  bool all_gates_ok = true;

  // -- phase 1: generation + execution throughput ---------------------------
  const std::vector<int> scales =
      smoke ? std::vector<int>{8, 16} : std::vector<int>{8, 16, 32, 64};
  const int seeds_per_scale = smoke ? 10 : 50;
  struct ScaleRun {
    int scale = 0;
    int programs = 0;
    std::size_t ops = 0;
    std::size_t libc_events = 0;
    double seconds = 0;
    bool regeneration_identical = true;
  };
  std::vector<ScaleRun> generation;
  std::printf("phase 1: generation (%d seeds per scale)\n", seeds_per_scale);
  for (int scale : scales) {
    ScaleRun run;
    run.scale = scale;
    run.programs = seeds_per_scale;
    auto start = std::chrono::steady_clock::now();
    for (int seed = 1; seed <= seeds_per_scale; ++seed) {
      bench_suite::BenchmarkProgram program =
          bench_suite::generate_program(options_for(seed, scale));
      run.ops += program.ops.size();
      bench_suite::ExecutionResult exec =
          bench_suite::execute_program(program, true, seed);
      if (!exec.behaviour_ok) {
        std::fprintf(stderr, "  GATE: %s misbehaved: %s\n",
                     program.name.c_str(), exec.failure_reason.c_str());
        run.regeneration_identical = false;
      }
      run.libc_events += exec.trace.libc.size();
      // Regeneration gate: a second generation must be byte-identical.
      if (bench_suite::format_program(program) !=
          bench_suite::format_program(
              bench_suite::generate_program(options_for(seed, scale)))) {
        std::fprintf(stderr, "  GATE: gen%dx%d not reproducible\n", seed,
                     scale);
        run.regeneration_identical = false;
      }
    }
    run.seconds = seconds_since(start);
    all_gates_ok = all_gates_ok && run.regeneration_identical;
    std::printf("  scale=%-3d  %d programs, %zu ops, %zu libc events, "
                "%.3fs (%.0f programs/s)  %s\n",
                scale, run.programs, run.ops, run.libc_events, run.seconds,
                run.programs / run.seconds,
                run.regeneration_identical ? "reproducible" : "GATE FAILED");
    generation.push_back(run);
  }

  // -- phase 2: full pipeline, serial vs parallel ---------------------------
  struct PipelineRun {
    std::string system;
    double serial_seconds = 0;
    double parallel_seconds = 0;
    int programs = 0;
    bool identical = true;
  };
  const std::vector<std::string> systems = {"audit", "ebpf", "camflow"};
  const int pipeline_seeds = smoke ? 2 : 6;
  const int pipeline_scale = smoke ? 12 : 20;
  std::vector<PipelineRun> pipeline;
  std::printf("\nphase 2: pipeline identity (%d programs per system, "
              "scale %d)\n",
              pipeline_seeds, pipeline_scale);
  for (const std::string& system : systems) {
    PipelineRun run;
    run.system = system;
    run.programs = pipeline_seeds;
    for (int seed = 1; seed <= pipeline_seeds; ++seed) {
      bench_suite::BenchmarkProgram program =
          bench_suite::generate_program(options_for(seed, pipeline_scale));
      auto run_with = [&](int pool_threads) {
        runtime::ThreadPool pool(pool_threads);
        core::PipelineOptions options;
        options.system = system;
        options.seed = 42;
        options.pool = &pool;
        return core::run_benchmark(program, options);
      };
      auto start = std::chrono::steady_clock::now();
      core::BenchmarkResult serial = run_with(1);
      run.serial_seconds += seconds_since(start);
      start = std::chrono::steady_clock::now();
      core::BenchmarkResult parallel = run_with(4);
      run.parallel_seconds += seconds_since(start);
      if (!results_identical(serial, parallel)) {
        std::fprintf(stderr, "  GATE: %s on %s diverged across widths\n",
                     system.c_str(), program.name.c_str());
        run.identical = false;
      }
      if (serial.status == core::BenchmarkStatus::Failed) {
        std::fprintf(stderr, "  GATE: %s failed on %s: %s\n",
                     system.c_str(), program.name.c_str(),
                     serial.failure_reason.c_str());
        run.identical = false;
      }
    }
    all_gates_ok = all_gates_ok && run.identical;
    std::printf("  %-8s serial=%.3fs parallel(4)=%.3fs  %s\n",
                run.system.c_str(), run.serial_seconds, run.parallel_seconds,
                run.identical ? "bit-identical" : "GATE FAILED");
    pipeline.push_back(run);
  }

  // -- phase 3: Datalog saturation over recorded graphs ---------------------
  struct DatalogRun {
    std::size_t facts = 0;
    std::size_t derived = 0;
    double serial_seconds = 0;
    double parallel_seconds = 0;
    bool identical = true;
  } datalog_run;
  const int datalog_scale = smoke ? 24 : 64;
  std::printf("\nphase 3: datalog reachability (scale %d workload)\n",
              datalog_scale);
  {
    bench_suite::BenchmarkProgram program =
        bench_suite::generate_program(options_for(5, datalog_scale));
    std::unique_ptr<systems::Recorder> recorder =
        systems::make_recorder("ebpf");
    bench_suite::ExecutionResult exec = bench_suite::execute_program(
        program, true, 5, recorder->extra_audit_rules());
    std::string facts = core::transform_to_datalog(
        recorder->record(exec.trace, systems::TrialContext{5}), "g1");

    auto saturate = [&](int threads, double* elapsed) {
      runtime::ThreadPool pool(threads);
      datalog::Engine engine;
      datalog::Engine::EvalOptions eval;
      eval.threads = threads;
      eval.pool = &pool;
      engine.set_eval_options(eval);
      engine.load_program(facts);
      engine.load_program(
          "reach(X,Y) :- eg1(E,X,Y,L).\n"
          "reach(X,Z) :- reach(X,Y), eg1(E,Y,Z,L).\n");
      auto start = std::chrono::steady_clock::now();
      std::set<datalog::Tuple> derived = engine.relation("reach");
      *elapsed = seconds_since(start);
      datalog_run.facts = engine.fact_count();
      return derived;
    };
    std::set<datalog::Tuple> serial =
        saturate(1, &datalog_run.serial_seconds);
    std::set<datalog::Tuple> parallel =
        saturate(4, &datalog_run.parallel_seconds);
    datalog_run.derived = serial.size();
    datalog_run.identical = serial == parallel && !serial.empty();
    all_gates_ok = all_gates_ok && datalog_run.identical;
    std::printf("  %zu facts -> %zu reach tuples, serial=%.4fs "
                "parallel(4)=%.4fs  %s\n",
                datalog_run.facts, datalog_run.derived,
                datalog_run.serial_seconds, datalog_run.parallel_seconds,
                datalog_run.identical ? "identical" : "GATE FAILED");
  }

  // -- report ---------------------------------------------------------------
  std::FILE* f = std::fopen(output.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"adversarial\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"generation\": [\n");
  for (std::size_t i = 0; i < generation.size(); ++i) {
    const ScaleRun& run = generation[i];
    std::fprintf(f,
                 "    {\"scale\": %d, \"programs\": %d, \"ops\": %zu, "
                 "\"libc_events\": %zu, \"seconds\": %.6f, "
                 "\"reproducible\": %s}%s\n",
                 run.scale, run.programs, run.ops, run.libc_events,
                 run.seconds,
                 run.regeneration_identical ? "true" : "false",
                 i + 1 < generation.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pipeline\": [\n");
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const PipelineRun& run = pipeline[i];
    std::fprintf(f,
                 "    {\"system\": \"%s\", \"programs\": %d, "
                 "\"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, "
                 "\"identical\": %s}%s\n",
                 run.system.c_str(), run.programs, run.serial_seconds,
                 run.parallel_seconds, run.identical ? "true" : "false",
                 i + 1 < pipeline.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"datalog\": ");
  std::fprintf(f,
               "{\"facts\": %zu, \"derived\": %zu, "
               "\"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, "
               "\"identical\": %s},\n",
               datalog_run.facts, datalog_run.derived,
               datalog_run.serial_seconds, datalog_run.parallel_seconds,
               datalog_run.identical ? "true" : "false");
  std::fprintf(f, "  \"gates_ok\": %s\n}\n",
               all_gates_ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", output.c_str());
  return all_gates_ok ? 0 : 1;
}
