// Shared plumbing of the benchmark program: arguments, the result line
// and sample statistics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace provbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Directory holding provmark_cli and fsync_shim.so.
  std::string tools_dir;
  /// Scratch directory (journals, sockets, spans), relative to the
  /// working directory so socket paths stay short.
  std::string work_dir = ".bench_run";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's verdict: the last stdout line is built from this.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a correctness failure (the first is printed to stderr).
  void wrong(const std::string& why);
};

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Monotonic seconds.
double now_s();
/// Logical CPUs available to this process.
int cpu_count();

// -- workloads -----------------------------------------------------------------

Outcome run_table1_sweep(const Args& args);
Outcome run_gen_search(const Args& args);
Outcome run_serve_mixed(const Args& args);

/// The traced run (--trace 1): fixed passes of both pipeline workloads
/// and a fixed serve stream, whichever workload is named, so every
/// per-layer metric is printed; spans go to <work_dir>/spans.jsonl.
void run_pipeline_layers(const Args& args, Outcome& out);
void run_serve_layers(const Args& args, Outcome& out);

}  // namespace provbench
