// provbench — the end-to-end benchmark program (see ../README.md).
//
//   provbench[_traced] --workload <table1_sweep|gen_search|serve_mixed>
//                      --seed N --seconds S --tools-dir DIR
//
// provbench prints the end-to-end metrics of the named workload;
// provbench_traced (built with the layer wrappers) runs the traced work
// and prints the per-layer metrics.
// Prints progress and counters on stderr and, as the last stdout line,
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. Exits 1
// without a result line on bad arguments or an internal error. Scratch
// files go to .bench_run/ under the working directory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "trace.h"

namespace provbench {

void Outcome::wrong(const std::string& why) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace provbench

namespace {

using provbench::Args;
using provbench::Outcome;

void print_result(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", out.metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + out.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--tools-dir") {
      args.tools_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.work_dir);
    Outcome out;
    if (provbench::trace::compiled_in()) {
      provbench::run_pipeline_layers(args, out);
      provbench::run_serve_layers(args, out);
    } else if (args.workload == "table1_sweep") {
      out = provbench::run_table1_sweep(args);
    } else if (args.workload == "gen_search") {
      out = provbench::run_gen_search(args);
    } else if (args.workload == "serve_mixed") {
      out = provbench::run_serve_mixed(args);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    if (out.attempted == 0) throw std::runtime_error("no operation attempted");
    print_result(out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "provbench: %s\n", e.what());
    return 1;
  }
}
