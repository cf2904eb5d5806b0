// table1_sweep and gen_search: cells through core::run_batch_cells, the
// single-process `provmark batch` path, in repeated whole passes.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>

#include "bench_suite/generator.h"
#include "bench_suite/program.h"
#include "common.h"
#include "core/pipeline.h"
#include "core/shard.h"
#include "datalog/fact_io.h"
#include "expected_table2.h"
#include "graph/algorithms.h"
#include "runtime/thread_pool.h"
#include "trace.h"

namespace provbench {

namespace {

namespace core = provmark::core;
namespace bench_suite = provmark::bench_suite;

const std::vector<std::string> kSystems = {"spade", "opus",  "camflow",
                                           "spade-camflow", "audit", "ebpf"};
/// gen_search: programs gen1x32..gen8x32 and the per-call step budget.
constexpr int kGenPrograms = 8;
constexpr int kGenScale = 32;
constexpr std::size_t kGenStepBudget = 1'000'000;
/// Cold set-ups per run (all but one in forked children); setup_s is
/// their median.
constexpr int kSetupRepeats = 9;

/// This process's user+system CPU seconds.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// This process's peak resident set, MiB.
double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct Sweep {
  /// System-major: each recorder's cells are one contiguous chunk.
  std::vector<core::BatchCell> cells;
  std::size_t chunk_size = 0;
  core::CellRunOptions options;
  std::unique_ptr<provmark::runtime::ThreadPool> pool;
};

std::vector<std::string> gen_names() {
  std::vector<std::string> names;
  for (int k = 1; k <= kGenPrograms; ++k) {
    bench_suite::GeneratorOptions options;
    options.seed = static_cast<std::uint64_t>(k);
    options.scale = kGenScale;
    names.push_back(bench_suite::generated_name(options));
  }
  return names;
}

/// Everything a pipeline workload needs before its first timed pass.
Sweep set_up(bool gen, std::uint64_t seed, int threads) {
  Sweep sweep;
  sweep.pool = std::make_unique<provmark::runtime::ThreadPool>(threads);
  const std::vector<std::string> benchmarks =
      gen ? gen_names() : core::table_benchmark_names();
  sweep.chunk_size = benchmarks.size();
  for (const std::string& system : kSystems) {
    for (const std::string& benchmark : benchmarks) {
      sweep.cells.push_back({sweep.cells.size(), system, benchmark});
    }
  }
  // Resolve (and, for gen<seed>x<scale>, generate) every program once;
  // benchmark_by_name caches it for the timed passes.
  for (const std::string& benchmark : benchmarks) {
    bench_suite::benchmark_by_name(benchmark);
  }
  sweep.options.seed = seed;
  sweep.options.pool = sweep.pool.get();
  if (gen) sweep.options.matcher.step_budget = kGenStepBudget;
  // Warm-up: one small Table-1 cell per recorder on the sweep's own pool
  // and options, so lazily built state is in place before timing.
  std::vector<core::BatchCell> warmup;
  for (const std::string& system : kSystems) {
    warmup.push_back({warmup.size(), system, "close"});
  }
  core::run_batch_cells(warmup, sweep.options);
  return sweep;
}

/// Seconds of one set-up in a forked child. The caller has not set up
/// yet and has no threads, so the child starts as cold as a fresh
/// process: nothing resolved, no pool.
double child_setup_s(bool gen, std::uint64_t seed, int threads) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const double t0 = now_s();
      Sweep sweep = set_up(gen, seed, threads);
      const double elapsed = now_s() - t0;
      if (write(fds[1], &elapsed, sizeof elapsed) == sizeof elapsed) code = 0;
    } catch (...) {
    }
    _exit(code);
  }
  close(fds[1]);
  double elapsed = 0;
  const ssize_t got = read(fds[0], &elapsed, sizeof elapsed);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof elapsed || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up failed in a child process");
  }
  return elapsed;
}

/// setup_s: the median of kSetupRepeats cold set-ups, the last of them
/// the one this process keeps. Call it before anything is set up.
double median_setup_s(bool gen, std::uint64_t seed, int threads, Sweep* kept) {
  std::vector<double> samples;
  for (int i = 0; i + 1 < kSetupRepeats; ++i) {
    samples.push_back(child_setup_s(gen, seed, threads));
  }
  const double t0 = now_s();
  *kept = set_up(gen, seed, threads);
  samples.push_back(now_s() - t0);
  return median(samples);
}

/// Identity of one cell's outcome: status, result facts, dummy nodes.
std::uint64_t result_digest(const core::BenchmarkResult& r) {
  std::string text = core::status_name(r.status);
  text += '\n';
  text += provmark::datalog::to_datalog(r.result, "g");
  for (provmark::graph::Id id : r.dummy_nodes) {
    text += "dummy " + id + "\n";
  }
  return fnv1a(text);
}

/// The paper's Table 2 status of (system, benchmark), or nullptr for
/// systems Table 2 does not cover.
const char* table2_status(const std::string& system,
                          const std::string& benchmark) {
  const auto& row = provmark_bench::expected_table2().at(benchmark);
  if (system == "spade") return row.spade.status;
  if (system == "opus") return row.opus.status;
  if (system == "camflow") return row.camflow.status;
  return nullptr;
}

/// One pass over every cell, one core::run_batch_cells call per
/// recorder, each timed on its own.
struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> chunk_wall_s, chunk_cpu_s;
  std::vector<core::BenchmarkResult> results;
};

Pass run_pass(const Sweep& sweep) {
  Pass pass;
  for (std::size_t begin = 0; begin < sweep.cells.size();
       begin += sweep.chunk_size) {
    const std::vector<core::BatchCell> chunk(
        sweep.cells.begin() + static_cast<std::ptrdiff_t>(begin),
        sweep.cells.begin() + static_cast<std::ptrdiff_t>(begin + sweep.chunk_size));
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    std::vector<core::BenchmarkResult> results =
        core::run_batch_cells(chunk, sweep.options);
    pass.chunk_wall_s.push_back(now_s() - t0);
    pass.chunk_cpu_s.push_back(process_cpu_s() - c0);
    pass.wall_s += pass.chunk_wall_s.back();
    pass.cpu_s += pass.chunk_cpu_s.back();
    for (core::BenchmarkResult& r : results) pass.results.push_back(std::move(r));
  }
  return pass;
}

/// Counts the cells of a pass that failed: a Failed status, or (on the
/// Table-1 sweep) a status other than the paper's Table 2, or a result
/// digest that differs from `digests` (filled on the first pass).
std::uint64_t check_pass(const Sweep& sweep, const Pass& pass, bool table2,
                         std::vector<std::uint64_t>& digests, Outcome& out) {
  std::uint64_t failed = 0;
  const bool first = digests.empty();
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const core::BatchCell& cell = sweep.cells[i];
    const core::BenchmarkResult& r = pass.results[i];
    const std::string where = cell.system + "/" + cell.benchmark;
    bool bad = false;
    if (r.status == core::BenchmarkStatus::Failed) {
      std::fprintf(stderr, "failed cell %s: %s\n", where.c_str(),
                   r.failure_reason.c_str());
      bad = true;
    }
    if (table2) {
      const char* expected = table2_status(cell.system, cell.benchmark);
      if (expected != nullptr && !bad &&
          std::string(core::status_name(r.status)) != expected) {
        out.wrong(where + " is " + core::status_name(r.status) +
                  ", Table 2 says " + expected);
        bad = true;
      }
    }
    const std::uint64_t digest = result_digest(r);
    if (first) {
      digests.push_back(digest);
    } else if (digests[i] != digest) {
      out.wrong(where + " result differs between passes");
      bad = true;
    }
    if (bad) ++failed;
  }
  return failed;
}

/// Timed passes until `seconds` have elapsed (at least one).
struct Timed {
  std::size_t passes = 0;
  /// Per recorder chunk, its wall and CPU seconds in each pass.
  std::vector<std::vector<double>> chunk_wall_s, chunk_cpu_s;
  /// Every cell's time in every pass.
  std::vector<double> cell_ms;
  std::vector<std::uint64_t> digests;
  std::vector<core::BenchmarkResult> last;
};

Timed timed_passes(const Sweep& sweep, const Args& args, bool table2,
                   Outcome& out) {
  Timed timed;
  const double start = now_s();
  do {
    Pass pass = run_pass(sweep);
    ++timed.passes;
    timed.chunk_wall_s.resize(pass.chunk_wall_s.size());
    timed.chunk_cpu_s.resize(pass.chunk_cpu_s.size());
    for (std::size_t c = 0; c < pass.chunk_wall_s.size(); ++c) {
      timed.chunk_wall_s[c].push_back(pass.chunk_wall_s[c]);
      timed.chunk_cpu_s[c].push_back(pass.chunk_cpu_s[c]);
    }
    std::fprintf(stderr, "pass %zu: %.3f s wall, %.3f s cpu\n", timed.passes,
                 pass.wall_s, pass.cpu_s);
    for (const core::BenchmarkResult& r : pass.results) {
      timed.cell_ms.push_back(
          (r.timings.recording + r.timings.processing_total()) * 1e3);
    }
    out.attempted += sweep.cells.size();
    out.failed += check_pass(sweep, pass, table2, timed.digests, out);
    timed.last = std::move(pass.results);
  } while (now_s() - start < args.seconds);
  std::fprintf(stderr, "%s: %zu passes of %zu cells\n", args.workload.c_str(),
               timed.passes, sweep.cells.size());
  return timed;
}

/// Sum over chunks of each chunk's median over passes: a pass's cost
/// with a slow stretch of the shared machine in one pass of a chunk
/// left out.
double sum_of_medians(const std::vector<std::vector<double>>& per_chunk) {
  double sum = 0;
  for (const std::vector<double>& samples : per_chunk) sum += median(samples);
  return sum;
}

/// The end-to-end metrics of a pipeline workload: an operation is a
/// cell; a pass costs the sum of its chunks' medians over the run.
void add_metrics(Outcome& out, double setup_s, const Sweep& sweep,
                 const Timed& timed) {
  const double n = static_cast<double>(sweep.cells.size());
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
  out.add("ops_per_s", n / sum_of_medians(timed.chunk_wall_s), "1/s");
  out.add("cpu_ms_per_op", sum_of_medians(timed.chunk_cpu_s) * 1e3 / n, "ms");
  out.add("op_ms_p90", quantile(timed.cell_ms, 0.9), "ms");
  // The median cell moves with the shared machine's speed by more than
  // the bounds allow (README, "Steadiness"), so it is only reported.
  std::fprintf(stderr, "cell_ms_p50 %.4f over %zu cells\n",
               quantile(timed.cell_ms, 0.5), timed.cell_ms.size());
}

}  // namespace

Outcome run_table1_sweep(const Args& args) {
  Outcome out;
  Sweep sweep;
  const double setup_s = median_setup_s(false, args.seed, cpu_count(), &sweep);
  Timed timed = timed_passes(sweep, args, true, out);
  add_metrics(out, setup_s, sweep, timed);
  return out;
}

Outcome run_gen_search(const Args& args) {
  Outcome out;
  Sweep sweep;
  const double setup_s = median_setup_s(true, args.seed, 1, &sweep);
  Timed timed = timed_passes(sweep, args, false, out);
  // Before the reference search, so peak_rss_mb is the workload's own.
  add_metrics(out, setup_s, sweep, timed);

  // Reference, outside the timed phase: the unbudgeted WL-scarcity
  // search (with component decomposition) finishes every cell; the
  // budgeted default search must land on the same result graph.
  provmark::runtime::ThreadPool pool(cpu_count());
  core::CellRunOptions reference = sweep.options;
  reference.pool = &pool;
  reference.matcher = {};
  reference.matcher.order = provmark::matcher::CandidateOrder::WlScarcity;
  reference.matcher.decompose = true;
  const std::vector<core::BenchmarkResult> expected =
      core::run_batch_cells(sweep.cells, reference);
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    const core::BenchmarkResult& got = timed.last[i];
    const core::BenchmarkResult& want = expected[i];
    if (got.status != want.status ||
        got.result.node_count() != want.result.node_count() ||
        got.result.edge_count() != want.result.edge_count() ||
        provmark::graph::structural_digest(got.result) !=
            provmark::graph::structural_digest(want.result)) {
      out.wrong(sweep.cells[i].system + "/" + sweep.cells[i].benchmark +
                " differs from the unbudgeted WL-scarcity search");
    }
  }
  return out;
}

// -- traced run ------------------------------------------------------------------

namespace {

double per(double total, double n) { return n > 0 ? total / n : 0; }

/// One traced pass: spans on, then off; returns the spans.
std::vector<trace::Span> traced_pass(const Sweep& sweep, Pass* pass) {
  trace::take();
  trace::set_recording(true);
  *pass = run_pass(sweep);
  trace::set_recording(false);
  return trace::take();
}

}  // namespace

void run_pipeline_layers(const Args& args, Outcome& out) {
  const std::string spans_path = args.work_dir + "/spans.jsonl";
  std::remove(spans_path.c_str());

  // -- Table-1 sweep, one thread, spans on ----------------------------------
  Sweep table1 = set_up(false, args.seed, 1);
  Pass plain = run_pass(table1);  // untraced twin, for the overhead
  Pass traced;
  std::vector<trace::Span> spans = traced_pass(table1, &traced);
  trace::write_spans(spans_path, spans);
  std::vector<std::uint64_t> digests;
  out.attempted += table1.cells.size() * 2;
  out.failed += check_pass(table1, plain, true, digests, out);
  out.failed += check_pass(table1, traced, true, digests, out);

  const double cells = static_cast<double>(table1.cells.size());
  const trace::Total exec = trace::total(spans, "os.execute");
  const trace::Total record = trace::total(spans, "systems.record");
  std::uint64_t unparseable = 0, hits = 0, lookups = 0;
  for (const core::BenchmarkResult& r : traced.results) {
    unparseable += static_cast<std::uint64_t>(r.trials_unparseable);
    hits += r.similarity_cache_hits;
    lookups += r.similarity_cache_lookups;
  }
  out.add("os.exec_ms", per(exec.ms, cells), "ms");
  out.add("os.trace_events", per(exec.count, cells), "count");
  out.add("systems.record_ms", per(record.ms, cells), "ms");
  out.add("systems.native_kb", per(record.count / 1024.0, cells), "KiB");
  out.add("formats.parse_ms", per(trace::total(spans, "formats.parse").ms, cells),
          "ms");
  out.add("graph.intern_ms",
          per(trace::total(spans, "graph.digest").ms +
                  trace::total(spans, "graph.intern").ms,
              cells),
          "ms");
  out.add("pipeline.trials_per_cell", per(static_cast<double>(exec.calls), cells),
          "count");
  out.add("pipeline.unparseable_ratio",
          per(static_cast<double>(unparseable), static_cast<double>(exec.calls)),
          "ratio");
  out.add("matcher.memo_hit_ratio",
          per(static_cast<double>(hits), static_cast<double>(lookups)), "ratio");
  out.add("trace.pipeline_overhead_pct",
          (traced.wall_s / plain.wall_s - 1.0) * 100.0, "%");

  // The same sweep on nproc threads: CPU/wall is the pool's useful
  // parallelism, and every result must equal the 1-thread run's.
  Sweep wide = set_up(false, args.seed, cpu_count());
  Pass parallel = run_pass(wide);
  out.attempted += wide.cells.size();
  out.failed += check_pass(wide, parallel, true, digests, out);
  out.add("runtime.parallelism", parallel.cpu_s / parallel.wall_s, "ratio");

  // -- generator search, one thread, spans on -------------------------------
  Sweep gen = set_up(true, args.seed, 1);
  Pass gen_pass;
  std::vector<trace::Span> gen_spans = traced_pass(gen, &gen_pass);
  trace::write_spans(spans_path, gen_spans);
  std::vector<std::uint64_t> gen_digests;
  out.attempted += gen.cells.size();
  out.failed += check_pass(gen, gen_pass, false, gen_digests, out);
  const double gen_cells = static_cast<double>(gen.cells.size());
  std::uint64_t steps = 0;
  for (const core::BenchmarkResult& r : gen_pass.results) steps += r.matcher_steps;
  std::set<std::uint64_t> cut_cells;
  for (const trace::Span& s : gen_spans) {
    if (std::string(s.name) == "matcher.cutoff") cut_cells.insert(s.op);
  }
  out.add("core.generalize_ms",
          per(trace::total(gen_spans, "core.generalize").ms, gen_cells), "ms");
  out.add("core.compare_ms",
          per(trace::total(gen_spans, "core.compare").ms, gen_cells), "ms");
  out.add("matcher.steps", per(static_cast<double>(steps), gen_cells), "count");
  out.add("matcher.budget_exhausted", static_cast<double>(cut_cells.size()),
          "count");
}

}  // namespace provbench
