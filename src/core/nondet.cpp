#include "core/nondet.h"

#include <algorithm>
#include <map>

#include "bench_suite/executor.h"
#include "core/compare.h"
#include "core/generalize.h"
#include "core/transform.h"
#include "graph/algorithms.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace provmark::core {

NondetBenchmarkResult run_nondeterministic_benchmark(
    const bench_suite::BenchmarkProgram& program,
    const PipelineOptions& options) {
  NondetBenchmarkResult out;

  std::shared_ptr<systems::Recorder> recorder = options.recorder;
  if (!recorder) recorder = systems::make_recorder(options.system);

  int trials = options.trials > 0
                   ? options.trials
                   : 8 * default_trials(recorder->name());
  out.trials_run = trials;

  // Record background (deterministic) and foreground (one schedule per
  // trial) runs.
  auto record = [&](bool foreground, int index) {
    std::uint64_t trial_seed =
        util::Rng(options.seed ^ util::stable_hash(program.name))
            .fork(static_cast<std::uint64_t>(index) * 2 +
                  (foreground ? 1 : 0))
            .next_u64();
    bench_suite::ExecutionResult run = bench_suite::execute_program(
        program, foreground, trial_seed, recorder->extra_audit_rules());
    systems::TrialContext trial{trial_seed ^ 0xC0FFEEULL};
    return recorder->record(run.trace, trial);
  };

  std::vector<graph::PropertyGraph> bg_graphs;
  std::vector<graph::PropertyGraph> fg_graphs;
  for (int i = 0; i < trials; ++i) {
    for (bool foreground : {false, true}) {
      try {
        graph::PropertyGraph g = transform_native(
            record(foreground, i), options.transform);
        (foreground ? fg_graphs : bg_graphs).push_back(std::move(g));
      } catch (const std::exception&) {
        // Garbled trial: drop it.
      }
    }
  }

  // The run-wide matcher strategy, as in run_benchmark.
  GeneralizeOptions generalize_options = options.generalize;
  generalize_options.search = options.matcher;
  CompareOptions compare_options = options.compare;
  compare_options.search = options.matcher;

  // The background is deterministic: generalize it once. Without it
  // (no consistent pair, or a search cut off by the step budget) no
  // schedule can be benchmarked.
  std::optional<GeneralizeResult> bg_general =
      generalize_trials(bg_graphs, generalize_options);
  if (!bg_general.has_value() || bg_general->search_stats.budget_exhausted) {
    return out;
  }

  // Group foreground trials into schedule classes by structural
  // fingerprint, then confirm with the exact matcher (via
  // similarity_classes, which does digest-bucketing + exact check).
  std::vector<std::vector<std::size_t>> classes =
      similarity_classes(fg_graphs);

  for (const std::vector<std::size_t>& cls : classes) {
    if (cls.size() < 2) {
      ++out.unsupported_schedules;
      continue;
    }
    // Generalize this schedule's trials only.
    std::vector<graph::PropertyGraph> members;
    members.reserve(cls.size());
    for (std::size_t index : cls) members.push_back(fg_graphs[index]);
    std::optional<GeneralizeResult> fg_general =
        generalize_trials(members, generalize_options);
    if (!fg_general.has_value()) continue;  // unreachable: all similar

    ScheduleResult schedule;
    // Generalization keeps every element, so the class's own structure
    // is the schedule's (and stays defined when the search is cut off).
    schedule.fingerprint = graph::structural_digest(fg_graphs[cls.front()]);
    schedule.support = static_cast<int>(cls.size());
    schedule.result.system = recorder->name();
    schedule.result.benchmark = program.name;
    schedule.result.generalized_background = bg_general->graph;
    schedule.result.generalized_foreground = fg_general->graph;
    schedule.result.trials_run = static_cast<int>(cls.size());

    if (fg_general->search_stats.budget_exhausted) {
      schedule.result.status = BenchmarkStatus::Failed;
      schedule.result.failure_reason = "search-budget";
      out.schedules.push_back(std::move(schedule));
      continue;
    }
    CompareResult compared = compare_graphs(
        bg_general->graph, fg_general->graph, compare_options);
    if (compared.search_stats.budget_exhausted) {
      schedule.result.status = BenchmarkStatus::Failed;
      schedule.result.failure_reason = "search-budget";
    } else if (compared.embedding_failed) {
      schedule.result.status = BenchmarkStatus::Failed;
      schedule.result.failure_reason =
          "background does not embed into this schedule's foreground";
    } else {
      schedule.result.result = std::move(compared.benchmark);
      schedule.result.dummy_nodes = std::move(compared.dummy_nodes);
      schedule.result.status = schedule.result.result.empty()
                                   ? BenchmarkStatus::Empty
                                   : BenchmarkStatus::Ok;
    }
    out.schedules.push_back(std::move(schedule));
  }

  std::sort(out.schedules.begin(), out.schedules.end(),
            [](const ScheduleResult& a, const ScheduleResult& b) {
              return a.support > b.support;
            });
  return out;
}

}  // namespace provmark::core
