#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <memory>

#include "bench_suite/program.h"
#include "core/report.h"
#include "systems/camflow.h"
#include "systems/spade.h"

namespace provmark::core {
namespace {

TEST(Pipeline, OpenOnSpadeIsOk) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 1;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  EXPECT_EQ(result.system, "spade");
  EXPECT_EQ(result.benchmark, "open");
  EXPECT_GT(result.result.edge_count(), 0u);
  EXPECT_GT(result.generalized_foreground.size(),
            result.generalized_background.size());
}

TEST(Pipeline, ExitIsEmptyEverywhere) {
  for (const char* system : {"spade", "opus", "camflow"}) {
    PipelineOptions options;
    options.system = system;
    options.seed = 2;
    BenchmarkResult result =
        run_benchmark(bench_suite::benchmark_by_name("exit"), options);
    EXPECT_EQ(result.status, BenchmarkStatus::Empty) << system;
    EXPECT_TRUE(result.result.empty()) << system;
  }
}

TEST(Pipeline, GeneralizationStripsTransients) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 3;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_GT(result.transient_properties, 0);
  // No timestamps survive in the generalized graphs.
  for (const graph::Node& n : result.generalized_foreground.nodes()) {
    EXPECT_EQ(n.props.count("start_time"), 0u);
  }
  for (const graph::Edge& e : result.generalized_foreground.edges()) {
    EXPECT_EQ(e.props.count("time"), 0u);
    EXPECT_EQ(e.props.count("event_id"), 0u);
  }
}

TEST(Pipeline, StablePropertiesSurviveGeneralization) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 4;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  bool path_found = false;
  for (const graph::Node& n : result.result.nodes()) {
    if (n.props.count("path") &&
        n.props.at("path") == "/home/user/test.txt") {
      path_found = true;
    }
  }
  EXPECT_TRUE(path_found);
}

TEST(Pipeline, VforkOnSpadeYieldsDisconnectedChild) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 5;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("vfork"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  EXPECT_EQ(result.disconnected_nodes().size(), 1u);
  EXPECT_TRUE(result.result.edges().empty());
}

TEST(Pipeline, ForkOnSpadeIsConnected) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 5;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("fork"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  EXPECT_TRUE(result.disconnected_nodes().empty());
  EXPECT_FALSE(result.result.edges().empty());
}

TEST(Pipeline, CustomRecorderOverridesSystem) {
  systems::SpadeConfig config;
  config.truncation_probability = 0;
  PipelineOptions options;
  options.system = "camflow";  // must be ignored
  options.recorder = std::make_shared<systems::SpadeRecorder>(config);
  options.seed = 6;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_EQ(result.system, "spade");
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
}

TEST(Pipeline, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    PipelineOptions options;
    options.system = "spade";
    options.seed = seed;
    return run_benchmark(bench_suite::benchmark_by_name("rename"), options);
  };
  BenchmarkResult a = run(7);
  BenchmarkResult b = run(7);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.result, b.result);
}

TEST(Pipeline, SurvivesHeavyStructuralNoise) {
  // Even with aggressive truncation, retries find consistent runs.
  systems::SpadeConfig config;
  config.truncation_probability = 0.5;
  PipelineOptions options;
  options.recorder = std::make_shared<systems::SpadeRecorder>(config);
  options.seed = 8;
  options.trials = 8;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  EXPECT_GT(result.trials_discarded + result.trials_unparseable, 0);
}

TEST(Pipeline, CamflowInterferenceDiscarded) {
  systems::CamflowConfig config;
  config.interference_probability = 0.4;
  PipelineOptions options;
  options.recorder = std::make_shared<systems::CamflowRecorder>(config);
  options.seed = 9;
  options.trials = 10;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_EQ(result.status, BenchmarkStatus::Ok);
  // The interference daemon structure must not leak into the result.
  for (const graph::Node& n : result.result.nodes()) {
    if (n.props.count("cf:pathname")) {
      EXPECT_EQ(n.props.at("cf:pathname"), "/home/user/test.txt");
    }
  }
}

TEST(Pipeline, TimingsArePopulated) {
  PipelineOptions options;
  options.system = "opus";
  options.seed = 10;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  EXPECT_GT(result.timings.recording, 0.0);
  EXPECT_GT(result.timings.transformation, 0.0);
  EXPECT_GT(result.timings.generalization, 0.0);
  EXPECT_GT(result.timings.comparison, 0.0);
  EXPECT_NEAR(result.timings.processing_total(),
              result.timings.transformation +
                  result.timings.generalization + result.timings.comparison,
              1e-9);
}

TEST(Pipeline, DefaultTrialsPerSystem) {
  EXPECT_EQ(default_trials("opus"), 2);
  EXPECT_GT(default_trials("spade"), 2);
  EXPECT_GT(default_trials("camflow"), 2);
}

TEST(Pipeline, StatusNames) {
  EXPECT_STREQ(status_name(BenchmarkStatus::Ok), "ok");
  EXPECT_STREQ(status_name(BenchmarkStatus::Empty), "empty");
  EXPECT_STREQ(status_name(BenchmarkStatus::Failed), "failed");
}

TEST(Report, SummarizeAndTable) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 11;
  BenchmarkResult result =
      run_benchmark(bench_suite::benchmark_by_name("open"), options);
  std::string summary = summarize(result);
  EXPECT_NE(summary.find("spade open: ok"), std::string::npos);
  std::string table = validation_table({result});
  EXPECT_NE(table.find("open"), std::string::npos);
  EXPECT_NE(table.find("ok"), std::string::npos);
  std::string html = html_report({result});
  EXPECT_NE(html.find("<html>"), std::string::npos);
  EXPECT_NE(html.find("digraph"), std::string::npos);
  std::string dot = result_dot(result);
  EXPECT_NE(dot.find("digraph benchmark_open"), std::string::npos);
}

TEST(Pipeline, ScaleBenchmarkResultGrowsWithK) {
  PipelineOptions options;
  options.system = "spade";
  options.seed = 12;
  BenchmarkResult s1 =
      run_benchmark(bench_suite::scale_benchmark(1), options);
  BenchmarkResult s4 =
      run_benchmark(bench_suite::scale_benchmark(4), options);
  ASSERT_EQ(s1.status, BenchmarkStatus::Ok);
  ASSERT_EQ(s4.status, BenchmarkStatus::Ok);
  EXPECT_GT(s4.result.size(), s1.result.size());
}

TEST(Pipeline, SearchBudgetFailsTheRunWithoutRetrying) {
  // A budget-cut search is a typed failure, not "no two consistent
  // recordings": the retry loop stops instead of doubling the trials
  // and posing the same search again.
  for (const char* system : {"spade", "opus", "camflow"}) {
    PipelineOptions options;
    options.system = system;
    options.matcher.step_budget = 1;
    BenchmarkResult result =
        run_benchmark(bench_suite::benchmark_by_name("rename"), options);
    EXPECT_EQ(result.status, BenchmarkStatus::Failed) << system;
    EXPECT_EQ(result.failure_reason, "search-budget") << system;
    EXPECT_EQ(result.trials_run, default_trials(system)) << system;
    EXPECT_GT(result.matcher_steps, 0u) << system;
  }
}

}  // namespace
}  // namespace provmark::core
