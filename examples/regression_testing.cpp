// Use case "Regression testing" (Charlie, §3.1).
//
// A recorder developer stores benchmark graphs (as Datalog) from a
// baseline run; whenever the system changes, a new run is compared
// against the stored baselines with the same graph-isomorphism machinery
// ProvMark uses during benchmarking. Expected changes update the
// baseline; unexpected ones are flagged.
//
// Here the "system change" is turning on SPADE's artifact versioning,
// which changes the write benchmark's structure.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_suite/program.h"
#include "core/pipeline.h"
#include "core/regression.h"
#include "systems/spade.h"

using namespace provmark;

namespace {

core::BenchmarkResult run_spade(const std::string& name,
                                const systems::SpadeConfig& config) {
  core::PipelineOptions options;
  options.recorder = std::make_shared<systems::SpadeRecorder>(config);
  return core::run_benchmark(bench_suite::benchmark_by_name(name), options);
}

const char* verdict_name(core::RegressionStore::Verdict::Kind kind) {
  using Kind = core::RegressionStore::Verdict::Kind;
  switch (kind) {
    case Kind::NoBaseline: return "no baseline";
    case Kind::Unchanged: return "unchanged";
    case Kind::PropertyDrift: return "property drift";
    case Kind::StructureChanged: return "STRUCTURE CHANGED";
    case Kind::SearchBudget: return "undecided (search budget)";
  }
  return "?";
}

}  // namespace

int main() {
  const std::vector<std::string> suite = {"open", "write", "rename",
                                          "unlink"};
  systems::SpadeConfig baseline_config;

  // 1. Baseline run: store each result.
  core::RegressionStore store;
  for (const std::string& name : suite) {
    store.put(run_spade(name, baseline_config));
  }
  std::printf("stored %zu baselines; serialized store:\n%s\n",
              store.size(), store.save().substr(0, 400).c_str());

  // Round-trip through the Datalog serialization, as Charlie's script
  // would between runs.
  core::RegressionStore reloaded =
      core::RegressionStore::load(store.save());

  // 2. Re-run with the unchanged system: everything should be unchanged.
  std::printf("re-run with the same version:\n");
  bool all_unchanged = true;
  for (const std::string& name : suite) {
    auto verdict = reloaded.check(run_spade(name, baseline_config));
    std::printf("  %-8s %s\n", name.c_str(), verdict_name(verdict.kind));
    all_unchanged &= verdict.kind ==
                     core::RegressionStore::Verdict::Kind::Unchanged;
  }

  // 3. "Upgrade" SPADE: enable artifact versioning; the write benchmark's
  // structure legitimately changes and the regression harness catches it.
  std::printf("re-run with versioning enabled (a system change):\n");
  systems::SpadeConfig versioned = baseline_config;
  versioned.versioning = true;
  int changes = 0;
  for (const std::string& name : suite) {
    core::BenchmarkResult result = run_spade(name, versioned);
    auto verdict = reloaded.check(result);
    std::printf("  %-8s %s\n", name.c_str(), verdict_name(verdict.kind));
    if (verdict.kind ==
        core::RegressionStore::Verdict::Kind::StructureChanged) {
      ++changes;
      // Expected change: accept the new graph as the baseline.
      reloaded.put(result);
    }
  }
  std::printf("\nflagged %d structural change(s); baselines updated.\n",
              changes);
  return all_unchanged && changes > 0 ? 0 : 1;
}
