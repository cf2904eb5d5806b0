#include "core/regression.h"

#include "datalog/fact_io.h"
#include "matcher/matcher.h"

namespace provmark::core {

std::string RegressionStore::key(const std::string& system,
                                 const std::string& benchmark) {
  return system + "_" + benchmark;
}

void RegressionStore::put(const BenchmarkResult& result) {
  baselines_[key(result.system, result.benchmark)] = result.result;
}

std::optional<graph::PropertyGraph> RegressionStore::get(
    const std::string& system, const std::string& benchmark) const {
  auto it = baselines_.find(key(system, benchmark));
  if (it == baselines_.end()) return std::nullopt;
  return it->second;
}

RegressionStore::Verdict RegressionStore::check(
    const BenchmarkResult& result) const {
  Verdict verdict;
  auto it = baselines_.find(key(result.system, result.benchmark));
  if (it == baselines_.end()) {
    verdict.kind = Verdict::Kind::NoBaseline;
    return verdict;
  }
  // The product search strategy and budget, as in the pipeline.
  matcher::SearchOptions options;
  options.cost_model = matcher::CostModel::Symmetric;
  matcher::SearchConfig{}.apply(options);
  matcher::Stats stats;
  std::optional<matcher::Matching> matching =
      matcher::best_isomorphism(it->second, result.result, options, &stats);
  if (stats.budget_exhausted) {
    verdict.kind = Verdict::Kind::SearchBudget;
    return verdict;
  }
  if (!matching.has_value()) {
    verdict.kind = Verdict::Kind::StructureChanged;
    return verdict;
  }
  verdict.property_mismatches = matching->cost;
  verdict.kind = matching->cost == 0 ? Verdict::Kind::Unchanged
                                     : Verdict::Kind::PropertyDrift;
  return verdict;
}

std::string RegressionStore::save() const {
  std::string out;
  for (const auto& [name, graph] : baselines_) {
    out += "% baseline " + name + "\n";
    out += datalog::to_datalog(graph, name);
  }
  return out;
}

RegressionStore RegressionStore::load(std::string_view datalog_text) {
  RegressionStore store;
  for (auto& [gid, graph] : datalog::from_datalog(datalog_text)) {
    store.baselines_[gid] = std::move(graph);
  }
  return store;
}

}  // namespace provmark::core
