// Regression testing over stored benchmark graphs (the Charlie use case,
// §3.1): store each benchmark result as Datalog, and on later runs compare
// the fresh result against the stored baseline using the same isomorphism
// machinery the pipeline uses.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "graph/property_graph.h"

namespace provmark::core {

/// A store of baseline benchmark graphs keyed by (system, benchmark),
/// serialized as a single Datalog document.
class RegressionStore {
 public:
  /// Record (or replace) the baseline for a benchmark result.
  void put(const BenchmarkResult& result);

  /// Baseline graph for a key, if present.
  std::optional<graph::PropertyGraph> get(const std::string& system,
                                          const std::string& benchmark) const;

  /// Compare a fresh result against the stored baseline.
  struct Verdict {
    enum class Kind {
      NoBaseline,   ///< nothing stored yet
      Unchanged,    ///< similar graph, identical stable properties
      PropertyDrift,  ///< similar graph but property sets differ
      StructureChanged,  ///< not even similar — investigate (or accept)
      SearchBudget,  ///< the matcher's step budget ran out: undecided
    };
    Kind kind = Kind::NoBaseline;
    int property_mismatches = 0;
  };
  Verdict check(const BenchmarkResult& result) const;

  /// Serialize the whole store as one Datalog document (graph ids are
  /// "<system>_<benchmark>").
  std::string save() const;

  /// Load a previously saved document (replaces current contents).
  static RegressionStore load(std::string_view datalog_text);

  std::size_t size() const { return baselines_.size(); }

 private:
  static std::string key(const std::string& system,
                         const std::string& benchmark);
  std::map<std::string, graph::PropertyGraph> baselines_;
};

}  // namespace provmark::core
