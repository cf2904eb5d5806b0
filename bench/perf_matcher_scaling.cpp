// Matcher scaling benchmark: the perf trajectory of the search-engine
// rewrites, with per-strategy ablation columns.
//
// Runs the two matcher problems the pipeline actually poses (Listing 3
// generalization isomorphisms and Listing 4 comparison embeddings) plus
// a multi-component decomposition workload on growing synthetic
// provenance graphs, across the stacked search strategies:
//
//   legacy          — the string-keyed pre-rewrite engine (baseline for
//                     the PR 1 data-layout speedup; measured on the
//                     sizes it can finish)
//   property        — compact engine, PropertyCost ordering (the PR 1
//                     search, bit-identical to legacy)
//   property+decomp — PropertyCost with component decomposition
//   wl              — WlScarcity ordering (colour-class pruning +
//                     admissible suffix bound)
//   wl+decomp       — the full stack (the product default)
//
// The benchmark *asserts* (exit 1) that every strategy that completes
// reports the same optimal cost, that legacy and property agree on cost
// and step trace, and that the informed strategies never take more
// steps than the property baseline on the bijective problems — so an
// ordering regression fails CI instead of silently inflating BENCH
// numbers.
//
// Usage: bench_perf_matcher_scaling [--smoke] [output.json]
//   --smoke  small sizes + fewer repetitions (CI-friendly)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/legacy_matcher.h"
#include "matcher/matcher.h"
#include "util/rng.h"

using namespace provmark;

namespace {

constexpr std::size_t kStepBudget = 50'000'000;

/// A provenance-shaped random graph: one process spine with artifact
/// fan-out, labelled like recorder output (same shape as the ablation
/// benchmark).
graph::PropertyGraph make_provenance_graph(int processes,
                                           int artifacts_per_process,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  graph::PropertyGraph g;
  std::string prev;
  int edge = 0;
  for (int p = 0; p < processes; ++p) {
    std::string pid = "p" + std::to_string(p);
    g.add_node(pid, "Process",
               {{"pid", std::to_string(1000 + p)},
                {"name", "proc" + std::to_string(p % 3)}});
    if (!prev.empty()) {
      g.add_edge("e" + std::to_string(edge++), pid, prev, "WasTriggeredBy",
                 {{"operation", "fork"}});
    }
    for (int a = 0; a < artifacts_per_process; ++a) {
      std::string aid = pid + "a" + std::to_string(a);
      g.add_node(aid, "Artifact",
                 {{"path", "/tmp/p" + std::to_string(p) + "f" +
                               std::to_string(a)},
                  {"time", std::to_string(rng.next_below(100000))}});
      bool used = rng.chance(0.5);
      g.add_edge("e" + std::to_string(edge++), used ? pid : aid,
                 used ? aid : pid, used ? "Used" : "WasGeneratedBy",
                 {{"operation", used ? "read" : "write"}});
    }
    prev = pid;
  }
  return g;
}

/// A disconnected workload: `fragments` structurally identical 4-process
/// spines (distinct property values per fragment), the shape component
/// decomposition turns from multiplicative into additive.
graph::PropertyGraph make_fragment_graph(int fragments, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::PropertyGraph g;
  int edge = 0;
  for (int f = 0; f < fragments; ++f) {
    std::string prev;
    for (int p = 0; p < 4; ++p) {
      std::string pid = "f" + std::to_string(f) + "p" + std::to_string(p);
      g.add_node(pid, "Process",
                 {{"pid", std::to_string(1000 + f * 10 + p)},
                  {"name", "proc" + std::to_string(p % 3)}});
      if (!prev.empty()) {
        g.add_edge("e" + std::to_string(edge++), pid, prev,
                   "WasTriggeredBy", {{"operation", "fork"}});
      }
      for (int a = 0; a < 4; ++a) {
        std::string aid = pid + "a" + std::to_string(a);
        g.add_node(aid, "Artifact",
                   {{"path", "/tmp/frag" + std::to_string(f) + "f" +
                                 std::to_string(a)},
                    {"time", std::to_string(rng.next_below(100000))}});
        // Fixed read/write alternation keeps every fragment structurally
        // identical, so the decomposition's signature grouping and
        // assignment search are actually exercised.
        bool used = a % 2 == 0;
        g.add_edge("e" + std::to_string(edge++), used ? pid : aid,
                   used ? aid : pid, used ? "Used" : "WasGeneratedBy",
                   {{"operation", used ? "read" : "write"}});
      }
      prev = pid;
    }
  }
  return g;
}

/// Relabel ids and refresh transient property values: an isomorphic copy
/// as a second recording trial would produce.
graph::PropertyGraph transient_copy(const graph::PropertyGraph& g,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  graph::PropertyGraph out;
  for (const graph::Node& n : g.nodes()) {
    graph::Properties props = n.props;
    if (props.count("time") > 0) {
      props["time"] = std::to_string(rng.next_below(100000));
    }
    if (props.count("pid") > 0) {
      props["pid"] = std::to_string(5000 + rng.next_below(1000));
    }
    out.add_node("x" + n.id, n.label, std::move(props));
  }
  for (const graph::Edge& e : g.edges()) {
    out.add_edge("x" + e.id, "x" + e.src, "x" + e.tgt, e.label, e.props);
  }
  return out;
}

using MatcherFn = std::optional<matcher::Matching> (*)(
    const graph::PropertyGraph&, const graph::PropertyGraph&,
    const matcher::SearchOptions&, matcher::Stats*);

struct Measurement {
  double seconds = 0;  ///< best-of-reps wall clock
  int cost = 0;
  std::size_t steps = 0;
  bool ok = false;
  bool exhausted = false;
};

Measurement measure(MatcherFn fn, const graph::PropertyGraph& g1,
                    const graph::PropertyGraph& g2,
                    const matcher::SearchOptions& options, int reps) {
  Measurement m;
  m.seconds = 1e100;
  for (int r = 0; r < reps; ++r) {
    matcher::Stats stats;
    auto start = std::chrono::steady_clock::now();
    auto result = fn(g1, g2, options, &stats);
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (elapsed < m.seconds) m.seconds = elapsed;
    m.ok = result.has_value();
    m.cost = result.has_value() ? result->cost : -1;
    m.steps = stats.steps;
    m.exhausted = stats.budget_exhausted;
    if (m.exhausted) break;  // a budget hit will only repeat itself
  }
  return m;
}

struct StrategyRow {
  std::string name;
  Measurement serial;
  bool measured = false;
};

struct Case {
  std::string problem;  ///< isomorphism | embedding | components
  int processes;
  std::size_t elements;
  Measurement legacy;
  bool legacy_measured = false;
  std::vector<StrategyRow> strategies;

  const Measurement* strategy(const std::string& name) const {
    for (const StrategyRow& row : strategies) {
      if (row.name == name && row.measured) return &row.serial;
    }
    return nullptr;
  }
};

matcher::SearchOptions make_options(matcher::CostModel model,
                                    matcher::CandidateOrder order,
                                    bool decompose) {
  matcher::SearchOptions options;
  options.cost_model = model;
  options.step_budget = kStepBudget;
  options.candidate_order = order;
  options.component_decomposition = decompose;
  return options;
}

bool check(bool condition, const char* what, const Case& c) {
  if (!condition) {
    std::fprintf(stderr, "ASSERTION FAILED [%s p=%d]: %s\n",
                 c.problem.c_str(), c.processes, what);
  }
  return condition;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output = "BENCH_matcher_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      output = argv[i];
    }
  }

  // The isomorphism problem is worst-case exponential (§5.4). Under the
  // PR 1 engine p=12 was the tractability frontier (p=16 blows past the
  // 50M step budget); WlScarcity ordering + the suffix bound collapse
  // the proof-of-optimality phase, carrying the p=16 spine in double-
  // digit step counts.
  std::vector<int> sizes = smoke ? std::vector<int>{4, 8}
                                 : std::vector<int>{4, 8, 12, 16};
  const int reps = smoke ? 2 : 3;

  using matcher::CandidateOrder;
  using matcher::CostModel;

  std::vector<Case> cases;
  bool failed = false;
  for (int processes : sizes) {
    struct Workload {
      std::string problem;
      graph::PropertyGraph pattern, target;
      CostModel model;
      bool bijective;
    };
    std::vector<Workload> workloads;
    {
      // Listing 3 shape: two trials of the same recording.
      graph::PropertyGraph g1 = make_provenance_graph(processes, 4, 1);
      graph::PropertyGraph g2 = transient_copy(g1, 2);
      workloads.push_back(
          {"isomorphism", g1, g2, CostModel::Symmetric, true});
      // Listing 4 shape: generalized background into foreground.
      graph::PropertyGraph fg = make_provenance_graph(processes, 4, 3);
      graph::PropertyGraph bg = make_provenance_graph(processes / 2, 4, 3);
      workloads.push_back({"embedding", bg, fg, CostModel::OneSided, false});
      // Decomposition shape: processes/4 disjoint identical fragments.
      int fragments = processes / 4 > 0 ? processes / 4 : 1;
      graph::PropertyGraph c1 = make_fragment_graph(fragments, 5);
      graph::PropertyGraph c2 = transient_copy(c1, 6);
      workloads.push_back(
          {"components", c1, c2, CostModel::Symmetric, true});
    }

    for (Workload& w : workloads) {
      Case c;
      c.problem = w.problem;
      c.processes = processes;
      c.elements = w.pattern.size();

      MatcherFn compact_fn =
          w.bijective ? static_cast<MatcherFn>(&matcher::best_isomorphism)
                      : static_cast<MatcherFn>(
                            &matcher::best_subgraph_embedding);
      MatcherFn legacy_fn = w.bijective
                                ? &matcher::legacy::best_isomorphism
                                : &matcher::legacy::best_subgraph_embedding;

      // The legacy engine is only run where it is known to finish: the
      // connected problems up to p=12 (the PR 1 frontier).
      if (w.problem != "components" && processes <= 12) {
        c.legacy = measure(
            legacy_fn, w.pattern, w.target,
            make_options(w.model, CandidateOrder::PropertyCost, false), reps);
        c.legacy_measured = true;
      }

      struct StrategySpec {
        const char* name;
        CandidateOrder order;
        bool decompose;
      };
      std::vector<StrategySpec> specs = {
          {"property", CandidateOrder::PropertyCost, false},
          {"wl", CandidateOrder::WlScarcity, false},
      };
      if (w.bijective) {
        // Decomposition applies to the bijective problem only.
        specs.push_back({"property_decomp", CandidateOrder::PropertyCost,
                         true});
        specs.push_back({"wl_decomp", CandidateOrder::WlScarcity, true});
      }
      for (const StrategySpec& spec : specs) {
        StrategyRow row;
        row.name = spec.name;
        row.serial = measure(compact_fn, w.pattern, w.target,
                             make_options(w.model, spec.order, spec.decompose),
                             reps);
        row.measured = true;
        c.strategies.push_back(std::move(row));
      }

      // -- identity + regression gates ------------------------------------
      const Measurement* property = c.strategy("property");
      const Measurement* wl = c.strategy("wl");
      if (c.legacy_measured && !c.legacy.exhausted && property != nullptr &&
          !property->exhausted) {
        failed |= !check(c.legacy.ok == property->ok &&
                             c.legacy.cost == property->cost &&
                             c.legacy.steps == property->steps,
                         "legacy and property engines diverged", c);
      }
      // Every completing strategy must agree on feasibility and cost.
      int reference_cost = 0;
      bool reference_ok = false, have_reference = false;
      for (const StrategyRow& row : c.strategies) {
        if (row.serial.exhausted) continue;
        if (!have_reference) {
          reference_cost = row.serial.cost;
          reference_ok = row.serial.ok;
          have_reference = true;
          continue;
        }
        failed |= !check(row.serial.ok == reference_ok &&
                             row.serial.cost == reference_cost,
                         ("strategy " + row.name +
                          " changed the optimal cost").c_str(),
                         c);
      }
      // Ordering regression gate: on the bijective problems the informed
      // strategies may never take more steps than the property baseline.
      if (w.bijective && property != nullptr && !property->exhausted &&
          wl != nullptr && !wl->exhausted) {
        failed |= !check(wl->steps <= property->steps,
                         "wl ordering regressed above property steps", c);
        const Measurement* wl_decomp = c.strategy("wl_decomp");
        if (wl_decomp != nullptr && !wl_decomp->exhausted) {
          failed |= !check(wl_decomp->steps <= property->steps,
                           "wl+decomp regressed above property steps", c);
        }
      }

      cases.push_back(std::move(c));
    }
  }

  std::printf("%-12s %5s %8s | %12s | %12s %15s %12s %15s | %14s\n",
              "problem", "p", "elems", "legacy(ms)", "property", "prop+decomp",
              "wl", "wl+decomp", "wl+dec(ms)");
  auto cell = [](const Measurement* m) {
    if (m == nullptr) return std::string("-");
    char buf[64];
    if (m->exhausted) {
      std::snprintf(buf, sizeof(buf), ">%zuM!", m->steps / 1'000'000);
    } else {
      std::snprintf(buf, sizeof(buf), "%zu", m->steps);
    }
    return std::string(buf);
  };
  for (const Case& c : cases) {
    const Measurement* wl_decomp = c.strategy("wl_decomp");
    const Measurement* product =
        wl_decomp != nullptr ? wl_decomp : c.strategy("wl");
    std::printf(
        "%-12s %5d %8zu | %12s | %12s %15s %12s %15s | %14.3f\n",
        c.problem.c_str(), c.processes, c.elements,
        c.legacy_measured
            ? std::to_string(c.legacy.seconds * 1e3).substr(0, 8).c_str()
            : "-",
        cell(c.strategy("property")).c_str(),
        cell(c.strategy("property_decomp")).c_str(),
        cell(c.strategy("wl")).c_str(), cell(wl_decomp).c_str(),
        product->seconds * 1e3);
  }

  // Headline: the isomorphism spine at the largest size — the instance
  // that exhausted the 50M budget before this PR.
  const Case* headline = nullptr;
  for (const Case& c : cases) {
    if (c.problem == "isomorphism" &&
        (headline == nullptr || c.processes > headline->processes)) {
      headline = &c;
    }
  }
  if (headline != nullptr) {
    const Measurement* property = headline->strategy("property");
    const Measurement* wl_decomp = headline->strategy("wl_decomp");
    if (property != nullptr && wl_decomp != nullptr) {
      std::printf("\np=%d isomorphism spine: property %s steps%s -> "
                  "wl+decomp %zu steps (budget %zuM)\n",
                  headline->processes, cell(property).c_str(),
                  property->exhausted ? " (budget exhausted)" : "",
                  wl_decomp->steps, kStepBudget / 1'000'000);
    }
  }

  std::FILE* f = std::fopen(output.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n  \"benchmark\": \"matcher_scaling\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"step_budget\": %zu,\n", kStepBudget);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"cases\": [\n");
  auto emit_measurement = [&](const char* name, const Measurement& m,
                              bool trailing_comma) {
    std::fprintf(f,
                 "        \"%s\": {\"seconds\": %.6f, \"steps\": %zu, "
                 "\"cost\": %d, \"ok\": %s, \"budget_exhausted\": %s}%s\n",
                 name, m.seconds, m.steps, m.cost, m.ok ? "true" : "false",
                 m.exhausted ? "true" : "false", trailing_comma ? "," : "");
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    std::fprintf(f,
                 "    {\"problem\": \"%s\", \"processes\": %d, "
                 "\"elements\": %zu,\n",
                 c.problem.c_str(), c.processes, c.elements);
    if (c.legacy_measured) {
      std::fprintf(f, "      \"legacy\": {\"seconds\": %.6f, \"steps\": "
                      "%zu, \"cost\": %d},\n",
                   c.legacy.seconds, c.legacy.steps, c.legacy.cost);
    }
    std::fprintf(f, "      \"strategies\": {\n");
    for (std::size_t s = 0; s < c.strategies.size(); ++s) {
      emit_measurement(c.strategies[s].name.c_str(), c.strategies[s].serial,
                       s + 1 < c.strategies.size());
    }
    std::fprintf(f, "      }\n    }%s\n",
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", output.c_str());
  if (failed) {
    std::fprintf(stderr, "\nFAILED: identity or regression gates tripped\n");
    return 1;
  }
  return 0;
}
