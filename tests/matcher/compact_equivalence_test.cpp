// The interned-engine rewrite must be observationally identical to the
// string-keyed baseline it replaced (legacy_matcher.cpp): same
// node_map/edge_map/cost AND the same Stats trace (steps,
// solutions_found, budget_exhausted) on every ablation configuration.
// Identical step counts mean the search visits the same tree in the same
// order — the rewrite changed the data layout, not the algorithm.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "matcher/legacy_matcher.h"
#include "matcher/matcher.h"
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;

PropertyGraph random_graph(int nodes, int edges, util::Rng& rng) {
  static const char* kNodeLabels[] = {"Process", "Artifact", "Agent"};
  static const char* kEdgeLabels[] = {"Used", "WasGeneratedBy", "Was"};
  static const char* kKeys[] = {"pid", "path", "time"};
  PropertyGraph g;
  for (int i = 0; i < nodes; ++i) {
    graph::Properties props;
    int prop_count = static_cast<int>(rng.next_below(3));
    for (int p = 0; p < prop_count; ++p) {
      props[kKeys[rng.next_below(3)]] = std::to_string(rng.next_below(4));
    }
    g.add_node("n" + std::to_string(i), kNodeLabels[rng.next_below(3)],
               std::move(props));
  }
  for (int i = 0; i < edges; ++i) {
    graph::Properties props;
    if (rng.chance(0.5)) props["op"] = std::to_string(rng.next_below(3));
    g.add_edge("e" + std::to_string(i),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               "n" + std::to_string(
                         rng.next_below(static_cast<std::uint64_t>(nodes))),
               kEdgeLabels[rng.next_below(3)], std::move(props));
  }
  return g;
}

PropertyGraph shuffled_copy(const PropertyGraph& g, util::Rng& rng) {
  std::vector<const graph::Node*> nodes;
  for (const graph::Node& n : g.nodes()) nodes.push_back(&n);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.next_below(i)]);
  }
  PropertyGraph out;
  for (const graph::Node* n : nodes) {
    out.add_node("s_" + n->id, n->label, n->props);
  }
  for (const graph::Edge& e : g.edges()) {
    out.add_edge("s_" + e.id, "s_" + e.src, "s_" + e.tgt, e.label, e.props);
  }
  return out;
}

/// The ablation grid the seed benchmarks exercise: every combination of
/// pruning/bounding knobs and cost models, under PropertyCost ordering
/// (the one order legacy:: implements).
std::vector<SearchOptions> ablation_configs() {
  std::vector<SearchOptions> configs;
  for (CostModel model :
       {CostModel::None, CostModel::OneSided, CostModel::Symmetric}) {
    for (bool pruning : {true, false}) {
      for (bool bounding : {true, false}) {
        SearchOptions options;
        options.cost_model = model;
        options.candidate_pruning = pruning;
        options.cost_bounding = bounding;
        configs.push_back(options);
      }
    }
  }
  return configs;
}

void expect_identical(const std::optional<Matching>& fast,
                      const Stats& fast_stats,
                      const std::optional<Matching>& slow,
                      const Stats& slow_stats, const std::string& context) {
  ASSERT_EQ(fast.has_value(), slow.has_value()) << context;
  EXPECT_EQ(fast_stats.steps, slow_stats.steps) << context;
  EXPECT_EQ(fast_stats.solutions_found, slow_stats.solutions_found)
      << context;
  EXPECT_EQ(fast_stats.budget_exhausted, slow_stats.budget_exhausted)
      << context;
  if (fast.has_value()) {
    EXPECT_EQ(fast->cost, slow->cost) << context;
    EXPECT_EQ(fast->node_map, slow->node_map) << context;
    EXPECT_EQ(fast->edge_map, slow->edge_map) << context;
  }
}

class EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(EquivalenceTest, IsomorphismIdenticalAcrossAblationGrid) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 23);
  PropertyGraph g1 = random_graph(2 + GetParam() % 5, GetParam() % 6, rng);
  PropertyGraph g2 = rng.chance(0.6)
                         ? shuffled_copy(g1, rng)
                         : random_graph(2 + GetParam() % 5,
                                        GetParam() % 6, rng);
  if (!g2.nodes().empty()) {
    g2.set_property(g2.nodes().front().id, "time", "777");
  }
  int config_index = 0;
  for (const SearchOptions& options : ablation_configs()) {
    Stats fast_stats, slow_stats;
    auto fast = best_isomorphism(g1, g2, options, &fast_stats);
    auto slow = legacy::best_isomorphism(g1, g2, options, &slow_stats);
    expect_identical(fast, fast_stats, slow, slow_stats,
                     "iso seed " + std::to_string(GetParam()) + " config " +
                         std::to_string(config_index));
    ++config_index;
  }
}

TEST_P(EquivalenceTest, EmbeddingIdenticalAcrossAblationGrid) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2003 + 41);
  PropertyGraph fg = random_graph(3 + GetParam() % 5, GetParam() % 7, rng);
  PropertyGraph bg = random_graph(1 + GetParam() % 3, GetParam() % 3, rng);
  int config_index = 0;
  for (const SearchOptions& options : ablation_configs()) {
    Stats fast_stats, slow_stats;
    auto fast = best_subgraph_embedding(bg, fg, options, &fast_stats);
    auto slow = legacy::best_subgraph_embedding(bg, fg, options, &slow_stats);
    expect_identical(fast, fast_stats, slow, slow_stats,
                     "embed seed " + std::to_string(GetParam()) +
                         " config " + std::to_string(config_index));
    ++config_index;
  }
}

TEST_P(EquivalenceTest, FirstSolutionAndBudgetIdentical) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 509 + 3);
  PropertyGraph g1 = random_graph(3 + GetParam() % 4, GetParam() % 5, rng);
  PropertyGraph g2 = shuffled_copy(g1, rng);
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  {
    SearchOptions first = options;
    first.first_solution_only = true;
    Stats fast_stats, slow_stats;
    auto fast = best_isomorphism(g1, g2, first, &fast_stats);
    auto slow = legacy::best_isomorphism(g1, g2, first, &slow_stats);
    expect_identical(fast, fast_stats, slow, slow_stats,
                     "first-solution seed " + std::to_string(GetParam()));
  }
  {
    SearchOptions budget = options;
    budget.step_budget = 4;
    Stats fast_stats, slow_stats;
    auto fast = best_isomorphism(g1, g2, budget, &fast_stats);
    auto slow = legacy::best_isomorphism(g1, g2, budget, &slow_stats);
    ASSERT_EQ(fast.has_value(), slow.has_value());
    EXPECT_EQ(fast_stats.steps, slow_stats.steps);
    EXPECT_EQ(fast_stats.budget_exhausted, slow_stats.budget_exhausted);
    if (fast.has_value()) {
      EXPECT_EQ(fast->node_map, slow->node_map);
    }
  }
}

TEST(EquivalenceEdgeCases, ParallelEdgesAndSelfLoops) {
  PropertyGraph g1;
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_edge("e1", "a", "b", "L", {{"op", "read"}});
  g1.add_edge("e2", "a", "b", "L", {{"op", "write"}});
  g1.add_edge("e3", "a", "a", "self");
  PropertyGraph g2;
  g2.add_node("p", "X");
  g2.add_node("q", "X");
  g2.add_edge("f1", "p", "q", "L", {{"op", "write"}});
  g2.add_edge("f2", "p", "q", "L", {{"op", "read"}});
  g2.add_edge("f3", "p", "p", "self");
  for (const SearchOptions& options : ablation_configs()) {
    Stats fast_stats, slow_stats;
    auto fast = best_isomorphism(g1, g2, options, &fast_stats);
    auto slow = legacy::best_isomorphism(g1, g2, options, &slow_stats);
    expect_identical(fast, fast_stats, slow, slow_stats, "parallel/self");
  }
}

/// Two nodes joined by `k` parallel same-label edges with random
/// properties from a small alphabet, so costs tie often.
PropertyGraph parallel_edges(int k, const std::string& prefix,
                             util::Rng& rng) {
  PropertyGraph g;
  g.add_node(prefix + "p", "Process");
  g.add_node(prefix + "f", "Artifact");
  for (int i = 0; i < k; ++i) {
    graph::Properties props;
    props["op"] = std::to_string(rng.next_below(3));
    if (rng.chance(0.5)) props["time"] = std::to_string(rng.next_below(4));
    g.add_edge(prefix + "e" + std::to_string(i), prefix + "p", prefix + "f",
               "Used", std::move(props));
  }
  return g;
}

TEST(EquivalenceEdgeCases, ParallelEdgeGroupsMatchExhaustiveAssignment) {
  // One edge group of k <= 12 parallel edges: the polynomial assignment
  // must return exactly the cost and edge map of legacy::'s exhaustive
  // DFS over all k! pairings, which keeps the first optimum in
  // row-major order — for the bijective and the embedding problem.
  for (int k = 2; k <= 12; ++k) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      util::Rng rng(static_cast<std::uint64_t>(k) * 131 + seed);
      PropertyGraph g1 = parallel_edges(k, "a", rng);
      PropertyGraph g2 = parallel_edges(k, "b", rng);
      PropertyGraph wide = parallel_edges(k + 2, "c", rng);
      const std::string context =
          "k=" + std::to_string(k) + " seed=" + std::to_string(seed);
      SearchOptions iso;
      iso.cost_model = CostModel::Symmetric;
      Stats fast_stats, slow_stats;
      expect_identical(best_isomorphism(g1, g2, iso, &fast_stats), fast_stats,
                       legacy::best_isomorphism(g1, g2, iso, &slow_stats),
                       slow_stats, "iso " + context);
      SearchOptions embed;
      embed.cost_model = CostModel::OneSided;
      Stats fast_embed, slow_embed;
      expect_identical(
          best_subgraph_embedding(g1, wide, embed, &fast_embed), fast_embed,
          legacy::best_subgraph_embedding(g1, wide, embed, &slow_embed),
          slow_embed, "embed " + context);
    }
  }
}

TEST(EquivalenceEdgeCases, EmptyGraphs) {
  PropertyGraph empty, one;
  one.add_node("a", "X");
  for (const SearchOptions& options : ablation_configs()) {
    Stats fast_stats, slow_stats;
    auto fast = best_isomorphism(empty, empty, options, &fast_stats);
    auto slow = legacy::best_isomorphism(empty, empty, options, &slow_stats);
    expect_identical(fast, fast_stats, slow, slow_stats, "empty iso");

    Stats fast_embed, slow_embed;
    auto fast_e = best_subgraph_embedding(empty, one, options, &fast_embed);
    auto slow_e =
        legacy::best_subgraph_embedding(empty, one, options, &slow_embed);
    expect_identical(fast_e, fast_embed, slow_e, slow_embed, "empty embed");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace provmark::matcher
