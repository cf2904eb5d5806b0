// Tests for the candidate-ordering heuristics and component
// decomposition: every strategy must return the same optimal cost; the
// informed ones must reach it with fewer search steps on
// automorphism-heavy instances.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>

#include "graph/property_graph.h"
#include "matcher/matcher.h"
#include "util/rng.h"

namespace provmark::matcher {
namespace {

using graph::PropertyGraph;

/// K structurally identical fragments distinguished only by a timestamp
/// property — the scale-benchmark shape.
PropertyGraph repeated_fragments(int k, int time_base) {
  PropertyGraph g;
  for (int i = 0; i < k; ++i) {
    std::string p = "p" + std::to_string(i);
    g.add_node(p, "Process", {{"name", "bench"}});
    g.add_node(p + "f", "Artifact",
               {{"path", "/tmp/scale"},
                {"time", std::to_string(time_base + i)}});
    g.add_edge(p + "e", p, p + "f", "Used", {{"operation", "creat"}});
  }
  return g;
}

class OrderingTest : public ::testing::TestWithParam<CandidateOrder> {};

TEST_P(OrderingTest, SameOptimalCost) {
  PropertyGraph g1 = repeated_fragments(5, 1000);
  PropertyGraph g2 = repeated_fragments(5, 1000);
  // Perturb one timestamp so the optimum is nontrivial.
  g2.set_property("p3f", "time", "9999");
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  options.candidate_order = GetParam();
  auto matching = best_isomorphism(g1, g2, options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 2);  // one timestamp mismatch, both directions
}

TEST_P(OrderingTest, EmbeddingOptimalCost) {
  PropertyGraph fg = repeated_fragments(6, 1000);
  PropertyGraph bg = repeated_fragments(3, 1000);
  SearchOptions options;
  options.cost_model = CostModel::OneSided;
  options.candidate_order = GetParam();
  auto matching = best_subgraph_embedding(bg, fg, options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, 0);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, OrderingTest,
                         ::testing::Values(CandidateOrder::PropertyCost,
                                           CandidateOrder::WlScarcity));

TEST(OrderingSteps, PropertyCostFindsCheapCandidateFirst) {
  // 1 pattern node, many candidates, only one property-identical: the
  // greedy ordering must place it first (one step to the optimum).
  PropertyGraph bg;
  bg.add_node("x", "Artifact", {{"path", "/the/one"}});
  PropertyGraph fg;
  for (int i = 0; i < 10; ++i) {
    fg.add_node("n" + std::to_string(i), "Artifact",
                {{"path", i == 7 ? "/the/one"
                                 : "/other/" + std::to_string(i)}});
  }
  SearchOptions options;
  options.cost_model = CostModel::OneSided;
  options.candidate_order = CandidateOrder::PropertyCost;
  auto matching = best_subgraph_embedding(bg, fg, options);
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->node_map.at("x"), "n7");
  EXPECT_EQ(matching->cost, 0);
}

// -- WlScarcity + decomposition ablation --------------------------------------

/// A provenance spine with artifact fan-out and transient property
/// noise, the workload WlScarcity's suffix bound is built for.
PropertyGraph spine(int processes, std::uint64_t seed, bool refresh) {
  util::Rng rng(seed);
  PropertyGraph g;
  std::string prev;
  int edge = 0;
  for (int p = 0; p < processes; ++p) {
    std::string pid = "p" + std::to_string(p);
    g.add_node(pid, "Process",
               {{"pid", std::to_string((refresh ? 5000 : 1000) + p)},
                {"name", "proc" + std::to_string(p % 3)}});
    if (!prev.empty()) {
      g.add_edge("e" + std::to_string(edge++), pid, prev, "WasTriggeredBy",
                 {{"operation", "fork"}});
    }
    for (int a = 0; a < 3; ++a) {
      std::string aid = pid + "a" + std::to_string(a);
      g.add_node(aid, "Artifact",
                 {{"path", "/tmp/" + pid + "f" + std::to_string(a)},
                  {"time", std::to_string(rng.next_below(100000))}});
      // Seeded read/write mix: shared between the two trials via `seed`,
      // so the copies stay isomorphic while properties drift.
      bool used = rng.chance(0.5);
      g.add_edge("e" + std::to_string(edge++), used ? pid : aid,
                 used ? aid : pid, used ? "Used" : "WasGeneratedBy",
                 {{"operation", used ? "read" : "write"}});
    }
    prev = pid;
  }
  return g;
}

PropertyGraph random_corpus_graph(int index, bool second, util::Rng& rng) {
  static const char* kNodeLabels[] = {"Process", "Artifact", "Agent"};
  static const char* kEdgeLabels[] = {"Used", "WasGeneratedBy", "Was"};
  static const char* kKeys[] = {"pid", "path", "time"};
  int nodes = 2 + index % 5;
  int edges = index % 6;
  PropertyGraph g;
  for (int i = 0; i < nodes; ++i) {
    graph::Properties props;
    int prop_count = static_cast<int>(rng.next_below(3));
    for (int p = 0; p < prop_count; ++p) {
      props[kKeys[rng.next_below(3)]] = std::to_string(rng.next_below(4));
    }
    g.add_node((second ? "m" : "n") + std::to_string(i),
               kNodeLabels[rng.next_below(3)], std::move(props));
  }
  for (int i = 0; i < edges; ++i) {
    g.add_edge((second ? "f" : "e") + std::to_string(i),
               (second ? "m" : "n") +
                   std::to_string(rng.next_below(
                       static_cast<std::uint64_t>(nodes))),
               (second ? "m" : "n") +
                   std::to_string(rng.next_below(
                       static_cast<std::uint64_t>(nodes))),
               kEdgeLabels[rng.next_below(3)]);
  }
  return g;
}

TEST(WlScarcityAblation, NeverWorsensOptimalCostOnRandomCorpus) {
  // The acceptance bar for the new strategy: on a corpus that includes
  // disconnected graphs, isolated nodes and infeasible pairs,
  // WlScarcity + decomposition must agree with the PropertyCost
  // baseline on feasibility and optimal cost, bijective and embedding.
  for (int index = 0; index < 40; ++index) {
    util::Rng rng(static_cast<std::uint64_t>(index) * 6151 + 7);
    PropertyGraph g1 = random_corpus_graph(index, false, rng);
    PropertyGraph g2 = random_corpus_graph(index, true, rng);

    SearchOptions base;
    base.cost_model = CostModel::Symmetric;
    base.candidate_order = CandidateOrder::PropertyCost;
    SearchOptions wl = base;
    wl.candidate_order = CandidateOrder::WlScarcity;
    wl.component_decomposition = true;

    auto a = best_isomorphism(g1, g2, base);
    auto b = best_isomorphism(g1, g2, wl);
    ASSERT_EQ(a.has_value(), b.has_value()) << "iso corpus " << index;
    if (a.has_value()) {
      EXPECT_EQ(a->cost, b->cost) << "iso corpus " << index;
    }

    SearchOptions embed_base = base;
    embed_base.cost_model = CostModel::OneSided;
    SearchOptions embed_wl = wl;
    embed_wl.cost_model = CostModel::OneSided;
    auto ea = best_subgraph_embedding(g2, g1, embed_base);
    auto eb = best_subgraph_embedding(g2, g1, embed_wl);
    ASSERT_EQ(ea.has_value(), eb.has_value()) << "embed corpus " << index;
    if (ea.has_value()) {
      EXPECT_EQ(ea->cost, eb->cost) << "embed corpus " << index;
    }
  }
}

TEST(WlScarcityAblation, CollapsesTheSpineProofPhase) {
  // The benchmark claim in miniature: same optimum, orders of magnitude
  // fewer steps than the PropertyCost baseline on the spine instance.
  PropertyGraph g1 = spine(8, 21, false);
  PropertyGraph g2 = spine(8, 21, true);
  SearchOptions property;
  property.cost_model = CostModel::Symmetric;
  property.candidate_order = CandidateOrder::PropertyCost;
  SearchOptions wl = property;
  wl.candidate_order = CandidateOrder::WlScarcity;

  Stats property_stats, wl_stats;
  auto a = best_isomorphism(g1, g2, property, &property_stats);
  auto b = best_isomorphism(g1, g2, wl, &wl_stats);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_LE(wl_stats.steps, property_stats.steps);
}

TEST(WlScarcityAblation, EdgeGroupBoundPrunesPropertyHeavyEdges) {
  // Instance where the optimal cost lives entirely on edge properties:
  // bare nodes (every per-node candidate minimum is 0, so the node part
  // of the suffix bound is blind) and per-trial transient edge
  // timestamps that mismatch against every target edge. The per-edge-
  // group minima folded into the suffix bound price the unassigned
  // remainder exactly, so the proof-of-optimality phase collapses; the
  // node-only bound left WlScarcity at the PropertyCost baseline's
  // step count (3194 on this instance).
  const int k = 6;
  graph::PropertyGraph g1, g2;
  for (int i = 0; i < k; ++i) {
    std::string p = "p" + std::to_string(i);
    for (graph::PropertyGraph* g : {&g1, &g2}) {
      g->add_node(p, "Process");
      g->add_node(p + "f", "Artifact");
    }
    g1.add_edge(p + "e", p, p + "f", "Used",
                {{"operation", "read"}, {"time", std::to_string(1000 + i)}});
    g2.add_edge(p + "e", p, p + "f", "Used",
                {{"operation", "read"}, {"time", std::to_string(2000 + i)}});
  }
  SearchOptions property;
  property.cost_model = CostModel::Symmetric;
  property.candidate_order = CandidateOrder::PropertyCost;
  SearchOptions wl = property;
  wl.candidate_order = CandidateOrder::WlScarcity;

  Stats property_stats, wl_stats;
  auto a = best_isomorphism(g1, g2, property, &property_stats);
  auto b = best_isomorphism(g1, g2, wl, &wl_stats);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Every fragment pairing mismatches `time` in both directions: 2 per
  // edge, and the bound must not change the optimum.
  EXPECT_EQ(a->cost, 2 * k);
  EXPECT_EQ(b->cost, a->cost);
  EXPECT_LT(wl_stats.steps, property_stats.steps);
  // One descent to the optimum plus immediate pruning of every sibling;
  // far under the node-only bound's step count.
  EXPECT_LE(wl_stats.steps, 50u);
}

/// Structural validity of a bijective matching, independent of how the
/// search produced it.
void expect_valid_isomorphism(const PropertyGraph& g1,
                              const PropertyGraph& g2, const Matching& m) {
  ASSERT_EQ(m.node_map.size(), g1.nodes().size());
  std::set<graph::Id> targets;
  for (const auto& [a, b] : m.node_map) {
    const graph::Node* na = g1.find_node(a);
    const graph::Node* nb = g2.find_node(b);
    ASSERT_NE(na, nullptr);
    ASSERT_NE(nb, nullptr);
    EXPECT_EQ(na->label, nb->label);
    EXPECT_TRUE(targets.insert(b).second) << "node map not injective";
  }
  ASSERT_EQ(m.edge_map.size(), g1.edges().size());
  for (const auto& [a, b] : m.edge_map) {
    const graph::Edge* ea = g1.find_edge(a);
    const graph::Edge* eb = g2.find_edge(b);
    ASSERT_NE(ea, nullptr);
    ASSERT_NE(eb, nullptr);
    EXPECT_EQ(ea->label, eb->label);
    EXPECT_EQ(m.node_map.at(ea->src), eb->src);
    EXPECT_EQ(m.node_map.at(ea->tgt), eb->tgt);
  }
}

TEST(ComponentDecomposition, SolvesDisjointFragmentsWithValidMapping) {
  // Three structurally identical fragments (distinct stable paths):
  // decomposition must pick the cost-minimal fragment pairing and emit
  // a structurally valid matching whose cost equals the joint search's.
  PropertyGraph g1, g2;
  for (int f = 0; f < 3; ++f) {
    std::string p = "f" + std::to_string(f);
    for (PropertyGraph* g : {&g1, &g2}) {
      g->add_node(p, "Process", {{"name", "frag"}});
      g->add_node(p + "a", "Artifact",
                  {{"path", "/tmp/" + p},
                   {"time", g == &g1 ? "100" : "999"}});
      g->add_edge(p + "e", p, p + "a", "Used", {{"operation", "creat"}});
    }
  }
  SearchOptions joint;
  joint.cost_model = CostModel::Symmetric;
  SearchOptions decomposed = joint;
  decomposed.component_decomposition = true;

  auto a = best_isomorphism(g1, g2, joint);
  auto b = best_isomorphism(g1, g2, decomposed);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cost, b->cost);
  // Each fragment's time differs (2 per artifact, symmetric): the
  // optimal pairing keeps fragments aligned by their stable paths.
  EXPECT_EQ(b->cost, 6);
  expect_valid_isomorphism(g1, g2, *b);
  for (int f = 0; f < 3; ++f) {
    std::string p = "f" + std::to_string(f);
    EXPECT_EQ(b->node_map.at(p), p);
  }
}

TEST(ComponentDecomposition, ComponentCountMismatchIsInfeasible) {
  PropertyGraph g1, g2;
  // Two components vs one: same node/edge label multisets overall.
  g1.add_node("a", "X");
  g1.add_node("b", "X");
  g1.add_node("c", "X");
  g1.add_edge("e1", "a", "b", "L");
  g1.add_edge("e2", "b", "c", "L");
  g2.add_node("p", "X");
  g2.add_node("q", "X");
  g2.add_node("r", "X");
  g2.add_edge("f1", "p", "q", "L");
  g2.add_edge("f2", "q", "p", "L");
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  options.component_decomposition = true;
  EXPECT_FALSE(best_isomorphism(g1, g2, options).has_value());
  options.component_decomposition = false;
  EXPECT_FALSE(best_isomorphism(g1, g2, options).has_value());
}

/// k structurally identical 4-process spine fragments with transient
/// per-trial property noise — the benchmark's decomposition workload.
PropertyGraph fragment_graph(int fragments, bool refresh) {
  util::Rng rng(fragments * 97 + (refresh ? 1 : 0));
  PropertyGraph g;
  int edge = 0;
  for (int f = 0; f < fragments; ++f) {
    std::string prev;
    for (int p = 0; p < 4; ++p) {
      std::string pid = "f" + std::to_string(f) + "p" + std::to_string(p);
      g.add_node(pid, "Process",
                 {{"pid", std::to_string((refresh ? 5000 : 1000) + f * 10 +
                                         p)},
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

TEST(ComponentDecomposition, ReducesStepsOnFragmentedInstances) {
  // The additive-vs-multiplicative claim: under the PropertyCost
  // baseline ordering, solving identical fragments jointly costs
  // strictly more steps than solving them per component (the benchmark
  // shows the gap widening to budget exhaustion at 4 fragments).
  PropertyGraph g1 = fragment_graph(2, false);
  PropertyGraph g2 = fragment_graph(2, true);
  SearchOptions joint;
  joint.cost_model = CostModel::Symmetric;
  joint.candidate_order = CandidateOrder::PropertyCost;
  SearchOptions decomposed = joint;
  decomposed.component_decomposition = true;

  Stats joint_stats, decomposed_stats;
  auto a = best_isomorphism(g1, g2, joint, &joint_stats);
  auto b = best_isomorphism(g1, g2, decomposed, &decomposed_stats);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_LT(decomposed_stats.steps, joint_stats.steps);
}

TEST(ComponentDecomposition, SharedBudgetAcrossComponents) {
  // The step budget spans all component sub-searches: a budget the
  // joint search would blow must also stop the decomposed search (with
  // the exhaustion flag, not a bogus partial result).
  PropertyGraph g1, g2;
  for (int f = 0; f < 6; ++f) {
    std::string p = "f" + std::to_string(f);
    for (PropertyGraph* g : {&g1, &g2}) {
      for (int n = 0; n < 4; ++n) {
        std::string id = p + "n" + std::to_string(n);
        g->add_node(id, "X");
        if (n > 0) {
          g->add_edge(id + "e", p + "n" + std::to_string(n - 1), id, "L");
        }
      }
    }
  }
  SearchOptions options;
  options.cost_model = CostModel::None;
  options.candidate_order = CandidateOrder::PropertyCost;
  options.candidate_pruning = false;
  options.component_decomposition = true;
  options.step_budget = 10;
  Stats stats;
  auto result = best_isomorphism(g1, g2, options, &stats);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_FALSE(result.has_value());
}

TEST(ComponentDecomposition, TwelveIdenticalComponentsStayPolynomial) {
  // k structurally identical components whose pattern copies each carry
  // one extra property: every one of the k*k pairings costs the same,
  // so any pairing is optimal. An exhaustive pairing search re-proves
  // that for each of the k! orders (~13x slower per extra component);
  // the assignment routine settles it in polynomial time and, on the
  // all-tied matrix, returns the first pairing: component i onto i.
  const int k = 12;
  PropertyGraph g1, g2;
  for (int c = 0; c < k; ++c) {
    std::string p = "c" + std::to_string(c);
    for (PropertyGraph* g : {&g1, &g2}) {
      g->add_node(p, "Process", {{"name", "bench"}});
      g->add_node(p + "f", "Artifact", {{"path", "/tmp/scale"}});
      g->add_edge(p + "e", p, p + "f", "Used", {{"operation", "creat"}});
    }
    g1.set_property(p + "f", "extra", std::to_string(c));
  }
  SearchOptions options;
  options.cost_model = CostModel::Symmetric;
  options.candidate_order = CandidateOrder::WlScarcity;
  options.component_decomposition = true;
  const auto start = std::chrono::steady_clock::now();
  auto matching = best_isomorphism(g1, g2, options);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(matching.has_value());
  EXPECT_EQ(matching->cost, k);
  EXPECT_LT(seconds, 1.0);
  expect_valid_isomorphism(g1, g2, *matching);
  for (int c = 0; c < k; ++c) {
    std::string p = "c" + std::to_string(c);
    EXPECT_EQ(matching->node_map.at(p), p);
  }
}


// -- the product search configuration ----------------------------------------

TEST(SearchConfigDefaults, AreTheBoundedWlScarcitySearch) {
  const SearchConfig config;
  EXPECT_EQ(config.order, CandidateOrder::WlScarcity);
  EXPECT_TRUE(config.decompose);
  EXPECT_EQ(config.step_budget, kDefaultStepBudget);
  EXPECT_EQ(kDefaultStepBudget, 10'000'000u);

  // apply() overlays every knob, the budget included.
  SearchOptions options;
  options.step_budget = 5;
  config.apply(options);
  EXPECT_EQ(options.candidate_order, CandidateOrder::WlScarcity);
  EXPECT_TRUE(options.component_decomposition);
  EXPECT_EQ(options.step_budget, kDefaultStepBudget);
  SearchConfig unlimited;
  unlimited.step_budget = 0;
  unlimited.apply(options);
  EXPECT_EQ(options.step_budget, 0u);
}

TEST(SearchConfigDefaults, EngineOptionsKeepTheBaselineEngine) {
  // The equivalence suites build SearchOptions directly and compare
  // step counts against legacy::, so its defaults must not follow the
  // product default.
  const SearchOptions options;
  EXPECT_EQ(options.candidate_order, CandidateOrder::PropertyCost);
  EXPECT_FALSE(options.component_decomposition);
  EXPECT_EQ(options.step_budget, 0u);
}

TEST(SearchConfigDefaults, StrategyNamesAreStable) {
  // Shard fingerprints carry these spellings; shards written by earlier
  // builds must keep merging.
  EXPECT_STREQ(order_name(CandidateOrder::PropertyCost), "cost");
  EXPECT_STREQ(order_name(CandidateOrder::WlScarcity), "wl");
  EXPECT_EQ(strategy_name(SearchConfig{}), "wl+decompose");
  SearchConfig cost;
  cost.order = CandidateOrder::PropertyCost;
  cost.decompose = false;
  EXPECT_EQ(strategy_name(cost), "cost");
}

}  // namespace
}  // namespace provmark::matcher
