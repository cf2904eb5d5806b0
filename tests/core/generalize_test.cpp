#include "core/generalize.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/property_graph.h"
#include "matcher/interned.h"
#include "matcher/memo.h"
#include "runtime/thread_pool.h"

namespace provmark::core {
namespace {

using graph::PropertyGraph;

/// A "recording trial": fixed shape, stable + transient properties.
PropertyGraph trial(const std::string& timestamp, const std::string& pid) {
  PropertyGraph g;
  g.add_node("p", "Process",
             {{"name", "bench"}, {"pid", pid}, {"time", timestamp}});
  g.add_node("f", "Artifact", {{"path", "/tmp/x"}, {"time", timestamp}});
  g.add_edge("e", "p", "f", "Used",
             {{"operation", "open"}, {"serial", timestamp}});
  return g;
}

/// A structurally different (failed) trial.
PropertyGraph garbled() {
  PropertyGraph g;
  g.add_node("p", "Process");
  return g;
}

TEST(SimilarityClasses, GroupsByShape) {
  std::vector<PropertyGraph> trials = {trial("1", "100"), trial("2", "200"),
                                       garbled()};
  auto classes = similarity_classes(trials);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].size(), 2u);  // sorted largest first
  EXPECT_EQ(classes[1].size(), 1u);
}

TEST(SimilarityClasses, AllDistinct) {
  PropertyGraph a = garbled();
  PropertyGraph b = trial("1", "1");
  PropertyGraph c;
  auto classes = similarity_classes({a, b, c});
  EXPECT_EQ(classes.size(), 3u);
}

TEST(SimilarityClasses, EmptyInput) {
  EXPECT_TRUE(similarity_classes({}).empty());
}

TEST(GeneralizePair, StripsTransientKeepsStable) {
  auto result = generalize_pair(trial("111", "a"), trial("222", "b"));
  ASSERT_TRUE(result.has_value());
  const graph::Node* p = result->find_node("p");
  EXPECT_EQ(p->props.count("name"), 1u);   // stable kept
  EXPECT_EQ(p->props.count("pid"), 0u);    // transient dropped
  EXPECT_EQ(p->props.count("time"), 0u);
  const graph::Edge* e = result->find_edge("e");
  EXPECT_EQ(e->props.count("operation"), 1u);
  EXPECT_EQ(e->props.count("serial"), 0u);
}

TEST(GeneralizePair, IdenticalGraphsKeepEverything) {
  auto result = generalize_pair(trial("1", "1"), trial("1", "1"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->find_node("p")->props.size(), 3u);
}

TEST(GeneralizePair, DissimilarGraphsFail) {
  EXPECT_FALSE(generalize_pair(trial("1", "1"), garbled()).has_value());
}

TEST(GeneralizePair, PicksPropertyOptimalMatching) {
  // Two interchangeable artifacts; only the optimal matching preserves
  // the stable "path" property on both.
  PropertyGraph a;
  a.add_node("p", "Process");
  a.add_node("f1", "Artifact", {{"path", "/x"}});
  a.add_node("f2", "Artifact", {{"path", "/y"}});
  a.add_edge("e1", "p", "f1", "Used");
  a.add_edge("e2", "p", "f2", "Used");
  PropertyGraph b;
  b.add_node("p", "Process");
  b.add_node("g1", "Artifact", {{"path", "/y"}});
  b.add_node("g2", "Artifact", {{"path", "/x"}});
  b.add_edge("e1", "p", "g1", "Used");
  b.add_edge("e2", "p", "g2", "Used");
  auto result = generalize_pair(a, b);
  ASSERT_TRUE(result.has_value());
  int paths_kept = 0;
  for (const graph::Node& n : result->nodes()) {
    paths_kept += static_cast<int>(n.props.count("path"));
  }
  EXPECT_EQ(paths_kept, 2);
}

TEST(GeneralizeTrials, DiscardsSingletonsAndCounts) {
  std::vector<PropertyGraph> trials = {trial("1", "a"), trial("2", "b"),
                                       garbled()};
  auto result = generalize_trials(trials);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->discarded, 1u);
  EXPECT_EQ(result->classes, 2u);
  // Transients stripped: p.pid, p.time, f.time, e.serial.
  EXPECT_EQ(result->transient_properties, 4);
}

TEST(GeneralizeTrials, FailsWhenAllSingletons) {
  std::vector<PropertyGraph> trials = {trial("1", "a"), garbled()};
  EXPECT_FALSE(generalize_trials(trials).has_value());
}

TEST(GeneralizeTrials, SmallestClassWins) {
  // Two viable classes: the small graphs and the larger (noisy) graphs.
  PropertyGraph big1 = trial("1", "a");
  big1.add_node("noise", "Daemon");
  PropertyGraph big2 = trial("2", "b");
  big2.add_node("noise", "Daemon");
  std::vector<PropertyGraph> trials = {big1, big2, trial("3", "c"),
                                       trial("4", "d")};
  auto smallest = generalize_trials(trials);
  ASSERT_TRUE(smallest.has_value());
  EXPECT_EQ(smallest->graph.node_count(), 2u);  // no Daemon node

  GeneralizeOptions largest;
  largest.pick = PickStrategy::LargestClass;
  auto big = generalize_trials(trials, largest);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->graph.node_count(), 3u);
}

TEST(GeneralizeTrials, TwoTrialsSuffice) {
  auto result = generalize_trials({trial("1", "a"), trial("2", "b")});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->discarded, 0u);
}

TEST(MemoConcurrency, EachPairStoredExactlyOnce) {
  // generalize_trials shares one SimilarityMemo across its pool workers.
  // Hammer one memo with the same pairs from many threads; the
  // duplicate-insert guard must keep one entry per distinct pair and
  // the counters must stay consistent (no double-counted verdicts when
  // the totals are merged into BenchmarkResult).
  graph::SymbolTable symbols;
  PropertyGraph a = trial("1", "a");
  PropertyGraph b = trial("2", "b");
  PropertyGraph c = garbled();
  matcher::InternedGraph ia(a, symbols), ib(b, symbols), ic(c, symbols);
  std::uint64_t da = graph::structural_digest(a);
  std::uint64_t db = graph::structural_digest(b);
  std::uint64_t dc = graph::structural_digest(c);

  matcher::SimilarityMemo memo;
  runtime::ThreadPool pool(8);
  const std::size_t kCalls = 64;
  pool.parallel_for(kCalls, [&](std::size_t i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(memo.similar(da, db, ia, ib));
    } else {
      EXPECT_FALSE(memo.similar(da, dc, ia, ic));
    }
  });
  // (ia,ib) is the only equal-digest pair ever solved; (ia,ic) is a
  // digest-mismatch short-circuit and stores nothing.
  EXPECT_EQ(memo.entries(), 1u);
  EXPECT_EQ(memo.lookups(), kCalls);
  // Everything but the (<= thread count) racing initial solves of
  // (ia,ib) is answered from cache or short-circuit.
  EXPECT_GE(memo.hits() + 9, kCalls);
}

}  // namespace
}  // namespace provmark::core
