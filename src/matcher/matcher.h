// Optimal (sub)graph matching over property graphs.
//
// The paper reduces its two core analyses to problems it ships to the
// clingo ASP solver:
//
//  * Listing 3 — *graph similarity*: an invertible mapping between two
//    graphs preserving structure and labels (properties ignored). Used to
//    partition recording trials into similarity classes, and — extended
//    with a property-mismatch objective — to generalize two similar trials
//    by discarding transient properties.
//
//  * Listing 4 — *approximate subgraph isomorphism*: an injective mapping
//    from the background graph into the foreground graph preserving
//    structure and labels, minimizing the number of background properties
//    with no matching foreground property. The unmatched foreground
//    remainder is the benchmark result.
//
// This module is a drop-in replacement for the ASP reduction: a dedicated
// branch-and-bound search with the same semantics. Candidate pruning uses
// label/degree signatures and (for the bijective problem) Weisfeiler-Leman
// colours; optimization prunes on the accumulated property-mismatch cost.
// Both knobs can be disabled for the ablation benchmark.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "graph/property_graph.h"

namespace provmark::matcher {

struct InternedGraph;  // matcher/interned.h: a reusable interned operand

/// A solution: node and edge correspondences from G1 into G2 plus its cost.
struct Matching {
  std::map<graph::Id, graph::Id> node_map;
  std::map<graph::Id, graph::Id> edge_map;
  /// Property-mismatch cost of this matching (see CostModel).
  int cost = 0;
};

/// How property mismatches are counted.
enum class CostModel {
  /// Ignore properties entirely (pure Listing 3 similarity).
  None,
  /// Count properties of G1 elements with no equal (key,value) on the
  /// matched G2 element (pure Listing 4: cost lines of the ASP program).
  OneSided,
  /// OneSided in both directions; used when generalizing two similar
  /// trials, where a mismatch on either side marks a transient property.
  Symmetric,
};

/// In which order candidate target nodes are tried for each pattern node.
/// The search is exhaustive either way — ordering only decides how soon a
/// good solution is found, which determines how hard branch-and-bound can
/// prune.
enum class CandidateOrder {
  /// Cheapest node-property cost first: greedy best-first descent. Not
  /// the product order; kept because it is the order legacy:: implements,
  /// so the compact-vs-legacy suites compare step traces under it.
  PropertyCost,
  /// WL-colour-scarcity strategy (the product order). Candidate lists
  /// are pruned to the matching WL colour class (bijective problem) and
  /// sorted cheapest-cost first; the most-constrained-first node order
  /// breaks candidate-count ties towards the rarer target colour class;
  /// and
  /// the cost bound is tightened with an admissible remaining-cost
  /// estimate (the sum of per-node minimum candidate costs over the
  /// unassigned suffix). Scarce colour classes have the fewest
  /// candidates, so wrong turns are taken — and proven wrong — as
  /// early as possible; the suffix bound then prunes any deviation
  /// from a discovered optimum immediately. Exhaustive and
  /// optimum-preserving like every other order.
  WlScarcity,
};

/// Engine-level options of one matcher call. The defaults describe the
/// baseline engine (PropertyCost order, no decomposition, no budget) on
/// purpose: the legacy and brute-force equivalence suites build this
/// struct directly and compare step counts bit-for-bit against
/// `legacy::`. The pipeline's optimizing searches overlay a
/// SearchConfig, whose defaults are the bounded product search; only
/// the similar() decision form runs on these defaults.
struct SearchOptions {
  CostModel cost_model = CostModel::OneSided;
  /// Stop as soon as any structurally valid matching is found (the cost is
  /// still reported for that matching, but not optimized).
  bool first_solution_only = false;
  /// Enable label/degree/WL candidate pruning (ablation knob).
  bool candidate_pruning = true;
  /// Enable branch-and-bound pruning on cost (ablation knob).
  bool cost_bounding = true;
  /// Candidate ordering heuristic (see CandidateOrder).
  CandidateOrder candidate_order = CandidateOrder::PropertyCost;
  /// Abort after this many search steps; 0 = unlimited. A hit produces
  /// std::nullopt with `budget_exhausted` set in Stats. Guards against the
  /// worst-case exponential behaviour the paper accepts as a risk (§5.4).
  std::size_t step_budget = 0;
  /// Solve independent weakly-connected components of the two graphs
  /// separately and sum their costs (bijective problem only; the
  /// embedding problem ignores it, since disjoint pattern components
  /// may compete for overlapping target nodes). Components are matched
  /// up by WL-colour-multiset signature; ambiguous groups solve every
  /// pairing and pick the cost-minimal assignment, so the optimal cost
  /// is identical to the joint search — but the multiplicative
  /// cross-component candidate space becomes additive.
  bool component_decomposition = false;
};

/// Step budget of every product search (SearchConfig's default). The
/// largest search measured under the default strategy — any Table-1
/// cell or gen1..24x32 program on any of the six recorders — takes
/// under 200 steps for a whole cell, so real instances sit more than
/// four orders of magnitude below it; a search that reaches it is a
/// pathological instance, cut off after a few seconds instead of
/// running for minutes (§5.4's exponential worst case).
inline constexpr std::size_t kDefaultStepBudget = 10'000'000;

/// The user-facing search knobs threaded from the CLI / pipeline down
/// into every matcher call of a run (the ablation booleans stay on the
/// per-stage option structs). apply() overlays these onto a fully
/// populated SearchOptions. The defaults are the product search:
/// WL-scarcity ordering with component decomposition — exhaustive and
/// optimum-preserving like every order, and the one that stays
/// tractable on generator-scale programs — under a finite budget.
/// `order` and `decompose` stay settable: the equivalence tests and the
/// repository benchmark spell out their reference search with them.
struct SearchConfig {
  CandidateOrder order = CandidateOrder::WlScarcity;
  bool decompose = true;
  /// Per matcher call; 0 = unlimited. A search that reaches it reports
  /// Stats::budget_exhausted and the pipeline fails the run with
  /// failure_reason "search-budget".
  std::size_t step_budget = kDefaultStepBudget;

  void apply(SearchOptions& options) const {
    options.candidate_order = order;
    options.component_decomposition = decompose;
    options.step_budget = step_budget;
  }
};

/// The short spelling of an order: "cost" | "wl".
const char* order_name(CandidateOrder order);

/// A canonical name of the strategy a config runs — the order's
/// spelling, plus "+decompose" when decomposition is on — for shard
/// fingerprints that must tell result-affecting strategies apart
/// (orders tie-break equal-cost matchings differently). The default
/// reads "wl+decompose", which shards written by earlier builds carry,
/// so the spelling must not change.
std::string strategy_name(const SearchConfig& config);

/// Search statistics, used by tests and the ablation benchmark.
struct Stats {
  std::size_t steps = 0;            ///< node-assignment attempts
  std::size_t solutions_found = 0;  ///< complete matchings encountered
  bool budget_exhausted = false;
};

/// Find an *invertible* (bijective) matching G1 <-> G2 preserving node/edge
/// labels and edge endpoints — the paper's Listing 3. With a cost model,
/// returns the matching minimizing the property-mismatch cost.
/// Returns std::nullopt when the graphs are not similar.
std::optional<Matching> best_isomorphism(const graph::PropertyGraph& g1,
                                         const graph::PropertyGraph& g2,
                                         const SearchOptions& options = {},
                                         Stats* stats = nullptr);

/// Find an *injective* matching of G1 into G2 preserving labels and
/// structure, minimizing one-sided property cost — the paper's Listing 4.
/// Returns std::nullopt when G1 is not (label-preservingly) embeddable.
std::optional<Matching> best_subgraph_embedding(
    const graph::PropertyGraph& g1, const graph::PropertyGraph& g2,
    const SearchOptions& options = {}, Stats* stats = nullptr);

/// Pure similarity test (paper §3.4): do the graphs have the same shape,
/// ignoring properties?
bool similar(const graph::PropertyGraph& g1, const graph::PropertyGraph& g2);

// -- interned entry points ----------------------------------------------------
// Zero-interning variants over pre-built snapshots (matcher/interned.h).
// Both operands must have been interned against the *same* SymbolTable
// (std::invalid_argument otherwise). The pipeline interns each trial
// graph exactly once and reuses the snapshot for every similarity check,
// generalization, and comparison it participates in; the PropertyGraph
// overloads above are one-shot conveniences that intern on the fly.

std::optional<Matching> best_isomorphism(const InternedGraph& g1,
                                         const InternedGraph& g2,
                                         const SearchOptions& options = {},
                                         Stats* stats = nullptr);

std::optional<Matching> best_subgraph_embedding(
    const InternedGraph& g1, const InternedGraph& g2,
    const SearchOptions& options = {}, Stats* stats = nullptr);

bool similar(const InternedGraph& g1, const InternedGraph& g2);

}  // namespace provmark::matcher
