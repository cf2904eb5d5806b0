// The production matching engine, running entirely on the interned
// InternedGraph representation (matcher/interned.h): labels and property
// keys/values are dense uint32 symbols shared between the two graphs,
// adjacency is pre-grouped by (src,tgt,label), and property-mismatch
// costs are linear merges of sorted symbol pairs. String ids are only
// touched again when materializing the final Matching.
//
// The engine never interns: both operands arrive pre-snapshotted (either
// built here by the PropertyGraph convenience overloads, or lifted from
// the pipeline's per-trial snapshots), so repeated calls over the same
// graphs — the similarity-classification pattern — pay the interning
// cost once.
//
// Two search layers stack on one serial branch-and-bound core:
//
//  * Ordering (CandidateOrder): which pattern node is assigned next and
//    in which order its candidates are tried. WlScarcity additionally
//    prunes bijective candidate lists per WL colour class and tightens
//    the cost bound with an admissible suffix lower bound.
//  * Component decomposition (SearchOptions::component_decomposition):
//    the bijective problem splits into independent weakly-connected
//    components, matched up by WL-signature and solved separately; the
//    optimal cost is identical but the cross-component candidate space
//    becomes additive instead of multiplicative.
//
// Both places that pair up interchangeable pieces — parallel same-label
// edges within one node pair, and same-signature components — share one
// polynomial assignment routine (min_cost_assignment), so the only
// exponential part of a search is the node search the step budget
// counts.
//
// With the layers at their defaults the engine is bit-identical to the
// string-keyed baseline preserved in legacy_matcher.cpp — same results,
// same Stats.steps trace — which the equivalence test enforces.
#include "matcher/matcher.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graph/compact.h"
#include "matcher/interned.h"

namespace provmark::matcher {

namespace {

using graph::CompactProps;
using graph::PropertyGraph;
using graph::Symbol;
using graph::SymbolTable;

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;
constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// Property-mismatch cost under the given model; allocation-free merge of
/// the sorted (key,value) symbol vectors.
int prop_cost(const CompactProps& a, const CompactProps& b, CostModel model) {
  switch (model) {
    case CostModel::None:
      return 0;
    case CostModel::OneSided:
      return graph::one_sided_mismatch(a, b);
    case CostModel::Symmetric:
      return graph::symmetric_mismatch(a, b);
  }
  return 0;
}

/// The lexicographically first minimum-cost assignment of every row of
/// the row-major `rows` x `cols` matrix `cost` to a distinct column;
/// cells of kInfinity are infeasible and costs are non-negative. Writes
/// each row's column to `pick` and returns the total, or kInfinity when
/// no assignment exists. "Lexicographically first" is the assignment an
/// exhaustive row-major DFS keeping only strict improvements returns —
/// the one legacy:: still computes that way — so results never depend on
/// which algorithm found the optimum.
///
/// O(n^3) for n = cols: Hungarian (Kuhn-Munkres with potentials) on the
/// matrix padded to a square with zero-cost dummy rows finds an optimum
/// and an optimal dual. An assignment is optimal exactly when all its
/// cells are tight (zero reduced cost) under that dual, so the first
/// optimum is the first perfect matching of the tight cells: each row in
/// turn takes its smallest tight column from which the rows not yet
/// fixed can still be rerouted to a perfect matching. One backward
/// search over alternating paths per row decides that for every column
/// at once.
int min_cost_assignment(const std::vector<int>& cost, std::size_t rows,
                        std::size_t cols, std::vector<std::uint32_t>* pick) {
  if (rows > cols) return kInfinity;
  const std::size_t n = cols;
  // An infeasible cell costs more than every feasible cell together, so
  // an optimum uses one only when no feasible assignment exists.
  long long infeasible = 1;
  for (int c : cost) {
    if (c < kInfinity) infeasible += c;
  }
  auto at = [&](std::size_t i, std::size_t j) -> long long {
    if (i >= rows) return 0;
    int c = cost[i * cols + j];
    return c < kInfinity ? c : infeasible;
  };

  // Hungarian algorithm, 1-based: u/v are row/column potentials,
  // owner[j] the row holding column j (0 = free), way[] the
  // shortest-path tree of the current augmentation.
  constexpr long long kUnreached = std::numeric_limits<long long>::max();
  std::vector<long long> u(n + 1, 0), v(n + 1, 0), slack(n + 1);
  std::vector<std::size_t> owner(n + 1, 0), way(n + 1, 0);
  std::vector<bool> visited(n + 1);
  for (std::size_t i = 1; i <= n; ++i) {
    owner[0] = i;
    std::size_t j0 = 0;
    std::fill(slack.begin(), slack.end(), kUnreached);
    std::fill(visited.begin(), visited.end(), false);
    do {
      visited[j0] = true;
      const std::size_t i0 = owner[j0];
      long long delta = kUnreached;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (visited[j]) continue;
        long long reduced = at(i0 - 1, j - 1) - u[i0] - v[j];
        if (reduced < slack[j]) {
          slack[j] = reduced;
          way[j] = j0;
        }
        if (slack[j] < delta) {
          delta = slack[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (visited[j]) {
          u[owner[j]] += delta;
          v[j] -= delta;
        } else {
          slack[j] -= delta;
        }
      }
      j0 = j1;
    } while (owner[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      owner[j0] = owner[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  // 0-based matching and tightness under the final dual.
  std::vector<std::size_t> col_of(n), row_of(n);
  for (std::size_t j = 1; j <= n; ++j) {
    row_of[j - 1] = owner[j] - 1;
    col_of[owner[j] - 1] = j - 1;
  }
  auto tight = [&](std::size_t i, std::size_t j) {
    return at(i, j) == u[i + 1] + v[j + 1];
  };

  // Fix the real rows in order. Row i may take tight column j when j is
  // its own column, or j's owner r (a later row) can hand j over along
  // an alternating path of tight cells ending at i's old column: r takes
  // next[r], whose owner takes its next, ..., until one takes `freed`.
  std::vector<std::size_t> next(n);
  std::vector<bool> reaches(n);
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t freed = col_of[i];
    std::fill(reaches.begin(), reaches.end(), false);
    queue.assign(1, freed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t c = queue[head];
      for (std::size_t r = i + 1; r < n; ++r) {
        if (reaches[r] || col_of[r] == c || !tight(r, c)) continue;
        reaches[r] = true;
        next[r] = c;
        queue.push_back(col_of[r]);
      }
    }
    std::size_t j = 0;
    while (!tight(i, j) ||
           (j != freed && (row_of[j] <= i || !reaches[row_of[j]]))) {
      ++j;
    }
    if (j == freed) continue;
    std::size_t r = row_of[j];
    col_of[i] = j;
    row_of[j] = i;
    while (true) {
      const std::size_t c = next[r];
      const std::size_t previous = row_of[c];
      col_of[r] = c;
      row_of[c] = r;
      if (c == freed) break;
      r = previous;
    }
  }

  int total = 0;
  pick->resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const int c = cost[i * cols + col_of[i]];
    if (c >= kInfinity) return kInfinity;
    total += c;
    (*pick)[i] = static_cast<std::uint32_t>(col_of[i]);
  }
  return total;
}

/// Minimum-cost injective assignment of pattern edges to target edges
/// within one group. Groups are tiny in practice — almost always a single
/// edge, which is handled allocation-free; parallel same-label edges
/// between one node pair go through min_cost_assignment.
int min_group_assignment(
    const InternedGraph& pattern,
    const std::vector<std::uint32_t>& pattern_edges,
    const InternedGraph& target, const std::vector<std::uint32_t>* target_edges,
    CostModel model, bool bijective,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>* best_pairs_out) {
  static const std::vector<std::uint32_t> kEmpty;
  const std::vector<std::uint32_t>& tgt =
      target_edges != nullptr ? *target_edges : kEmpty;
  const std::size_t np = pattern_edges.size();
  const std::size_t nt = tgt.size();
  if (np > nt) return kInfinity;
  if (bijective && np != nt) return kInfinity;

  if (np == 1) {
    // The common case: no parallel same-label edges between this pair.
    const CompactProps& pp = pattern.g.edge_props[pattern_edges[0]];
    int best = kInfinity;
    std::uint32_t best_te = kUnmapped;
    for (std::uint32_t te : tgt) {
      int c = prop_cost(pp, target.g.edge_props[te], model);
      if (c < best) {
        best = c;
        best_te = te;
      }
    }
    if (best_pairs_out != nullptr) {
      best_pairs_out->clear();
      best_pairs_out->emplace_back(pattern_edges[0], best_te);
    }
    return best;
  }

  std::vector<int> cost(np * nt);
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      cost[i * nt + j] = prop_cost(pattern.g.edge_props[pattern_edges[i]],
                                   target.g.edge_props[tgt[j]], model);
    }
  }
  std::vector<std::uint32_t> pick;
  const int best = min_cost_assignment(cost, np, nt, &pick);
  if (best >= kInfinity) return kInfinity;
  if (best_pairs_out != nullptr) {
    best_pairs_out->clear();
    for (std::size_t i = 0; i < np; ++i) {
      best_pairs_out->emplace_back(pattern_edges[i], tgt[pick[i]]);
    }
  }
  return best;
}

class SearchEngine {
 public:
  SearchEngine(const InternedGraph& pattern, const InternedGraph& target,
               bool bijective, const SearchOptions& options, Stats* stats)
      : pattern_(pattern),
        target_(target),
        bijective_(bijective),
        options_(options),
        stats_(stats) {
    if (pattern.g.symbols != target.g.symbols) {
      throw std::invalid_argument(
          "matcher: operands interned against different symbol tables");
    }
  }

  std::optional<Matching> run() {
    if (bijective_) {
      // Cheap necessary conditions first.
      if (pattern_.g.node_count() != target_.g.node_count() ||
          pattern_.g.edge_count() != target_.g.edge_count()) {
        return std::nullopt;
      }
      if (options_.candidate_pruning && !label_histograms_match()) {
        return std::nullopt;
      }
    } else if (pattern_.g.node_count() > target_.g.node_count() ||
               pattern_.g.edge_count() > target_.g.edge_count()) {
      return std::nullopt;
    }

    if (!compute_candidates()) return std::nullopt;
    order_pattern_nodes();
    lb_pruning_ = options_.candidate_order == CandidateOrder::WlScarcity &&
                  options_.cost_bounding;
    if (lb_pruning_) compute_suffix_min();

    mapping_.assign(pattern_.g.node_count(), kUnmapped);
    reverse_used_.assign(target_.g.node_count(), false);
    search(0, 0);
    if (have_best_) {
      return build_matching();
    }
    return std::nullopt;
  }

 private:
  /// A candidate target node with its precomputed node-property cost
  /// (computed once here instead of on every assignment attempt).
  struct Candidate {
    std::uint32_t node;
    int cost;
  };

  /// Multisets of node labels and edge labels must agree for the graphs
  /// to be similar. Symbols are shared, so this is integer counting.
  bool label_histograms_match() const {
    if (pattern_.g.label_buckets.size() != target_.g.label_buckets.size()) {
      return false;
    }
    for (const auto& [label, bucket] : pattern_.g.label_buckets) {
      auto it = target_.g.label_buckets.find(label);
      if (it == target_.g.label_buckets.end() ||
          it->second.size() != bucket.size()) {
        return false;
      }
    }
    std::unordered_map<Symbol, std::size_t> pattern_edges, target_edges;
    for (Symbol label : pattern_.g.edge_label) ++pattern_edges[label];
    for (Symbol label : target_.g.edge_label) ++target_edges[label];
    return pattern_edges == target_edges;
  }

  /// Candidate target nodes per pattern node. Returns false when some
  /// pattern node has no candidate at all.
  bool compute_candidates() {
    const std::uint32_t n = pattern_.g.node_count();
    candidates_.assign(n, {});
    scarcity_.assign(n, 0);
    const bool scarcity =
        options_.candidate_order == CandidateOrder::WlScarcity;
    // WlScarcity prunes bijective candidate lists per colour class even
    // with the generic pruning knob off: the colour filter is part of
    // the ordering strategy (matched nodes of any label-preserving
    // bijection have equal WL colours, so no valid matching is lost).
    const bool wl_filter =
        bijective_ && (options_.candidate_pruning || scarcity);
    std::vector<std::uint64_t> wl1, wl2;
    std::unordered_map<std::uint64_t, std::uint32_t> colour_freq;
    if (wl_filter) {
      wl1 = graph::compact_wl_colours(pattern_.g, 2);
      wl2 = graph::compact_wl_colours(target_.g, 2);
      if (scarcity) {
        for (std::uint64_t colour : wl2) ++colour_freq[colour];
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      // Only same-label target nodes can match; the bucket is ascending,
      // preserving the baseline's candidate order.
      auto bucket = target_.g.label_buckets.find(pattern_.g.node_label[i]);
      if (bucket != target_.g.label_buckets.end()) {
        for (std::uint32_t j : bucket->second) {
          if (options_.candidate_pruning) {
            if (bijective_) {
              if (pattern_.g.in_degree(i) != target_.g.in_degree(j) ||
                  pattern_.g.out_degree(i) != target_.g.out_degree(j)) {
                continue;
              }
            } else {
              if (pattern_.g.in_degree(i) > target_.g.in_degree(j) ||
                  pattern_.g.out_degree(i) > target_.g.out_degree(j)) {
                continue;
              }
            }
          }
          if (wl_filter && wl1[i] != wl2[j]) continue;
          candidates_[i].push_back(Candidate{
              j, prop_cost(pattern_.g.node_props[i], target_.g.node_props[j],
                           options_.cost_model)});
        }
      }
      if (candidates_[i].empty()) return false;
      if (scarcity) {
        // Rarity of this node's colour class in the target; embedding
        // problems (no comparable colours) fall back to candidate count.
        scarcity_[i] = wl_filter
                           ? colour_freq[wl1[i]]
                           : static_cast<std::uint32_t>(candidates_[i].size());
      }
    }
    order_candidates();
    return true;
  }

  /// Cheapest candidate first, under both orders: the search stays
  /// exhaustive, but finding a near-optimal solution early lets the cost
  /// bound prune the rest. For WlScarcity this also makes the list head
  /// equal the per-node minimum used by the suffix bound, so the greedy
  /// first descent realizes the bound when it can.
  void order_candidates() {
    for (std::vector<Candidate>& list : candidates_) {
      std::stable_sort(list.begin(), list.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.cost < b.cost;
                       });
    }
  }

  /// Most-constrained-first ordering, preferring nodes adjacent to already
  /// ordered ones (keeps the partial mapping connected, enabling early
  /// adjacency checks). Under WlScarcity, ties on candidate count break
  /// towards the rarer target colour class: after the colour filter the
  /// candidate count is the *available* slice of a colour class, so
  /// rarity is the scarcity signal that survives when counts tie — the
  /// greedy descent stays on the most-constrained path (empirically the
  /// optimum on provenance-shaped graphs) and the suffix bound then
  /// prunes the proof-of-optimality phase.
  void order_pattern_nodes() {
    const std::uint32_t n = pattern_.g.node_count();
    const bool scarcity =
        options_.candidate_order == CandidateOrder::WlScarcity;
    order_.clear();
    order_.reserve(n);
    std::vector<bool> placed(n, false);
    std::set<std::uint32_t> frontier;

    for (std::uint32_t step = 0; step < n; ++step) {
      std::uint32_t chosen = kUnmapped;
      // Prefer frontier nodes; among them, fewest candidates, with
      // count ties broken towards the rarer colour class (WlScarcity
      // only); remaining ties keep the lowest index.
      for (std::uint32_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        bool in_frontier = frontier.count(i) > 0;
        if (chosen == kUnmapped) {
          chosen = i;
          continue;
        }
        bool chosen_in_frontier = frontier.count(chosen) > 0;
        if (in_frontier != chosen_in_frontier) {
          if (in_frontier) chosen = i;
          continue;
        }
        if (candidates_[i].size() != candidates_[chosen].size()) {
          if (candidates_[i].size() < candidates_[chosen].size()) chosen = i;
          continue;
        }
        if (scarcity && scarcity_[i] < scarcity_[chosen]) chosen = i;
      }
      placed[chosen] = true;
      order_.push_back(chosen);
      for (std::uint32_t gi : pattern_.groups_of_node[chosen]) {
        const EdgeGroup& group = pattern_.groups[gi];
        std::uint32_t nb = group.src == chosen ? group.tgt : group.src;
        if (!placed[nb]) frontier.insert(nb);
      }
      frontier.erase(chosen);
    }
  }

  /// Admissible remaining-cost estimate for WlScarcity: suffix_min_[pos]
  /// = sum over order positions >= pos of the node's minimum candidate
  /// cost, plus the minimum cost of every edge group decided at or after
  /// pos. A group's cost lands when its later endpoint is assigned
  /// (edge_groups_cost), and the realized per-edge cost is an injective
  /// assignment within one same-label target group — never below the
  /// cheapest same-label target edge anywhere in the graph. Neither term
  /// overestimates (node minima are taken over the full candidate list,
  /// a superset of the available candidates), so pruning on acc + suffix
  /// preserves the optimum — and the first minimum-cost solution in DFS
  /// order, hence the matching.
  void compute_suffix_min() {
    auto saturating_add = [](int a, int b) {
      return std::min(a + b, kInfinity);
    };
    // Minimum cost of each edge group, charged to the order position
    // where the group becomes fully mapped. Property-heavy edge
    // workloads put the entire optimal cost here, where the per-node
    // term is blind (ROADMAP "admissible edge-cost bounds").
    std::vector<int> group_min_at(order_.size(), 0);
    if (options_.cost_model != CostModel::None) {
      std::vector<std::size_t> pos_of(order_.size(), 0);
      for (std::size_t pos = 0; pos < order_.size(); ++pos) {
        pos_of[order_[pos]] = pos;
      }
      std::unordered_map<Symbol, std::vector<std::uint32_t>> target_by_label;
      for (std::uint32_t e = 0; e < target_.g.edge_count(); ++e) {
        target_by_label[target_.g.edge_label[e]].push_back(e);
      }
      for (const EdgeGroup& group : pattern_.groups) {
        std::size_t decided_at =
            std::max(pos_of[group.src], pos_of[group.tgt]);
        auto it = target_by_label.find(group.label);
        int group_min = it == target_by_label.end() ? kInfinity : 0;
        if (it != target_by_label.end()) {
          for (std::uint32_t pe : group.edges) {
            int edge_min = kInfinity;
            for (std::uint32_t te : it->second) {
              edge_min = std::min(
                  edge_min, prop_cost(pattern_.g.edge_props[pe],
                                      target_.g.edge_props[te],
                                      options_.cost_model));
            }
            group_min = saturating_add(group_min, edge_min);
            if (group_min >= kInfinity) break;
          }
        }
        group_min_at[decided_at] =
            saturating_add(group_min_at[decided_at], group_min);
      }
    }
    suffix_min_.assign(order_.size() + 1, 0);
    for (std::size_t pos = order_.size(); pos-- > 0;) {
      int node_min = kInfinity;
      for (const Candidate& candidate : candidates_[order_[pos]]) {
        node_min = std::min(node_min, candidate.cost);
      }
      suffix_min_[pos] = saturating_add(
          suffix_min_[pos + 1], saturating_add(node_min, group_min_at[pos]));
    }
  }

  int suffix_lb(std::size_t pos) const {
    return lb_pruning_ ? suffix_min_[pos] : 0;
  }

  /// Cost contribution of all edge groups that become fully mapped when
  /// pattern node `i` is assigned. For the bijective problem also *checks*
  /// group cardinalities. Returns kInfinity when structurally
  /// inconsistent.
  int edge_groups_cost(const std::vector<std::uint32_t>& mapping,
                       std::uint32_t i) const {
    int total = 0;
    for (std::uint32_t gi : pattern_.groups_of_node[i]) {
      const EdgeGroup& group = pattern_.groups[gi];
      std::uint32_t other = group.src == i ? group.tgt : group.src;
      if (mapping[other] == kUnmapped) continue;  // not yet decidable
      std::uint32_t tsrc = mapping[group.src];
      std::uint32_t ttgt = mapping[group.tgt];
      const std::vector<std::uint32_t>* target_edges =
          target_.group_edges(tsrc, ttgt, group.label);
      int cost = min_group_assignment(pattern_, group.edges, target_,
                                      target_edges, options_.cost_model,
                                      bijective_, nullptr);
      if (cost >= kInfinity) return kInfinity;
      total += cost;
      // Bijective: the target may not have extra edges between the mapped
      // pair with labels absent from the pattern's groups (checked
      // globally by edge-count equality plus per-pair equality here).
      // All groups of a pair become decidable at the same step, so the
      // pair representative runs the check exactly once.
      if (bijective_ && group.pair_representative) {
        const std::vector<std::uint32_t>* target_pair =
            target_.pair_groups(tsrc, ttgt);
        if (target_pair != nullptr) {
          for (std::uint32_t tgi : *target_pair) {
            const EdgeGroup& tgroup = target_.groups[tgi];
            const std::vector<std::uint32_t>* pattern_edges =
                pattern_.group_edges(group.src, group.tgt, tgroup.label);
            std::size_t pattern_count =
                pattern_edges == nullptr ? 0 : pattern_edges->size();
            if (pattern_count != tgroup.edges.size()) return kInfinity;
          }
        }
      }
    }
    return total;
  }

  /// One step of accounting against the budget.
  void count_step() {
    ++stats_->steps;
    if (options_.step_budget > 0 && stats_->steps > options_.step_budget) {
      stats_->budget_exhausted = true;
    }
  }

  bool stop_early() const {
    return (options_.first_solution_only && found_any_) ||
           stats_->budget_exhausted;
  }

  void search(std::size_t pos, int acc_cost) {
    count_step();
    if (stats_->budget_exhausted) return;
    if (options_.cost_bounding && acc_cost + suffix_lb(pos) >= best_cost_) {
      return;
    }
    if (pos == order_.size()) {
      if (acc_cost < best_cost_ || !have_best_) {
        best_cost_ = acc_cost;
        best_node_mapping_ = mapping_;
        have_best_ = true;
      }
      ++stats_->solutions_found;
      found_any_ = true;
      return;
    }
    std::uint32_t i = order_[pos];
    for (const Candidate& candidate : candidates_[i]) {
      std::uint32_t j = candidate.node;
      if (reverse_used_[j]) continue;
      if (stop_early()) return;
      mapping_[i] = j;
      reverse_used_[j] = true;
      int group_cost = edge_groups_cost(mapping_, i);
      if (group_cost < kInfinity) {
        int next = acc_cost + candidate.cost + group_cost;
        if (!options_.cost_bounding ||
            next + suffix_lb(pos + 1) < best_cost_) {
          search(pos + 1, next);
        }
      }
      mapping_[i] = kUnmapped;
      reverse_used_[j] = false;
      if (stop_early()) return;
    }
  }

  /// Reconstruct the full matching (including the optimal edge pairing)
  /// from the best node mapping. The only place string ids reappear.
  Matching build_matching() {
    Matching m;
    m.cost = 0;
    const std::vector<graph::Node>& pattern_nodes =
        pattern_.g.source->nodes();
    const std::vector<graph::Node>& target_nodes = target_.g.source->nodes();
    for (std::uint32_t i = 0; i < best_node_mapping_.size(); ++i) {
      m.node_map[pattern_nodes[i].id] =
          target_nodes[best_node_mapping_[i]].id;
      m.cost += prop_cost(pattern_.g.node_props[i],
                          target_.g.node_props[best_node_mapping_[i]],
                          options_.cost_model);
    }
    const std::vector<graph::Edge>& pattern_edges =
        pattern_.g.source->edges();
    const std::vector<graph::Edge>& target_edges = target_.g.source->edges();
    for (const EdgeGroup& group : pattern_.groups) {
      std::uint32_t tsrc = best_node_mapping_[group.src];
      std::uint32_t ttgt = best_node_mapping_[group.tgt];
      std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
      int cost = min_group_assignment(
          pattern_, group.edges, target_,
          target_.group_edges(tsrc, ttgt, group.label), options_.cost_model,
          bijective_, &pairs);
      m.cost += cost;
      for (const auto& [pe, te] : pairs) {
        m.edge_map[pattern_edges[pe].id] = target_edges[te].id;
      }
    }
    return m;
  }

  const InternedGraph& pattern_;
  const InternedGraph& target_;
  bool bijective_;
  SearchOptions options_;
  Stats* stats_;

  std::vector<std::vector<Candidate>> candidates_;
  std::vector<std::uint32_t> scarcity_;  // target colour-class size
  std::vector<std::uint32_t> order_;
  std::vector<int> suffix_min_;
  bool lb_pruning_ = false;
  std::vector<std::uint32_t> mapping_;    // pattern index -> target index
  std::vector<bool> reverse_used_;        // target index taken?
  std::vector<std::uint32_t> best_node_mapping_;
  int best_cost_ = kInfinity;
  bool have_best_ = false;
  bool found_any_ = false;
};

// -- component decomposition --------------------------------------------------

/// Weakly-connected component id per node, numbered in first-appearance
/// (= source insertion) order; `count_out` receives the component count.
std::vector<std::uint32_t> component_ids(const graph::CompactGraph& g,
                                         std::uint32_t* count_out) {
  const std::uint32_t n = g.node_count();
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t v = 0; v < n; ++v) parent[v] = v;
  auto find = [&](std::uint32_t v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    std::uint32_t a = find(g.edge_src[e]);
    std::uint32_t b = find(g.edge_tgt[e]);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<std::uint32_t> ids(n, kUnmapped);
  std::uint32_t count = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t root = find(v);
    if (ids[root] == kUnmapped) ids[root] = count++;
    ids[v] = ids[root];
  }
  *count_out = count;
  return ids;
}

/// Order-independent structural signature of one component: the
/// unordered hash of its nodes' whole-graph WL colours mixed with its
/// edge count. Components do not interact under WL refinement, so
/// whole-graph colours equal per-subgraph colours, and isomorphic
/// components always share a signature (collisions merely merge
/// assignment groups, which the exact search then disambiguates).
std::vector<std::uint64_t> component_signatures(
    const graph::CompactGraph& g, const std::vector<std::uint32_t>& comp,
    std::uint32_t count) {
  std::vector<std::uint64_t> colours = graph::compact_wl_colours(g, 2);
  std::vector<graph::UnorderedHashSum> sums(count);
  std::vector<std::uint64_t> edge_counts(count, 0);
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    sums[comp[v]].add(colours[v]);
  }
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    ++edge_counts[comp[g.edge_src[e]]];
  }
  std::vector<std::uint64_t> out(count);
  for (std::uint32_t c = 0; c < count; ++c) {
    out[c] = graph::hash_mix(sums[c].value(), edge_counts[c]);
  }
  return out;
}

/// Extract each component as its own PropertyGraph (ids and insertion
/// order preserved), so per-component matchings speak source ids and
/// merge trivially.
std::vector<PropertyGraph> component_subgraphs(
    const graph::CompactGraph& g, const std::vector<std::uint32_t>& comp,
    std::uint32_t count) {
  std::vector<PropertyGraph> subs(count);
  const std::vector<graph::Node>& nodes = g.source->nodes();
  const std::vector<graph::Edge>& edges = g.source->edges();
  for (std::uint32_t v = 0; v < g.node_count(); ++v) {
    subs[comp[v]].add_node(nodes[v].id, nodes[v].label, nodes[v].props);
  }
  for (std::uint32_t e = 0; e < g.edge_count(); ++e) {
    const graph::Edge& edge = edges[e];
    subs[comp[g.edge_src[e]]].add_edge(edge.id, edge.src, edge.tgt,
                                       edge.label, edge.props);
  }
  return subs;
}

void merge_matching(Matching& total, const Matching& part) {
  total.cost += part.cost;
  total.node_map.insert(part.node_map.begin(), part.node_map.end());
  total.edge_map.insert(part.edge_map.begin(), part.edge_map.end());
}

/// The decomposed bijective search: solve components independently and
/// sum. Any isomorphism maps components onto components, and the cost is
/// a sum of per-element costs, so the optimal total equals the best
/// assignment of pattern components to signature-compatible target
/// components, each pair solved at its own optimum. Returns std::nullopt
/// when the components cannot be matched up (or the shared step budget
/// runs out — a decomposed search does not report partial bests).
std::optional<Matching> decomposed_isomorphism(const InternedGraph& g1,
                                               const InternedGraph& g2,
                                               const SearchOptions& options,
                                               Stats* stats) {
  if (g1.g.symbols != g2.g.symbols) {
    throw std::invalid_argument(
        "matcher: operands interned against different symbol tables");
  }
  SearchOptions sub = options;
  sub.component_decomposition = false;

  std::uint32_t count1 = 0, count2 = 0;
  std::vector<std::uint32_t> comp1 = component_ids(g1.g, &count1);
  std::vector<std::uint32_t> comp2 = component_ids(g2.g, &count2);
  if (count1 <= 1 && count2 <= 1) {
    return best_isomorphism(g1, g2, sub, stats);
  }
  if (count1 != count2) return std::nullopt;

  std::vector<std::uint64_t> sig1 = component_signatures(g1.g, comp1, count1);
  std::vector<std::uint64_t> sig2 = component_signatures(g2.g, comp2, count2);
  // std::map: one fixed signature-ordered iteration, so the merged
  // matching is deterministic.
  std::map<std::uint64_t, std::pair<std::vector<std::uint32_t>,
                                    std::vector<std::uint32_t>>>
      groups;
  for (std::uint32_t c = 0; c < count1; ++c) groups[sig1[c]].first.push_back(c);
  for (std::uint32_t c = 0; c < count2; ++c) {
    groups[sig2[c]].second.push_back(c);
  }
  for (const auto& [sig, group] : groups) {
    if (group.first.size() != group.second.size()) return std::nullopt;
  }

  std::vector<PropertyGraph> subs1 = component_subgraphs(g1.g, comp1, count1);
  std::vector<PropertyGraph> subs2 = component_subgraphs(g2.g, comp2, count2);
  // One local table shared by every sub-snapshot, so each component is
  // interned exactly once even when it appears in k*k pair searches.
  SymbolTable local_symbols;
  std::deque<InternedGraph> interned1, interned2;
  std::vector<const InternedGraph*> by_comp1(count1), by_comp2(count2);
  for (std::uint32_t c = 0; c < count1; ++c) {
    interned1.emplace_back(subs1[c], local_symbols);
    by_comp1[c] = &interned1.back();
  }
  for (std::uint32_t c = 0; c < count2; ++c) {
    interned2.emplace_back(subs2[c], local_symbols);
    by_comp2[c] = &interned2.back();
  }

  Matching total;
  total.cost = 0;
  for (const auto& [sig, group] : groups) {
    const std::vector<std::uint32_t>& pat = group.first;
    const std::vector<std::uint32_t>& tgt = group.second;
    const std::size_t k = pat.size();
    if (k == 1) {
      std::optional<Matching> m =
          best_isomorphism(*by_comp1[pat[0]], *by_comp2[tgt[0]], sub, stats);
      if (stats->budget_exhausted) return std::nullopt;
      if (!m.has_value()) return std::nullopt;
      merge_matching(total, *m);
      continue;
    }
    // Ambiguous signature group: solve every pairing once, then pick the
    // cost-minimal assignment (lexicographically first on ties).
    std::vector<std::optional<Matching>> cell(k * k);
    std::vector<int> cost(k * k, kInfinity);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t t = 0; t < k; ++t) {
        std::optional<Matching>& m = cell[p * k + t];
        m = best_isomorphism(*by_comp1[pat[p]], *by_comp2[tgt[t]], sub, stats);
        if (stats->budget_exhausted) return std::nullopt;
        if (m.has_value()) cost[p * k + t] = m->cost;
      }
    }
    std::vector<std::uint32_t> pick;
    if (min_cost_assignment(cost, k, k, &pick) >= kInfinity) {
      return std::nullopt;
    }
    for (std::size_t p = 0; p < k; ++p) {
      merge_matching(total, *cell[p * k + pick[p]]);
    }
  }
  return total;
}

}  // namespace

std::optional<Matching> best_isomorphism(const InternedGraph& g1,
                                         const InternedGraph& g2,
                                         const SearchOptions& options,
                                         Stats* stats) {
  Stats local;
  Stats* effective = stats != nullptr ? stats : &local;
  if (options.component_decomposition) {
    return decomposed_isomorphism(g1, g2, options, effective);
  }
  SearchEngine engine(g1, g2, /*bijective=*/true, options, effective);
  return engine.run();
}

std::optional<Matching> best_subgraph_embedding(const InternedGraph& g1,
                                                const InternedGraph& g2,
                                                const SearchOptions& options,
                                                Stats* stats) {
  Stats local;
  SearchEngine engine(g1, g2, /*bijective=*/false, options,
                      stats != nullptr ? stats : &local);
  return engine.run();
}

bool similar(const InternedGraph& g1, const InternedGraph& g2) {
  SearchOptions options;
  options.cost_model = CostModel::None;
  options.first_solution_only = true;
  return best_isomorphism(g1, g2, options).has_value();
}

std::optional<Matching> best_isomorphism(const PropertyGraph& g1,
                                         const PropertyGraph& g2,
                                         const SearchOptions& options,
                                         Stats* stats) {
  SymbolTable symbols;
  InternedGraph pattern(g1, symbols);
  InternedGraph target(g2, symbols);
  return best_isomorphism(pattern, target, options, stats);
}

std::optional<Matching> best_subgraph_embedding(const PropertyGraph& g1,
                                                const PropertyGraph& g2,
                                                const SearchOptions& options,
                                                Stats* stats) {
  SymbolTable symbols;
  InternedGraph pattern(g1, symbols);
  InternedGraph target(g2, symbols);
  return best_subgraph_embedding(pattern, target, options, stats);
}

bool similar(const PropertyGraph& g1, const PropertyGraph& g2) {
  SearchOptions options;
  options.cost_model = CostModel::None;
  options.first_solution_only = true;
  return best_isomorphism(g1, g2, options).has_value();
}

const char* order_name(CandidateOrder order) {
  switch (order) {
    case CandidateOrder::PropertyCost: return "cost";
    case CandidateOrder::WlScarcity: return "wl";
  }
  return "?";
}

std::string strategy_name(const SearchConfig& config) {
  std::string name = order_name(config.order);
  if (config.decompose) name += "+decompose";
  return name;
}

}  // namespace provmark::matcher
