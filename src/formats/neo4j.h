// Neo4j-export format and an in-memory Neo4j-like store emulation.
//
// OPUS persists its Provenance Versioning Model graph in a Neo4j database;
// ProvMark's transformation stage for OPUS runs queries against that
// database to extract nodes and relationships. Here the database is
// emulated: recorder output is a Neo4j export document
//
//   { "nodes":        [ {"id": "...", "labels": ["..."],
//                        "properties": {...}}, ... ],
//     "relationships":[ {"id": "...", "start": "...", "end": "...",
//                        "type": "...", "properties": {...}}, ... ] }
//
// and `Neo4jStore` reproduces the *cost profile* the paper reports for
// OPUS transformation (one-time database/JVM startup plus per-query work,
// §5.1): opening a store builds label and property indices from scratch,
// and export queries walk those indices. The work performed is genuine
// (index construction over the stored data, repeated `startup_rounds`
// times to model JVM warm-up and page-cache population); no sleeps are
// involved. docs/architecture.md ("The Neo4j start-up model") discusses
// the calibration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/property_graph.h"

namespace provmark::formats {

/// Serialize a property graph as a Neo4j export document.
std::string to_neo4j_json(const graph::PropertyGraph& g);

/// Parse a Neo4j export document. Throws std::runtime_error on missing
/// endpoints or malformed records.
graph::PropertyGraph from_neo4j_json(std::string_view text);

/// In-memory emulation of a Neo4j store with the OPUS access pattern.
class Neo4jStore {
 public:
  struct Options {
    /// Rounds of redundant index rebuilding performed at open() to model
    /// JVM startup + cold page cache. The default was calibrated so the
    /// OPUS transformation stage dominates its pipeline like Figure 6.
    int startup_rounds = 400;
  };

  Neo4jStore() : options_(Options{}) {}
  explicit Neo4jStore(Options options) : options_(options) {}

  /// Load a Neo4j export document into the store and build indices
  /// (the expensive step).
  void open(std::string_view export_json);

  /// Cypher-lite: `MATCH (n) RETURN n` — all nodes via the label index.
  std::vector<graph::Node> match_all_nodes() const;

  /// Cypher-lite: `MATCH ()-[r]->() RETURN r` — all relationships.
  std::vector<graph::Edge> match_all_relationships() const;

  /// Nodes carrying a given label (uses the label index).
  std::vector<graph::Node> match_nodes_by_label(
      const std::string& label) const;

  /// Full reconstruction of the stored graph through the query interface.
  graph::PropertyGraph export_graph() const;

  std::size_t node_count() const { return graph_.node_count(); }
  std::size_t relationship_count() const { return graph_.edge_count(); }

 private:
  void build_indices();

  Options options_;
  graph::PropertyGraph graph_;
  std::map<std::string, std::vector<graph::Id>> label_index_;
  std::map<std::string, std::vector<graph::Id>> property_key_index_;
  std::uint64_t index_checksum_ = 0;  // forces the index work to be kept
};

}  // namespace provmark::formats
