// Weighted undirected graph with optional self-loops.
//
// This is the substrate every other module builds on. The representation is
// a CSR-style adjacency array built once by GraphBuilder; the Graph itself
// is immutable, which makes it trivially shareable across threads (the
// distributed simulator reads it concurrently from many workers).
//
// Self-loops are first-class citizens because the paper's
// diminishingly-dense decomposition (Definition II.3) operates on quotient
// graphs (Definition II.2), where edges leaving a peeled layer become
// self-loops at the surviving endpoint. Conventions:
//   * a self-loop {v} appears exactly once in v's adjacency (entry.to == v);
//   * the weighted degree deg(v) = sum of w(e) over edges e containing v,
//     so a self-loop contributes its weight once (the paper's definition:
//     deg_G(v) = sum over e with v in e);
//   * w(E(S)) counts a self-loop at v whenever v is in S.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace kcore::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

// An undirected edge {u, v} with weight w. u == v encodes a self-loop.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double w = 1.0;
};

// One adjacency slot: the neighbor, the edge weight and the edge index in
// the global edge list (useful for edge-indexed algorithms such as the
// orientation assignment).
struct AdjEntry {
  NodeId to = 0;
  double w = 1.0;
  EdgeId edge = 0;
};

class Graph;

// Accumulates edges, then freezes them into an immutable Graph.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : n_(num_nodes) {}

  // Adds an undirected edge; u and v must be < num_nodes. Zero- and
  // negative-weight edges are rejected by Build() (the paper assumes
  // non-negative weights; zero-weight edges are allowed and harmless).
  GraphBuilder& AddEdge(NodeId u, NodeId v, double w = 1.0);

  // Pre-sizes the edge buffer. Bulk loaders (graph/binio.h) know m up
  // front, so the edge array is one exact allocation instead of
  // push_back growth over 10^7+ records.
  GraphBuilder& Reserve(std::size_t m) {
    edges_.reserve(m);
    return *this;
  }

  // Merges parallel edges (same unordered endpoint pair) into a single
  // edge with the summed weight. Quotient-graph construction relies on
  // this, matching Definition II.2's set semantics.
  GraphBuilder& MergeParallel();

  NodeId num_nodes() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  Graph Build() &&;

 private:
  NodeId n_;
  std::vector<Edge> edges_;
};

// Immutable weighted undirected graph.
class Graph {
 public:
  Graph() = default;

  NodeId num_nodes() const { return n_; }
  // Number of edges, self-loops included (each counted once).
  std::size_t num_edges() const { return edges_.size(); }
  // Total edge weight, w(E).
  double total_weight() const { return total_weight_; }

  std::span<const Edge> edges() const { return edges_; }
  const Edge& edge(EdgeId e) const { return edges_[e]; }

  // Adjacency of v; a self-loop appears once with to == v.
  std::span<const AdjEntry> Neighbors(NodeId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  // Position of v's first adjacency entry in the graph's CSR order:
  // Neighbors(v) covers [AdjOffset(v), AdjOffset(v + 1)), and
  // AdjOffset(num_nodes()) is the total entry count — for per-entry
  // arrays laid out like the adjacency.
  std::size_t AdjOffset(NodeId v) const { return offsets_[v]; }

  // Number of adjacency entries (self-loop counts once).
  std::size_t Degree(NodeId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  // Weighted degree: sum of w(e) over incident edges (self-loop once).
  double WeightedDegree(NodeId v) const { return wdeg_[v]; }

  // Total weight of self-loops at v.
  double SelfLoopWeight(NodeId v) const { return self_w_[v]; }

  bool has_self_loops() const { return has_self_loops_; }

  std::size_t MaxDegree() const;
  double MaxWeightedDegree() const;

  // Average degree density rho(G) = w(E) / n (0 for the empty graph).
  double Density() const;

  // Density of the subgraph induced by S: w(E(S)) / |S|.
  // `in_set` must have size num_nodes(). Returns 0 for empty S.
  double InducedDensity(std::span<const char> in_set) const;

  // Total weight of edges fully inside S (self-loop at v counts iff v in S).
  double InducedEdgeWeight(std::span<const char> in_set) const;

  // True if the graph has no self-loops and no parallel edges.
  bool IsSimple() const;

  std::string DebugString(std::size_t max_edges = 32) const;

 private:
  friend class GraphBuilder;

  NodeId n_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::size_t> offsets_;  // size n_+1
  std::vector<AdjEntry> adj_;
  std::vector<double> wdeg_;
  std::vector<double> self_w_;
  double total_weight_ = 0.0;
  bool has_self_loops_ = false;
};

// Induced subgraph on the nodes with in_set[v] != 0. Nodes are re-indexed
// densely in increasing order of original id; `old_to_new` (optional out)
// receives the mapping (kInvalidNode for dropped nodes). Edges leaving the
// set are dropped (this is G[S], not a quotient).
Graph InducedSubgraph(const Graph& g, std::span<const char> in_set,
                      std::vector<NodeId>* old_to_new = nullptr);

}  // namespace kcore::graph
