// Directed surviving-number iteration on the round simulator.
//
// DCoreSurvivingNumbers (dcore.h) iterates the digraph transplant of
// Algorithm 2 in a hand-rolled synchronous loop: each round a node first
// checks the out-degree constraint (weighted out-degree to still-active
// nodes >= l, else it deactivates with b = 0) and then recomputes its
// surviving number from its in-neighbors' values. This module ports the
// iteration onto distsim::Engine over the SUPPORT substrate — the simple
// undirected graph connecting u and v iff some arc joins them either way
// — so threads, shard balancing, transports, ranks, and byte accounting
// apply unchanged.
//
// Message shape: an active node broadcasts one double per round (its
// surviving number). Absence of a broadcast IS the activity bit: a node
// that fails the out-degree constraint halts without broadcasting, and
// the engine's double-buffer drops its stale value the next round —
// out-neighbors stop counting its weight, in-"neighbors" read its
// contribution as 0. The broadcast therefore carries the in/out-degree
// pair's worth of information in one value + one presence bit.
//
// The sequential loop stays around as the bit-exact oracle: for every
// digraph, l, and round count, RunDCoreElimination(g, l, opts).b ==
// DCoreSurvivingNumbers(g, l, opts.rounds) bit for bit, at any thread
// count, under every transport, and at any rank count (tested).
#pragma once

#include <cstdint>
#include <vector>

#include "directed/digraph.h"
#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/graph.h"

namespace kcore::directed {

struct DCoreElimOptions {
  // Number of synchronous rounds T (>= 1).
  int rounds = 0;
  // Worker threads for the simulator.
  int num_threads = 1;
  // Degree-weighted shard balancing over the substrate graph.
  bool balance_shards = false;
  // With balancing on, rebuild shard bounds every this many rounds.
  int rebalance_rounds = 0;
  // Exchange backend for the simulator's collect phase.
  distsim::TransportKind transport = distsim::TransportKind::kSharedMemory;
  // Rank topology for multi-process transports.
  int ranks = 1;
  // Master seed for the engine's per-node RNG streams.
  std::uint64_t seed = distsim::kDefaultMasterSeed;
  // Run the compute phase inside the transport's rank workers.
  bool per_rank_compute = false;
};

// The iteration as a distsim::Protocol over the support substrate.
class DCoreProtocol : public distsim::Protocol {
 public:
  // The digraph must be self-arc free (the substrate must be a simple
  // graph for the simulator).
  DCoreProtocol(const Digraph& g, double l);

  void Init(distsim::NodeContext& ctx) override;
  void Round(distsim::NodeContext& ctx) override;

  // Per-rank compute: a node's state is its surviving number, its
  // activity flag, and its tie-break permutation; the arc-to-adjacency
  // index tables are constructor-built read-only structure.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(graph::NodeId v, util::WireAppender& out) const override;
  void LoadNodeState(graph::NodeId v, util::WireReader& in) override;

  // The support graph the engine must run on. The protocol must outlive
  // the engine.
  const graph::Graph& substrate() const { return substrate_; }

  const std::vector<double>& b() const { return b_; }
  const std::vector<char>& active() const { return active_; }

 private:
  // An arc endpoint resolved to its substrate adjacency index.
  struct ArcRef {
    std::uint32_t adj = 0;  // index into substrate Neighbors(v)
    double w = 1.0;
  };

  const Digraph& digraph_;
  double l_;
  graph::Graph substrate_;
  // Aligned with g.OutNeighbors(v) / g.InNeighbors(v) entry order (the
  // tie-break permutation indexes in-arc positions, so the order must
  // match the sequential oracle's exactly).
  std::vector<std::vector<ArcRef>> out_arcs_;
  std::vector<std::vector<ArcRef>> in_arcs_;
  // Mutable per-node state.
  std::vector<double> b_;
  std::vector<char> active_;
  std::vector<std::vector<std::uint32_t>> order_;
};

struct DCoreElimResult {
  // Surviving numbers after opts.rounds rounds; bit-identical to
  // DCoreSurvivingNumbers(g, l, opts.rounds).
  std::vector<double> b;
  // 1 iff the node still met the out-degree constraint at the end.
  std::vector<char> active;
  std::vector<distsim::RoundStats> history;
  distsim::Totals totals;
  int rounds = 0;
};

// Drives the protocol for opts.rounds rounds on g with out-degree
// requirement l.
DCoreElimResult RunDCoreElimination(const Digraph& g, double l,
                                    const DCoreElimOptions& opts);

}  // namespace kcore::directed
