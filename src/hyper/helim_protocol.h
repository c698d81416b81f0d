// Hypergraph compact elimination on the round simulator.
//
// HyperSurvivingNumbers (helim.h) iterates the rank-r analogue of
// Algorithm 2 in a hand-rolled synchronous loop. This module ports the
// same iteration onto distsim::Engine so threads, shard balancing,
// transports, ranks, and byte accounting apply unchanged: each node
// broadcasts one number per round (its surviving number b_v) over the
// CLIQUE-EXPANSION substrate — the simple graph connecting every pair of
// hyperedge co-members — and recomputes b_v from its co-members'
// broadcasts: the value a hyperedge contributes is the min over its OTHER
// members' previous surviving numbers (the edge survives threshold x iff
// every member does), fed through the Algorithm 3 update with the
// persistent stable tie-break order.
//
// The sequential loop stays around as the bit-exact oracle: for every
// hypergraph and round count, RunHyperElimination(h, opts).b ==
// HyperSurvivingNumbers(h, opts.rounds) bit for bit, at any thread count,
// under every transport, and at any rank count (tested).
#pragma once

#include <cstdint>
#include <vector>

#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/graph.h"
#include "hyper/hypergraph.h"

namespace kcore::hyper {

struct HyperElimOptions {
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
  // Master seed for the engine's per-node RNG streams (the protocol is
  // deterministic; the seed keeps the engine replayable).
  std::uint64_t seed = distsim::kDefaultMasterSeed;
  // Run the compute phase inside the transport's rank workers.
  bool per_rank_compute = false;
};

// The elimination as a distsim::Protocol over the clique-expansion
// substrate. Message shape: one double per broadcast (a hyperedge
// incidence update — the receiver re-derives every incident edge's
// survival from the co-member values).
class HyperEliminationProtocol : public distsim::Protocol {
 public:
  explicit HyperEliminationProtocol(const Hypergraph& h);

  void Init(distsim::NodeContext& ctx) override;
  void Round(distsim::NodeContext& ctx) override;

  // Per-rank compute: a node's state is its surviving number and its
  // tie-break permutation; the incidence tables are constructor-built
  // read-only structure.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(graph::NodeId v, util::WireAppender& out) const override;
  void LoadNodeState(graph::NodeId v, util::WireReader& in) override;

  // The clique-expansion graph the engine must run on (co-member pairs,
  // deduplicated, unit weight). The protocol must outlive the engine.
  const graph::Graph& substrate() const { return substrate_; }

  // Current surviving numbers.
  const std::vector<double>& b() const { return b_; }

 private:
  const Hypergraph& hyper_;
  graph::Graph substrate_;
  // Flattened incidence tables, aligned with h.IncidentEdges(v):
  // member_idx_[v][member_off_[v][i] .. member_off_[v][i+1]) are the
  // substrate adjacency indices of incident edge i's OTHER members
  // (empty range for a singleton edge), weights_[v][i] its weight.
  std::vector<std::vector<std::uint32_t>> member_idx_;
  std::vector<std::vector<std::uint32_t>> member_off_;
  std::vector<std::vector<double>> weights_;
  // Mutable per-node state.
  std::vector<double> b_;
  std::vector<std::vector<std::uint32_t>> order_;
};

struct HyperElimResult {
  // Surviving numbers after opts.rounds rounds; bit-identical to
  // HyperSurvivingNumbers(h, opts.rounds).
  std::vector<double> b;
  std::vector<distsim::RoundStats> history;
  distsim::Totals totals;
  int rounds = 0;
};

// Drives the protocol for opts.rounds rounds on h.
HyperElimResult RunHyperElimination(const Hypergraph& h,
                                    const HyperElimOptions& opts);

}  // namespace kcore::hyper
