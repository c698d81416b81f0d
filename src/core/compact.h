// Algorithm 2 of the paper: the compact elimination procedure.
//
// Runs the single-threshold elimination for ALL thresholds in parallel,
// compactly: node v only remembers the largest threshold b_v for which it
// still survives (the surviving number beta^T(v), Definition III.1) and
// broadcasts one number per round. The theorems:
//   * Lemma III.2:  beta^T(v) >= c(v) for every T;
//   * Lemma III.3:  beta^T(v) <= 2 n^{1/T} r(v);
//   * Theorem I.1:  T = ceil(log n / log(gamma/2)) gives gamma-approx
//     (2(1+eps) with T = ceil(log_{1+eps} n)).
//
// With Lambda = powers of (1+lambda) (lambda > 0), b_v is rounded down
// after every update, shrinking the number of distinct broadcast values
// (Corollary III.10: r(v)/(1+lambda) <= b_v <= 2(1+eps) r(v)); the
// auxiliary orientation sets N_v require Lambda = R (lambda = 0).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/graph.h"

namespace kcore::core {

struct CompactOptions {
  // Number of rounds T. Use RoundsForGamma / RoundsForEpsilon helpers.
  int rounds = 0;
  // Lambda-discretization parameter (0 = exact reals).
  double lambda = 0.0;
  // Maintain the auxiliary in-neighbor sets N_v (requires lambda == 0).
  bool track_orientation = false;
  // Record b after every round (for convergence experiments).
  bool record_rounds = false;
  // Ablation knob: when false, Update re-sorts neighbors from the id
  // order every round instead of stable-sorting the persistent
  // permutation. Lemma III.11's invariant-2 proof NEEDS the stateful
  // order; the naive variant can leave edges unclaimed (bench_ablation
  // demonstrates it). Leave true outside experiments.
  bool stateful_tiebreak = true;
  // Worker threads for the simulator.
  int num_threads = 1;
  // Degree-weighted shard balancing for the round scheduler (see
  // distsim::Engine::SetShardBalancing) — worth turning on for
  // heavy-tailed graphs; results are bit-identical either way.
  bool balance_shards = false;
  // With balancing on, rebuild shard boundaries from the halted census
  // every this many rounds (0 = partition once at Start).
  int rebalance_rounds = 0;
  // Message transport for the simulator's collect phase (see
  // distsim/transport.h): the zero-copy shared-memory path, or the
  // serialized pack/alltoallv/unpack path that reports real wire volume.
  // Results are bit-identical either way.
  distsim::TransportKind transport = distsim::TransportKind::kSharedMemory;
  // Rank topology for multi-process transports (see
  // distsim::Engine::SetRankCount): the number of worker processes the
  // process transport forks / node-ownership ranges the exchange is
  // segmented by. In-process transports ignore it; results are
  // bit-identical at any rank count.
  int ranks = 1;
  // Master seed for the engine's per-node RNG streams. Algorithm 2 itself
  // is deterministic; the seed exists so randomized protocol variants
  // layered on this path (and the engine they share) stay replayable.
  std::uint64_t seed = distsim::kDefaultMasterSeed;
  // Run the compute phase inside the transport's rank workers
  // (distsim::Engine::SetPerRankCompute) — requires a process transport
  // and ranks >= 1, and is incompatible with record_rounds (b lives in
  // the workers between rounds). Results stay bit-identical.
  bool per_rank_compute = false;
};

// T = ceil(log n / log(gamma/2)) for gamma > 2 (Theorem III.5).
int RoundsForGamma(graph::NodeId n, double gamma);
// T = ceil(log_{1+eps} n) for eps > 0 (Theorem I.1).
int RoundsForEpsilon(graph::NodeId n, double eps);

class CompactElimination : public distsim::Protocol {
 public:
  CompactElimination(const graph::Graph& g, const CompactOptions& opts);

  void Init(distsim::NodeContext& ctx) override;
  void Round(distsim::NodeContext& ctx) override;

  // Per-rank compute support: a node's state is its surviving number,
  // its last-change round, its tie-break permutation, and (when
  // orientation is tracked) its in-neighbor set.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(graph::NodeId v, util::WireAppender& out) const override;
  void LoadNodeState(graph::NodeId v, util::WireReader& in) override;

  // Current surviving numbers b_v.
  const std::vector<double>& b() const { return b_; }
  // N_v as indices into g.Neighbors(v) (valid iff track_orientation).
  const std::vector<std::vector<std::uint32_t>>& in_sets() const {
    return in_sets_;
  }
  // Round in which v's b last changed (0 if never after init).
  const std::vector<int>& last_change_round() const { return last_change_; }

 private:
  // v's tie-break order: its slice of order_.
  std::span<std::uint32_t> Order(graph::NodeId v) {
    return {order_.data() + graph_.AdjOffset(v), graph_.Degree(v)};
  }
  std::span<const std::uint32_t> Order(graph::NodeId v) const {
    return {order_.data() + graph_.AdjOffset(v), graph_.Degree(v)};
  }

  const graph::Graph& graph_;
  CompactOptions opts_;
  std::vector<double> b_;
  // Persistent neighbor permutations for the stable tie-breaking, one
  // flat array laid out like the adjacency (graph::Graph::AdjOffset).
  std::vector<std::uint32_t> order_;
  std::vector<std::vector<std::uint32_t>> in_sets_;
  std::vector<int> last_change_;
  // The reserve for each thread's Update scratch (ThreadUpdateInputs).
  std::size_t max_degree_ = 0;
};

struct CompactResult {
  // beta^T(v) (rounded into Lambda if lambda > 0).
  std::vector<double> b;
  // N_v as adjacency indices (empty unless track_orientation).
  std::vector<std::vector<std::uint32_t>> in_sets;
  // b after each round (only if record_rounds): b_rounds[t][v], t=0..T.
  std::vector<std::vector<double>> b_rounds;
  std::vector<distsim::RoundStats> history;
  distsim::Totals totals;
  int rounds = 0;
};

// Drives Algorithm 2 for opts.rounds rounds on g (self-loop free).
CompactResult RunCompactElimination(const graph::Graph& g,
                                    const CompactOptions& opts);

}  // namespace kcore::core
