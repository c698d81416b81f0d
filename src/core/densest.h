// Distributed (weak) densest subset — Section IV of the paper
// (Definition IV.1, Algorithms 4, 5, 6, Theorem I.3).
//
// Four phases, each a protocol on the round simulator:
//   Phase 1  Algorithm 2 for T rounds: every node learns b_v ~ beta^T(v).
//   Phase 2  Algorithm 4: BFS forest. Each node adopts the largest
//            (b_u, u) tuple seen within T hops (global ordering: larger b
//            wins, ties to larger id) and remembers the neighbor it came
//            from as its parent; a request/ack handshake fixes the
//            children lists and orphans nodes whose parent moved on.
//   Phase 3  Algorithm 5: threshold-b_leader elimination restricted to
//            same-leader neighbors, recording per-round survival flags
//            num_v[t] and weighted degrees deg_v[t].
//   Phase 4  Algorithm 6: convergecast of the (num, deg) arrays up each
//            tree; the root picks t* = argmax_t deg'[t] / (2 num'[t]) and
//            floods t* down; survivors of round t* select themselves.
//
// Lemma IV.4 guarantees that in the tree of the globally largest leader
// u*, some prefix A_t has density >= b_{u*} / gamma >= rho* / gamma, so
// the best returned subset is a gamma-approximate densest subset.
//
// Deviation from the paper text: Algorithm 6 line 10 reads
// "if bmax >= bv"; for the top root Lemma IV.4 only guarantees
// bmax >= bv / gamma, so the literal condition would reject even the tree
// the correctness proof relies on. We implement the acceptance test as
// bmax >= bv / gamma (the weakest sound threshold; see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compact.h"
#include "distsim/engine.h"
#include "graph/graph.h"

namespace kcore::core {

struct DensestSubsetOut {
  graph::NodeId leader = graph::kInvalidNode;
  double density = 0.0;  // true density of the subset in G
  std::vector<graph::NodeId> members;
};

struct WeakDensestResult {
  // Per node: the leader of its BFS tree (kInvalidNode for orphans).
  std::vector<graph::NodeId> leader_of;
  // sigma_v: 1 iff the node selected itself into its tree's subset.
  std::vector<char> selected;
  // The returned disjoint collection {S_i}, one per accepting root.
  std::vector<DensestSubsetOut> subsets;
  // max_i rho(S_i).
  double best_density = 0.0;
  // Phase-1 surviving numbers.
  std::vector<double> b;
  int rounds_phase1 = 0;
  int rounds_phase2 = 0;
  int rounds_phase3 = 0;
  int rounds_phase4 = 0;
  int rounds_total = 0;
  distsim::Totals totals;  // summed over all phases
};

struct WeakDensestOptions {
  double gamma = 3.0;     // approximation target, > 2 (gamma = 2(1+eps))
  int T_override = -1;    // > 0 forces the per-phase round count
  int num_threads = 1;
  // Phase-4 message discipline (Algorithm 6, "Optimizing Message Size"):
  // false — each node sends its full (num', deg') arrays to the parent in
  //         one message of 2T+1 words (fewer rounds, big messages);
  // true  — the arrays are PIPELINED one entry pair per round (3 words
  //         per message, CONGEST-compatible, ~T extra rounds).
  // Both produce bit-identical selections (tested).
  bool pipelined_aggregation = false;
  // Engine surface shared by all four phases (see CompactOptions for the
  // field semantics); results are bit-identical under every combination.
  bool balance_shards = false;
  distsim::TransportKind transport = distsim::TransportKind::kSharedMemory;
  int ranks = 1;
  std::uint64_t seed = distsim::kDefaultMasterSeed;
  // Run every phase's compute inside the transport's rank workers — all
  // four phase protocols implement the SaveNodeState/LoadNodeState
  // round-trip, so the forest pointers, per-round survival arrays, and
  // aggregated density ratios all ship over the wire.
  bool per_rank_compute = false;
};

// Runs the full pipeline with approximation target gamma > 2
// (gamma = 2(1+eps)). T_override > 0 forces the round count of each
// phase; otherwise T = RoundsForGamma(n, gamma).
WeakDensestResult RunWeakDensest(const graph::Graph& g, double gamma,
                                 int T_override = -1, int num_threads = 1);

// Full-options variant.
WeakDensestResult RunWeakDensest(const graph::Graph& g,
                                 const WeakDensestOptions& options);

// The pipeline's four distributed phase protocols (BFS forest, tree
// elimination, batch and pipelined aggregation) on g for T rounds, for
// tests of their Save/LoadNodeState: the forest is the one phase 2
// builds from b = degree, and the later phases start from it. The
// protocols read tables the holder owns.
class WeakDensestPhasesForTesting {
 public:
  virtual ~WeakDensestPhasesForTesting() = default;
  std::vector<distsim::Protocol*> protocols;
};
std::unique_ptr<WeakDensestPhasesForTesting> MakeWeakDensestPhasesForTesting(
    const graph::Graph& g, int T);

}  // namespace kcore::core
