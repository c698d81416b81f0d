// Two-phase orientation baseline (Barenboim–Elkin-flavoured, Section I.A).
//
// Barenboim & Elkin's forest-decomposition peeling assumes the maximum
// arboricity is globally known; learning it costs Omega(D) rounds. The
// paper observes that substituting a first phase that computes surviving
// numbers (as in Theorem I.1) and then running the peeling phase "as if
// the arboricity were known" degrades the guarantee to 2(2+eps) — worse
// than the primal-dual 2(1+eps) of Algorithm 2. This module implements
// that two-phase scheme as the comparison baseline:
//
//   Phase 1: compact elimination, T rounds -> b_v (local density bound).
//   Phase 2: H-partition peeling — a node still active whose active
//            weighted degree is at most (1 + eps/2) * b_v peels and takes
//            ownership of all its still-active incident edges (ties
//            between nodes peeling in the same round go to the smaller
//            id). Peeling stops after max_phase2_rounds; leftover edges
//            (rare; only adversarial instances) are force-assigned to the
//            endpoint with the larger b.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compact.h"
#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/graph.h"
#include "seq/orientation_exact.h"

namespace kcore::core {

struct TwoPhaseResult {
  seq::Orientation orientation;
  std::vector<double> b;     // phase-1 surviving numbers
  int phase1_rounds = 0;
  int phase2_rounds = 0;     // rounds actually used by the peeling
  std::size_t forced_edges = 0;  // assigned by the fallback rule
  // Per-round engine stats of each phase (round 0 = the phase's Init).
  std::vector<distsim::RoundStats> phase1_history;
  std::vector<distsim::RoundStats> phase2_history;
  distsim::Totals totals;
};

// eps > 0 controls the peeling slack. max_phase2_rounds < 0 defaults to
// 4 * ceil(log_{1+eps/2} n) + 8. `seed` feeds both phases' engines
// (per-node RNG streams; see distsim::Engine::SetSeed); `balance_shards`
// turns on degree-weighted shard balancing in both phases (bit-identical
// results, better thread utilization on skewed graphs); `transport`
// picks both phases' message transport (bit-identical results for every
// transport — only the wire accounting differs); `ranks` sets the rank
// topology for multi-process transports in both phases (see
// distsim::Engine::SetRankCount — ignored by in-process transports);
// `per_rank_compute` runs both phases' compute inside the transport's
// rank workers (distsim::Engine::SetPerRankCompute, process transport
// only — results stay bit-identical).
TwoPhaseResult RunTwoPhaseOrientation(
    const graph::Graph& g, int phase1_rounds, double eps,
    int max_phase2_rounds = -1, int num_threads = 1,
    std::uint64_t seed = distsim::kDefaultMasterSeed,
    bool balance_shards = false,
    distsim::TransportKind transport = distsim::TransportKind::kSharedMemory,
    int ranks = 1, bool per_rank_compute = false);

// Phase 2's peeling protocol on g with the given per-node thresholds,
// for tests of its Save/LoadNodeState.
std::unique_ptr<distsim::Protocol> MakePeelingProtocolForTesting(
    const graph::Graph& g, std::vector<double> thresholds);

}  // namespace kcore::core
