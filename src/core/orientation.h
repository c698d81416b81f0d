// Distributed min-max edge orientation (Theorem I.2 / Corollary III.12).
//
// Runs the augmented compact elimination (Algorithm 2 with Lambda = R and
// auxiliary sets N_v maintained by Algorithm 3) for T rounds, then one
// extra communication round resolves edges claimed by both endpoints. The
// invariants of Definition III.7 guarantee:
//   * feasibility — every edge is claimed by at least one endpoint;
//   * quality    — each node's claimed weight is at most b_v = beta^T(v)
//                  <= 2 n^{1/T} rho* (weak LP duality, Section II),
// so the final orientation is a 2 n^{1/T}-approximation.
#pragma once

#include <cstdint>

#include "core/compact.h"
#include "distsim/engine.h"
#include "graph/graph.h"
#include "seq/orientation_exact.h"

namespace kcore::core {

// How an edge claimed by both endpoints is resolved in the extra round.
enum class ConflictRule {
  // Keep it at the endpoint whose claimed load (before resolution) is
  // smaller; ties to the higher id. Both endpoints can evaluate this rule
  // consistently after exchanging their loads in the extra round.
  kLowerLoad,
  // Keep it at the higher-id endpoint.
  kHigherId,
};

struct DistOrientationResult {
  seq::Orientation orientation;
  // Surviving numbers after T rounds (the per-node load certificates).
  std::vector<double> b;
  // Edges that were claimed by both endpoints (resolved by `rule`).
  std::size_t conflicts = 0;
  // Edges claimed by neither endpoint. Lemma III.11 proves this is
  // impossible; the driver counts it anyway and tests assert zero.
  std::size_t uncovered = 0;
  int rounds = 0;  // T + 1 (the resolution round)
  distsim::Totals totals;
};

// Runs the full distributed orientation pipeline on g (self-loop free).
// `engine` carries the simulator settings (threads, shard balancing,
// transport, ranks, per-rank compute, seed); its rounds, lambda,
// track_orientation and record_rounds are overridden here.
DistOrientationResult RunDistributedOrientation(
    const graph::Graph& g, int rounds,
    ConflictRule rule = ConflictRule::kLowerLoad,
    CompactOptions engine = {});

}  // namespace kcore::core
