#include "core/orientation.h"

#include <algorithm>

#include "util/logging.h"

namespace kcore::core {

using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

DistOrientationResult RunDistributedOrientation(const Graph& g, int rounds,
                                                ConflictRule rule,
                                                CompactOptions engine) {
  engine.rounds = rounds;
  engine.lambda = 0.0;
  engine.track_orientation = true;
  engine.record_rounds = false;
  CompactResult compact = RunCompactElimination(g, engine);

  DistOrientationResult out;
  out.b = compact.b;
  out.totals = compact.totals;
  out.rounds = rounds + 1;

  // Claim census: claimed_by[e] in {none, u, v, both}. N_v holds adjacency
  // indices; the adjacency entry carries the global edge id.
  const std::size_t m = g.num_edges();
  std::vector<std::uint8_t> claim_u(m, 0);
  std::vector<std::uint8_t> claim_v(m, 0);
  std::vector<double> claimed_load(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.Neighbors(v);
    for (std::uint32_t idx : compact.in_sets[v]) {
      const EdgeId e = nbrs[idx].edge;
      // Edge e is oriented toward v ("u in N_v" means {u,v} assigned to v).
      if (g.edge(e).u == v) {
        claim_u[e] = 1;
      } else {
        claim_v[e] = 1;
      }
      claimed_load[v] += nbrs[idx].w;
    }
  }

  // The extra round: every node tells each claimed neighbor its load; an
  // edge claimed twice goes to the endpoint the rule picks. Both endpoints
  // know both loads after the exchange, so the rule is locally computable.
  // (We evaluate it centrally here; message cost is <= one payload per
  // claimed edge, accounted below.)
  std::vector<NodeId> owner(m);
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& edge = g.edge(e);
    const bool by_u = claim_u[e] != 0;
    const bool by_v = claim_v[e] != 0;
    if (by_u && by_v) {
      ++out.conflicts;
      switch (rule) {
        case ConflictRule::kLowerLoad: {
          if (claimed_load[edge.u] < claimed_load[edge.v]) {
            owner[e] = edge.u;
          } else if (claimed_load[edge.v] < claimed_load[edge.u]) {
            owner[e] = edge.v;
          } else {
            owner[e] = std::max(edge.u, edge.v);
          }
          break;
        }
        case ConflictRule::kHigherId:
          owner[e] = std::max(edge.u, edge.v);
          break;
      }
    } else if (by_u) {
      owner[e] = edge.u;
    } else if (by_v) {
      owner[e] = edge.v;
    } else {
      // Impossible by Lemma III.11; counted so tests can assert.
      ++out.uncovered;
      owner[e] = std::max(edge.u, edge.v);
    }
  }

  // Account the resolution round's traffic: one 1-entry message per
  // claimed edge-endpoint pair.
  out.totals.rounds += 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.totals.messages += compact.in_sets[v].size();
    out.totals.entries += compact.in_sets[v].size();
  }

  out.orientation = seq::MakeOrientation(g, std::move(owner));
  return out;
}

}  // namespace kcore::core
