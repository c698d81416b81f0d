#include "hyper/helim_protocol.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/update.h"
#include "util/logging.h"
#include "util/wire.h"

namespace kcore::hyper {

using distsim::NodeContext;
using graph::AdjEntry;

namespace {

// Substrate adjacency index of neighbor `u` in the id-sorted adjacency
// of `v` (the co-member is adjacent by construction).
std::uint32_t AdjIndexOf(const graph::Graph& g, NodeId v, NodeId u) {
  const auto nbrs = g.Neighbors(v);
  const auto it =
      std::lower_bound(nbrs.begin(), nbrs.end(), u,
                       [](const AdjEntry& a, NodeId id) { return a.to < id; });
  KCORE_CHECK_MSG(it != nbrs.end() && it->to == u,
                  "co-member " << u << " not adjacent to " << v
                               << " in the clique expansion");
  return static_cast<std::uint32_t>(it - nbrs.begin());
}

graph::Graph BuildCliqueExpansion(const Hypergraph& h) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const HEdge& e : h.edges()) {
    for (std::size_t i = 0; i < e.nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < e.nodes.size(); ++j) {
        pairs.emplace_back(e.nodes[i], e.nodes[j]);  // members are sorted
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  graph::GraphBuilder b(h.num_nodes());
  b.Reserve(pairs.size());
  for (const auto& [u, v] : pairs) b.AddEdge(u, v, 1.0);
  return std::move(b).Build();
}

}  // namespace

HyperEliminationProtocol::HyperEliminationProtocol(const Hypergraph& h)
    : hyper_(h), substrate_(BuildCliqueExpansion(h)) {
  const NodeId n = h.num_nodes();
  member_idx_.resize(n);
  member_off_.resize(n);
  weights_.resize(n);
  b_.assign(n, std::numeric_limits<double>::infinity());
  order_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto inc = h.IncidentEdges(v);
    member_off_[v].reserve(inc.size() + 1);
    member_off_[v].push_back(0);
    weights_[v].reserve(inc.size());
    for (EdgeId e : inc) {
      const HEdge& edge = h.edge(e);
      for (NodeId u : edge.nodes) {
        if (u != v) member_idx_[v].push_back(AdjIndexOf(substrate_, v, u));
      }
      member_off_[v].push_back(
          static_cast<std::uint32_t>(member_idx_[v].size()));
      weights_[v].push_back(edge.w);
    }
    order_[v].resize(inc.size());
    std::iota(order_[v].begin(), order_[v].end(), 0u);
  }
}

void HyperEliminationProtocol::Init(NodeContext& ctx) {
  // b_v <- +inf, broadcast it (round-1 inputs).
  ctx.Broadcast({b_[ctx.id()]});
}

void HyperEliminationProtocol::Round(NodeContext& ctx) {
  const NodeId v = ctx.id();
  const std::size_t k = weights_[v].size();

  if (k == 0) {
    // No incident edges: degree 0 in every survivor set.
    b_[v] = 0.0;
    ctx.Broadcast({0.0});
    return;
  }

  // Per incident edge: min over the OTHER members' previous surviving
  // numbers (singleton edge: empty range, +inf — it always survives).
  // Every node broadcasts every round, so a missing one is a bug.
  const std::span<double> values = core::ThreadUpdateInputs(k).values;
  for (std::size_t i = 0; i < k; ++i) {
    double mn = std::numeric_limits<double>::infinity();
    for (std::uint32_t j = member_off_[v][i]; j < member_off_[v][i + 1];
         ++j) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(member_idx_[v][j]);
      KCORE_CHECK_MSG(p && !p.empty(),
                      "missing broadcast from co-member of " << v);
      mn = std::min(mn, p[0]);
    }
    values[i] = mn;
  }
  b_[v] = core::UpdateStep(values, weights_[v], order_[v]);
  ctx.Broadcast({b_[v]});
}

void HyperEliminationProtocol::SaveNodeState(NodeId v,
                                             util::WireAppender& out) const {
  out.Double(b_[v]);
  out.Varint(order_[v].size());
  for (std::uint32_t i : order_[v]) out.Fixed32(i);
}

void HyperEliminationProtocol::LoadNodeState(NodeId v, util::WireReader& in) {
  // The order's length is v's hyperedge count; any other length, or a
  // short blob, fails the reader (the caller's block-length check
  // reports it).
  std::uint64_t len = 0;
  if (!in.TryDouble(&b_[v]) || !in.TryVarint(&len)) return;
  if (len != order_[v].size()) {
    in.Fail();
    return;
  }
  for (std::uint32_t& i : order_[v]) {
    if (!in.TryFixed32(&i)) return;
  }
}

HyperElimResult RunHyperElimination(const Hypergraph& h,
                                    const HyperElimOptions& opts) {
  KCORE_CHECK_MSG(opts.rounds >= 1, "need at least one round");
  HyperEliminationProtocol proto(h);
  distsim::Engine engine(proto.substrate(), opts.num_threads);
  engine.SetSeed(opts.seed);
  engine.SetShardBalancing(opts.balance_shards);
  engine.SetRebalanceInterval(opts.rebalance_rounds);
  engine.SetTransport(distsim::MakeTransport(opts.transport));
  engine.SetRankCount(opts.ranks);
  engine.SetPerRankCompute(opts.per_rank_compute);
  engine.Run(proto, opts.rounds);
  engine.FetchRankState(proto);  // no-op unless per-rank compute
  HyperElimResult out;
  out.b = proto.b();
  out.history = engine.history();
  out.totals = engine.totals();
  out.rounds = opts.rounds;
  return out;
}

}  // namespace kcore::hyper
