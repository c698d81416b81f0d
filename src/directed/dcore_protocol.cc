#include "directed/dcore_protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "core/update.h"
#include "util/logging.h"
#include "util/wire.h"

namespace kcore::directed {

using distsim::NodeContext;
using graph::AdjEntry;

namespace {

std::uint32_t AdjIndexOf(const graph::Graph& g, NodeId v, NodeId u) {
  const auto nbrs = g.Neighbors(v);
  const auto it =
      std::lower_bound(nbrs.begin(), nbrs.end(), u,
                       [](const AdjEntry& a, NodeId id) { return a.to < id; });
  KCORE_CHECK_MSG(it != nbrs.end() && it->to == u,
                  "arc endpoint " << u << " not adjacent to " << v
                                  << " in the support substrate");
  return static_cast<std::uint32_t>(it - nbrs.begin());
}

graph::Graph BuildSupportSubstrate(const Digraph& g) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(g.num_arcs());
  for (const Arc& a : g.arcs()) {
    KCORE_CHECK_MSG(a.from != a.to,
                    "distributed d-core runs on self-arc-free digraphs");
    pairs.emplace_back(std::min(a.from, a.to), std::max(a.from, a.to));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  graph::GraphBuilder b(g.num_nodes());
  b.Reserve(pairs.size());
  for (const auto& [u, v] : pairs) b.AddEdge(u, v, 1.0);
  return std::move(b).Build();
}

}  // namespace

DCoreProtocol::DCoreProtocol(const Digraph& g, double l)
    : digraph_(g), l_(l), substrate_(BuildSupportSubstrate(g)) {
  const NodeId n = g.num_nodes();
  out_arcs_.resize(n);
  in_arcs_.resize(n);
  b_.assign(n, std::numeric_limits<double>::infinity());
  active_.assign(n, 1);
  order_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto out = g.OutNeighbors(v);
    out_arcs_[v].reserve(out.size());
    for (const ArcEntry& a : out) {
      out_arcs_[v].push_back({AdjIndexOf(substrate_, v, a.node), a.w});
    }
    const auto in = g.InNeighbors(v);
    in_arcs_[v].reserve(in.size());
    for (const ArcEntry& a : in) {
      in_arcs_[v].push_back({AdjIndexOf(substrate_, v, a.node), a.w});
    }
    order_[v].resize(in.size());
    std::iota(order_[v].begin(), order_[v].end(), 0u);
  }
}

void DCoreProtocol::Init(NodeContext& ctx) {
  // Every node starts active with b = +inf; broadcast it (round-1
  // inputs).
  ctx.Broadcast({b_[ctx.id()]});
}

void DCoreProtocol::Round(NodeContext& ctx) {
  const NodeId v = ctx.id();

  // Out-degree constraint: weight to out-neighbors that broadcast last
  // round (= were active through the previous round).
  double od = 0.0;
  for (const ArcRef& a : out_arcs_[v]) {
    if (ctx.NeighborBroadcast(a.adj)) od += a.w;
  }
  if (od < l_) {
    active_[v] = 0;
    b_[v] = 0.0;
    ctx.Halt();  // no broadcast: in-neighbors read 0 from now on
    return;
  }

  // Surviving-number update on in-neighbors: a silent source counts as
  // value 0 (it deactivated in an earlier round).
  const core::UpdateInputs in = core::ThreadUpdateInputs(in_arcs_[v].size());
  for (std::size_t i = 0; i < in_arcs_[v].size(); ++i) {
    const distsim::BroadcastView p = ctx.NeighborBroadcast(in_arcs_[v][i].adj);
    in.values[i] = (p && !p.empty()) ? p[0] : 0.0;
    in.weights[i] = in_arcs_[v][i].w;
  }
  b_[v] = std::min(b_[v], core::UpdateStep(in.values, in.weights, order_[v]));
  ctx.Broadcast({b_[v]});
}

void DCoreProtocol::SaveNodeState(NodeId v, util::WireAppender& out) const {
  out.Double(b_[v]);
  out.Varint(static_cast<std::uint64_t>(active_[v]));
  out.Varint(order_[v].size());
  for (std::uint32_t i : order_[v]) out.Fixed32(i);
}

void DCoreProtocol::LoadNodeState(NodeId v, util::WireReader& in) {
  // The order's length is v's in-degree; any other length, or a short
  // blob, fails the reader (the caller's block-length check reports it).
  std::uint64_t active = 0, len = 0;
  if (!in.TryDouble(&b_[v]) || !in.TryVarint(&active) ||
      !in.TryVarint(&len)) {
    return;
  }
  active_[v] = static_cast<char>(active);
  if (len != order_[v].size()) {
    in.Fail();
    return;
  }
  for (std::uint32_t& i : order_[v]) {
    if (!in.TryFixed32(&i)) return;
  }
}

DCoreElimResult RunDCoreElimination(const Digraph& g, double l,
                                    const DCoreElimOptions& opts) {
  KCORE_CHECK_MSG(opts.rounds >= 1, "need at least one round");
  DCoreProtocol proto(g, l);
  distsim::Engine engine(proto.substrate(), opts.num_threads);
  engine.SetSeed(opts.seed);
  engine.SetShardBalancing(opts.balance_shards);
  engine.SetRebalanceInterval(opts.rebalance_rounds);
  engine.SetTransport(distsim::MakeTransport(opts.transport));
  engine.SetRankCount(opts.ranks);
  engine.SetPerRankCompute(opts.per_rank_compute);
  engine.Run(proto, opts.rounds);
  engine.FetchRankState(proto);  // no-op unless per-rank compute
  DCoreElimResult out;
  out.b = proto.b();
  out.active = proto.active();
  // The sequential oracle maps never-updated nodes to their in-degree;
  // with rounds >= 1 every b is finite, but mirror it for faithfulness.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (std::isinf(out.b[v])) out.b[v] = g.InDegree(v);
  }
  out.history = engine.history();
  out.totals = engine.totals();
  out.rounds = opts.rounds;
  return out;
}

}  // namespace kcore::directed
