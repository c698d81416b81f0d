#include "core/elimination.h"

#include "util/logging.h"

namespace kcore::core {

using distsim::NodeContext;
using graph::NodeId;

SingleThresholdElimination::SingleThresholdElimination(NodeId n,
                                                       double threshold)
    : threshold_(threshold), state_(n, 1) {}

void SingleThresholdElimination::Init(NodeContext& ctx) {
  // Broadcast the initial "present" state (round 0 stage).
  ctx.Broadcast({1.0});
}

void SingleThresholdElimination::Round(NodeContext& ctx) {
  const NodeId v = ctx.id();
  if (!state_[v]) return;  // removed nodes no longer participate
  // Weighted degree among neighbors that were present last round.
  double deg = 0.0;
  const auto nbrs = ctx.neighbors();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
    if (p && !p.empty() && p[0] >= 0.5) deg += nbrs[i].w;
  }
  if (deg < threshold_) {
    state_[v] = 0;
    ctx.Halt();  // absence of a broadcast reads as sigma = 0
    return;
  }
  ctx.Broadcast({1.0});
}

EliminationRun RunSingleThreshold(const graph::Graph& g, double threshold,
                                  int rounds, int num_threads) {
  KCORE_CHECK_MSG(!g.has_self_loops(),
                  "distributed protocols run on self-loop-free graphs");
  distsim::Engine engine(g, num_threads);
  SingleThresholdElimination proto(g.num_nodes(), threshold);
  EliminationRun out;
  engine.Start(proto);
  const auto count_alive = [&proto] {
    std::size_t c = 0;
    for (char s : proto.states()) c += s ? 1 : 0;
    return c;
  };
  out.alive_per_round.push_back(count_alive());  // |A_0| = n
  for (int t = 0; t < rounds; ++t) {
    engine.Step(proto);
    out.alive_per_round.push_back(count_alive());
  }
  out.surviving = proto.states();
  out.totals = engine.totals();
  return out;
}

}  // namespace kcore::core
