#include "core/two_phase.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/wire.h"

namespace kcore::core {
namespace {

using distsim::NodeContext;
using graph::Edge;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// Phase 2: synchronous peeling. Nodes broadcast "still active"; an active
// node whose active incident weight falls to at most its threshold peels.
class PeelingProtocol : public distsim::Protocol {
 public:
  PeelingProtocol(const Graph& g, std::vector<double> thresholds)
      : thresholds_(std::move(thresholds)),
        peel_round_(g.num_nodes(), -1) {}

  void Init(NodeContext& ctx) override { ctx.Broadcast({1.0}); }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    if (peel_round_[v] >= 0) return;  // already peeled
    double active_deg = 0.0;
    const auto nbrs = ctx.neighbors();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (p && !p.empty() && p[0] >= 0.5) active_deg += nbrs[i].w;
    }
    if (active_deg <= thresholds_[v]) {
      peel_round_[v] = ctx.round();
      ctx.Halt();
      return;
    }
    ctx.Broadcast({1.0});
  }

  // Round in which v peeled (-1 = never).
  const std::vector<int>& peel_round() const { return peel_round_; }

  // Per-rank compute support. The threshold is immutable after
  // construction (the workers inherit it through the fork), but it rides
  // along anyway so the state blocks are self-contained.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Double(thresholds_[v]);
    out.Fixed64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(peel_round_[v])));
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    std::uint64_t peel = 0;
    if (!in.TryDouble(&thresholds_[v]) || !in.TryFixed64(&peel)) return;
    peel_round_[v] = static_cast<int>(static_cast<std::int64_t>(peel));
  }

 private:
  std::vector<double> thresholds_;
  std::vector<int> peel_round_;
};

}  // namespace

std::unique_ptr<distsim::Protocol> MakePeelingProtocolForTesting(
    const Graph& g, std::vector<double> thresholds) {
  return std::make_unique<PeelingProtocol>(g, std::move(thresholds));
}

TwoPhaseResult RunTwoPhaseOrientation(const Graph& g, int phase1_rounds,
                                      double eps, int max_phase2_rounds,
                                      int num_threads, std::uint64_t seed,
                                      bool balance_shards,
                                      distsim::TransportKind transport,
                                      int ranks, bool per_rank_compute) {
  KCORE_CHECK_MSG(eps > 0.0, "eps must be positive");
  CompactOptions copts;
  copts.rounds = phase1_rounds;
  copts.num_threads = num_threads;
  copts.seed = seed;
  copts.balance_shards = balance_shards;
  copts.transport = transport;
  copts.ranks = ranks;
  copts.per_rank_compute = per_rank_compute;
  CompactResult compact = RunCompactElimination(g, copts);

  TwoPhaseResult out;
  out.b = compact.b;
  out.phase1_rounds = phase1_rounds;
  out.phase1_history = std::move(compact.history);
  out.totals = compact.totals;

  if (max_phase2_rounds < 0) {
    const double base = std::log1p(eps / 2.0);
    max_phase2_rounds =
        8 + 4 * std::max(1, static_cast<int>(std::ceil(
                                 std::log(std::max<double>(
                                     2.0, g.num_nodes())) /
                                 base)));
  }

  // Peeling thresholds: (1 + eps/2) * b_v = (2 + eps) * (b_v / 2), i.e.
  // the BE threshold with the local density estimate b_v / 2 >= r(v)/2.
  std::vector<double> thresholds(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    thresholds[v] = (1.0 + eps / 2.0) * compact.b[v];
  }
  PeelingProtocol peel(g, std::move(thresholds));
  distsim::Engine engine(g, num_threads);
  engine.SetSeed(seed);
  engine.SetShardBalancing(balance_shards);
  engine.SetTransport(distsim::MakeTransport(transport));
  engine.SetRankCount(ranks);
  engine.SetPerRankCompute(per_rank_compute);
  engine.Start(peel);
  int rounds = 0;
  while (rounds < max_phase2_rounds) {
    engine.Step(peel);
    ++rounds;
    if (engine.num_halted() == g.num_nodes()) break;
  }
  engine.FetchRankState(peel);  // no-op unless per-rank compute
  out.phase2_rounds = rounds;
  out.phase2_history = engine.history();
  {
    const distsim::Totals t = engine.totals();
    out.totals.rounds += t.rounds;
    out.totals.messages += t.messages;
    out.totals.entries += t.entries;
    out.totals.bytes_sent += t.bytes_sent;
    out.totals.bytes_received += t.bytes_received;
    out.totals.bcast_bytes_sent += t.bcast_bytes_sent;
    out.totals.bcast_bytes_received += t.bcast_bytes_received;
    out.totals.bcast_bytes_per_neighbor += t.bcast_bytes_per_neighbor;
  }

  // Edge assignment from peel rounds: first peeler takes the edge; same
  // round -> smaller id; nobody peeled -> larger b (tie smaller id).
  const auto& pr = peel.peel_round();
  std::vector<NodeId> owner(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    const int ru = pr[edge.u] < 0 ? std::numeric_limits<int>::max()
                                  : pr[edge.u];
    const int rv = pr[edge.v] < 0 ? std::numeric_limits<int>::max()
                                  : pr[edge.v];
    if (ru < rv) {
      owner[e] = edge.u;
    } else if (rv < ru) {
      owner[e] = edge.v;
    } else if (ru != std::numeric_limits<int>::max()) {
      owner[e] = std::min(edge.u, edge.v);
    } else {
      ++out.forced_edges;
      if (compact.b[edge.u] != compact.b[edge.v]) {
        owner[e] = compact.b[edge.u] > compact.b[edge.v] ? edge.u : edge.v;
      } else {
        owner[e] = std::min(edge.u, edge.v);
      }
    }
  }
  out.orientation = seq::MakeOrientation(g, std::move(owner));
  return out;
}

}  // namespace kcore::core
