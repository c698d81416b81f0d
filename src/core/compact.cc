#include "core/compact.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/update.h"
#include "util/logging.h"
#include "util/wire.h"

namespace kcore::core {

using distsim::NodeContext;
using graph::NodeId;

int RoundsForGamma(NodeId n, double gamma) {
  KCORE_CHECK_MSG(gamma > 2.0, "gamma must exceed 2 (Lemma III.13)");
  if (n <= 1) return 1;
  return std::max(
      1, static_cast<int>(std::ceil(std::log(static_cast<double>(n)) /
                                    std::log(gamma / 2.0))));
}

int RoundsForEpsilon(NodeId n, double eps) {
  KCORE_CHECK_MSG(eps > 0.0, "eps must be positive");
  if (n <= 1) return 1;
  return std::max(
      1, static_cast<int>(std::ceil(std::log(static_cast<double>(n)) /
                                    std::log1p(eps))));
}

CompactElimination::CompactElimination(const graph::Graph& g,
                                       const CompactOptions& opts)
    : graph_(g), opts_(opts) {
  KCORE_CHECK_MSG(!g.has_self_loops(),
                  "distributed protocols run on self-loop-free graphs");
  if (opts_.track_orientation) {
    KCORE_CHECK_MSG(opts_.lambda == 0.0,
                    "orientation tracking requires Lambda = R (lambda == 0), "
                    "see Definition III.7");
  }
  const NodeId n = g.num_nodes();
  b_.assign(n, std::numeric_limits<double>::infinity());
  order_.resize(n == 0 ? 0 : g.AdjOffset(n));
  last_change_.assign(n, 0);
  if (opts_.track_orientation) in_sets_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto deg = g.Degree(v);
    max_degree_ = std::max<std::size_t>(max_degree_, deg);
    const std::span<std::uint32_t> order = Order(v);
    std::iota(order.begin(), order.end(), 0u);  // id order (sorted)
    if (opts_.track_orientation) {
      // N_v starts as all neighbors (Algorithm 2, line 1).
      in_sets_[v].resize(deg);
      std::iota(in_sets_[v].begin(), in_sets_[v].end(), 0u);
    }
  }
}

void CompactElimination::Init(NodeContext& ctx) {
  // Line 1: b_v <- +inf, broadcast it (round-1 inputs).
  ctx.Broadcast({b_[ctx.id()]});
}

void CompactElimination::Round(NodeContext& ctx) {
  const NodeId v = ctx.id();
  const auto nbrs = ctx.neighbors();
  const std::size_t d = nbrs.size();
  // Update is a pure function of the neighbors' values and the order, and
  // a stable re-sort of an order already sorted by the same values is the
  // identity; so after this round, unchanged neighbor broadcasts (bitwise)
  // reproduce b, the order and N_v exactly, and re-broadcast b: the node
  // may sleep until one changes.
  ctx.Sleep();

  if (d == 0) {
    // Isolated node: survives only threshold 0.
    if (b_[v] != 0.0) {
      b_[v] = 0.0;
      last_change_[v] = ctx.round();
    }
    ctx.Broadcast({0.0});
    return;
  }

  // Gather the neighbors' surviving numbers. In this protocol every node
  // broadcasts every round, so a missing broadcast is a bug.
  const UpdateInputs in = ThreadUpdateInputs(d, max_degree_);
  for (std::size_t i = 0; i < d; ++i) {
    const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
    KCORE_CHECK_MSG(p && !p.empty(),
                    "missing broadcast from neighbor of " << v);
    in.values[i] = p[0];
    in.weights[i] = nbrs[i].w;
  }

  const std::span<std::uint32_t> order = Order(v);
  if (!opts_.stateful_tiebreak) std::iota(order.begin(), order.end(), 0u);
  // N_v is written straight into in_sets_[v] (reusing its storage), and
  // only when orientation is tracked.
  std::vector<std::uint32_t>* chosen =
      opts_.track_orientation ? &in_sets_[v] : nullptr;
  double nb = UpdateStep(in.values, in.weights, order, chosen);
  if (opts_.lambda > 0.0) nb = RoundDownToPower(nb, opts_.lambda);
  if (nb != b_[v]) {
    b_[v] = nb;
    last_change_[v] = ctx.round();
  }
  if (chosen != nullptr) std::sort(chosen->begin(), chosen->end());
  ctx.Broadcast({b_[v]});
}

void CompactElimination::SaveNodeState(NodeId v,
                                       util::WireAppender& out) const {
  out.Double(b_[v]);
  out.Fixed64(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(last_change_[v])));
  const std::span<const std::uint32_t> order = Order(v);
  out.Varint(order.size());
  for (std::uint32_t i : order) out.Fixed32(i);
  if (opts_.track_orientation) {
    out.Varint(in_sets_[v].size());
    for (std::uint32_t i : in_sets_[v]) out.Fixed32(i);
  }
}

void CompactElimination::LoadNodeState(NodeId v, util::WireReader& in) {
  // The loaded state is not the output of v's last Update here.
  WakeSleepers();
  std::uint64_t last = 0;
  if (!in.TryDouble(&b_[v]) || !in.TryFixed64(&last)) return;
  last_change_[v] = static_cast<int>(static_cast<std::int64_t>(last));
  // The order's length is the degree, and N_v holds at most that many
  // entries; any other length fails the reader (the caller's block-length
  // check reports it).
  const std::span<std::uint32_t> order = Order(v);
  std::uint64_t len = 0;
  if (!in.TryVarint(&len) || len != order.size()) {
    in.Fail();
    return;
  }
  for (std::uint32_t& i : order) {
    if (!in.TryFixed32(&i)) return;
  }
  if (opts_.track_orientation) {
    if (!in.TryVarint(&len) || len > order.size()) {
      in.Fail();
      return;
    }
    in_sets_[v].resize(len);
    for (std::uint32_t& i : in_sets_[v]) {
      if (!in.TryFixed32(&i)) return;
    }
  }
}

CompactResult RunCompactElimination(const graph::Graph& g,
                                    const CompactOptions& opts) {
  KCORE_CHECK_MSG(opts.rounds >= 1, "need at least one round");
  KCORE_CHECK_MSG(!(opts.record_rounds && opts.per_rank_compute),
                  "record_rounds reads b after every round, but per-rank "
                  "compute keeps b in the workers between rounds");
  distsim::Engine engine(g, opts.num_threads);
  engine.SetSeed(opts.seed);
  engine.SetShardBalancing(opts.balance_shards);
  engine.SetRebalanceInterval(opts.rebalance_rounds);
  engine.SetTransport(distsim::MakeTransport(opts.transport));
  engine.SetRankCount(opts.ranks);
  engine.SetPerRankCompute(opts.per_rank_compute);
  CompactElimination proto(g, opts);
  CompactResult out;
  engine.Start(proto);
  if (opts.record_rounds) out.b_rounds.push_back(proto.b());
  for (int t = 0; t < opts.rounds; ++t) {
    engine.Step(proto);
    if (opts.record_rounds) out.b_rounds.push_back(proto.b());
  }
  engine.FetchRankState(proto);  // no-op unless per-rank compute
  out.b = proto.b();
  out.in_sets = proto.in_sets();
  out.history = engine.history();
  out.totals = engine.totals();
  out.rounds = opts.rounds;
  return out;
}

}  // namespace kcore::core
