#include "core/sarma.h"

#include "core/compact.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace kcore::core {
namespace {

using distsim::InMessage;
using distsim::NodeContext;
using graph::Graph;
using graph::NodeId;

void AddTotals(distsim::Totals& acc, const distsim::Totals& t) {
  acc.rounds += t.rounds;
  acc.messages += t.messages;
  acc.entries += t.entries;
  acc.max_entries_per_message =
      std::max(acc.max_entries_per_message, t.max_entries_per_message);
}

// Phase 0a: BFS tree rooted at the maximum-id node of each component
// (the global protocol then only uses the tree whose root id equals the
// component's max id; all components run in parallel, as real hardware
// would). Broadcast (root_id, dist); adopt a larger root or a shorter
// path to the same root.
class BfsTree : public distsim::Protocol {
 public:
  explicit BfsTree(NodeId n)
      : root_(n), dist_(n, 0), parent_(n) {
    for (NodeId v = 0; v < n; ++v) {
      root_[v] = v;
      parent_[v] = v;
    }
  }

  void Init(NodeContext& ctx) override { Announce(ctx); }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    const auto nbrs = ctx.neighbors();
    bool changed = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (!p || p.size() < 2) continue;
      const NodeId r = static_cast<NodeId>(p[0]);
      const auto d = static_cast<std::uint32_t>(p[1]) + 1;
      if (r > root_[v] || (r == root_[v] && d < dist_[v])) {
        root_[v] = r;
        dist_[v] = d;
        parent_[v] = nbrs[i].to;
        changed = true;
      }
    }
    (void)changed;
    Announce(ctx);
  }

  const std::vector<NodeId>& root() const { return root_; }
  const std::vector<std::uint32_t>& dist() const { return dist_; }
  const std::vector<NodeId>& parent() const { return parent_; }

 private:
  void Announce(NodeContext& ctx) {
    const NodeId v = ctx.id();
    ctx.Broadcast({static_cast<double>(root_[v]),
                   static_cast<double>(dist_[v])});
  }

  std::vector<NodeId> root_;
  std::vector<std::uint32_t> dist_;
  std::vector<NodeId> parent_;
};

// One round: every still-alive node broadcasts; alive nodes record their
// weighted degree among alive neighbors.
class AliveDegree : public distsim::Protocol {
 public:
  AliveDegree(const std::vector<char>& alive, std::vector<double>* deg)
      : alive_(alive), deg_(deg) {}

  void Init(NodeContext& ctx) override {
    if (alive_[ctx.id()]) ctx.Broadcast({1.0});
  }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    if (!alive_[v]) return;
    double d = 0.0;
    const auto nbrs = ctx.neighbors();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (p && !p.empty() && p[0] >= 0.5) d += nbrs[i].w;
    }
    (*deg_)[v] = d;
  }

 private:
  const std::vector<char>& alive_;
  std::vector<double>* deg_;
};

// Convergecast of (count, weighted-degree-sum) over the tree.
class Convergecast : public distsim::Protocol {
 public:
  Convergecast(const std::vector<NodeId>& parent,
               const std::vector<std::vector<NodeId>>& children,
               std::vector<double> count, std::vector<double> degsum)
      : parent_(parent),
        children_(children),
        count_(std::move(count)),
        degsum_(std::move(degsum)),
        pending_(parent_.size()),
        sent_(parent_.size(), 0) {
    for (NodeId v = 0; v < parent_.size(); ++v) {
      pending_[v] = children_[v].size();
    }
  }

  void Init(NodeContext& ctx) override { MaybeSend(ctx); }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    for (const InMessage& m : ctx.Messages()) {
      KCORE_CHECK(m.payload.size() == 2);
      count_[v] += m.payload[0];
      degsum_[v] += m.payload[1];
      KCORE_CHECK(pending_[v] > 0);
      --pending_[v];
    }
    MaybeSend(ctx);
  }

  // Valid at the root after the run.
  double count_at(NodeId v) const { return count_[v]; }
  double degsum_at(NodeId v) const { return degsum_[v]; }

 private:
  void MaybeSend(NodeContext& ctx) {
    const NodeId v = ctx.id();
    if (sent_[v] || pending_[v] > 0) return;
    if (parent_[v] != v) {
      ctx.Send(parent_[v], {count_[v], degsum_[v]});
    }
    sent_[v] = 1;
    if (parent_[v] == v) ctx.Halt();
  }

  const std::vector<NodeId>& parent_;
  const std::vector<std::vector<NodeId>>& children_;
  std::vector<double> count_;
  std::vector<double> degsum_;
  std::vector<std::size_t> pending_;
  std::vector<char> sent_;
};

// Flood a single value from each root down its tree.
class Flood : public distsim::Protocol {
 public:
  Flood(const std::vector<NodeId>& parent,
        const std::vector<std::vector<NodeId>>& children,
        std::vector<double> value, const std::vector<char>& is_root)
      : parent_(parent),
        children_(children),
        value_(std::move(value)),
        is_root_(is_root) {}

  void Init(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    if (is_root_[v]) {
      for (NodeId c : children_[v]) ctx.Send(c, {value_[v]});
      ctx.Halt();
    }
  }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    for (const InMessage& m : ctx.Messages()) {
      value_[v] = m.payload[0];
      for (NodeId c : children_[v]) ctx.Send(c, {value_[v]});
      ctx.Halt();
      return;
    }
  }

  double value_at(NodeId v) const { return value_[v]; }
  const std::vector<double>& values() const { return value_; }

 private:
  const std::vector<NodeId>& parent_;
  const std::vector<std::vector<NodeId>>& children_;
  std::vector<double> value_;
  const std::vector<char>& is_root_;
};

}  // namespace

SarmaResult RunSarmaDensest(const Graph& g, double eps, int num_threads) {
  KCORE_CHECK_MSG(eps > 0.0, "eps must be positive");
  KCORE_CHECK_MSG(!g.has_self_loops(), "self-loop free graphs only");
  const NodeId n = g.num_nodes();
  SarmaResult out;
  out.in_set.assign(n, 0);
  if (n == 0) return out;

  // Phase 0: BFS trees (one per component, rooted at the max id).
  BfsTree bfs(n);
  {
    distsim::Engine engine(g, num_threads);
    out.rounds_bfs =
        engine.RunUntilQuiescent(bfs, static_cast<int>(n) + 2);
    AddTotals(out.totals, engine.totals());
  }
  std::vector<std::vector<NodeId>> children(n);
  std::vector<char> is_root(n, 0);
  std::uint32_t depth = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (bfs.parent()[v] == v) {
      is_root[v] = 1;
    } else {
      children[bfs.parent()[v]].push_back(v);
    }
    depth = std::max(depth, bfs.dist()[v]);
  }
  out.tree_depth = static_cast<int>(depth);

  // Elimination passes. Every node remembers the pass at which it dropped
  // (-1 = never). rho of pass i is measured at its start.
  std::vector<char> alive(n, 1);
  std::vector<int> drop_pass(n, -1);
  std::vector<double> best_rho(n, 0.0);  // per root
  std::vector<int> best_pass(n, -1);
  const int max_passes =
      2 + RoundsForEpsilon(n, eps);  // ceil(log_{1+eps} n) + slack
  int pass = 0;
  std::vector<double> deg(n, 0.0);
  for (; pass < max_passes; ++pass) {
    // (a) alive broadcast + degree measurement: 1 round.
    AliveDegree ad(alive, &deg);
    {
      distsim::Engine engine(g, num_threads);
      engine.Run(ad, 1);
      AddTotals(out.totals, engine.totals());
    }
    // (b) convergecast (|S|, sum deg) -> root: ~depth rounds.
    std::vector<double> cnt(n, 0.0);
    std::vector<double> ds(n, 0.0);
    for (NodeId v = 0; v < n; ++v) {
      cnt[v] = alive[v] ? 1.0 : 0.0;
      ds[v] = alive[v] ? deg[v] : 0.0;
    }
    Convergecast up(bfs.parent(), children, std::move(cnt), std::move(ds));
    {
      distsim::Engine engine(g, num_threads);
      const int r = engine.RunUntilQuiescent(
          up, static_cast<int>(depth) + 2);
      out.totals.rounds += 0;  // rounds tallied via engine totals
      (void)r;
      AddTotals(out.totals, engine.totals());
    }
    // Roots decide: rho(S) = (sum deg / 2) / |S|; remember the best pass;
    // empty set ends the loop (signalled by threshold = +inf).
    bool any_alive = false;
    std::vector<double> threshold(n,
                                  std::numeric_limits<double>::infinity());
    for (NodeId v = 0; v < n; ++v) {
      if (!is_root[v]) continue;
      const double count = up.count_at(v);
      if (count < 0.5) continue;
      any_alive = true;
      const double rho = (up.degsum_at(v) / 2.0) / count;
      if (rho > best_rho[v]) {
        best_rho[v] = rho;
        best_pass[v] = pass;
      }
      threshold[v] = 2.0 * (1.0 + eps) * rho;
    }
    if (!any_alive) break;
    // (c) flood the threshold down: ~depth rounds.
    Flood down(bfs.parent(), children, std::move(threshold), is_root);
    {
      distsim::Engine engine(g, num_threads);
      engine.RunUntilQuiescent(down, static_cast<int>(depth) + 2);
      AddTotals(out.totals, engine.totals());
    }
    // (d) drop: local, no communication.
    for (NodeId v = 0; v < n; ++v) {
      if (alive[v] && deg[v] < down.value_at(v)) {
        alive[v] = 0;
        drop_pass[v] = pass;
      }
    }
  }
  out.passes = pass;

  // Final flood: best pass index per tree; membership = survived past it.
  std::vector<double> best(n, -1.0);
  for (NodeId v = 0; v < n; ++v) {
    if (is_root[v]) best[v] = static_cast<double>(best_pass[v]);
  }
  Flood announce(bfs.parent(), children, std::move(best), is_root);
  {
    distsim::Engine engine(g, num_threads);
    engine.RunUntilQuiescent(announce, static_cast<int>(depth) + 2);
    AddTotals(out.totals, engine.totals());
  }
  for (NodeId v = 0; v < n; ++v) {
    const double bp = announce.value_at(v);
    if (bp < -0.5) continue;
    const int p = static_cast<int>(bp);
    // v was in S_p iff it had not dropped before pass p.
    if (drop_pass[v] < 0 || drop_pass[v] >= p) out.in_set[v] = 1;
  }
  out.density = g.InducedDensity(out.in_set);
  out.rounds_total = out.totals.rounds;
  return out;
}

}  // namespace kcore::core
