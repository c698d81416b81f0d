#include "core/densest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "util/logging.h"
#include "util/wire.h"

namespace kcore::core {
namespace {

using distsim::InMessage;
using distsim::NodeContext;
using distsim::Payload;
using graph::Graph;
using graph::NodeId;

// Global ordering on leader tuples (b, id): larger b wins, then larger id
// (any total order known to all nodes works; Fact IV.2).
bool TupleLess(double b1, NodeId id1, double b2, NodeId id2) {
  if (b1 != b2) return b1 < b2;
  return id1 < id2;
}

// ---------------------------------------------------------------------
// Phase 2: Algorithm 4 (BFS forest).
// Rounds 1..T: leader propagation. Round T+1: parent requests.
// Round T+2: children registration + acks. Round T+3: orphan detection.
class BfsForestProtocol : public distsim::Protocol {
 public:
  BfsForestProtocol(const Graph& g, std::vector<double> b, int T)
      : T_(T),
        leader_b_(std::move(b)),
        leader_id_(g.num_nodes()),
        parent_(g.num_nodes()),
        acked_(g.num_nodes(), 0),
        children_(g.num_nodes()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      leader_id_[v] = v;
      parent_[v] = v;
    }
  }

  void Init(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    ctx.Broadcast({leader_b_[v], static_cast<double>(leader_id_[v])});
  }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    const int t = ctx.round();
    if (t <= T_) {
      // Propagation: adopt the largest neighbor leader if it beats ours.
      const auto nbrs = ctx.neighbors();
      double best_b = leader_b_[v];
      NodeId best_id = leader_id_[v];
      NodeId via = graph::kInvalidNode;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
        if (!p || p.size() < 2) continue;
        const double nb = p[0];
        const NodeId nid = static_cast<NodeId>(p[1]);
        if (TupleLess(best_b, best_id, nb, nid)) {
          best_b = nb;
          best_id = nid;
          via = nbrs[i].to;  // first (smallest-id) provider wins ties
        }
      }
      if (via != graph::kInvalidNode) {
        leader_b_[v] = best_b;
        leader_id_[v] = best_id;
        parent_[v] = via;
      }
      ctx.Broadcast({leader_b_[v], static_cast<double>(leader_id_[v])});
      return;
    }
    if (t == T_ + 1) {
      // Request Parent: tell the parent which leader we follow.
      if (parent_[v] != v) {
        ctx.Send(parent_[v], {static_cast<double>(leader_id_[v])});
      }
      return;
    }
    if (t == T_ + 2) {
      // Include Children + acks.
      for (const InMessage& m : ctx.Messages()) {
        if (!m.payload.empty() &&
            static_cast<NodeId>(m.payload[0]) == leader_id_[v]) {
          children_[v].push_back(m.from);
          ctx.Send(m.from, {1.0});
        }
      }
      return;
    }
    if (t == T_ + 3) {
      // Confirm Parent.
      for (const InMessage& m : ctx.Messages()) {
        (void)m;
        acked_[v] = 1;
      }
      if (parent_[v] != v && !acked_[v]) {
        parent_[v] = graph::kInvalidNode;  // orphaned
      }
      ctx.Halt();
      return;
    }
  }

  // Per-rank compute: a node's state is its adopted leader tuple, its
  // parent pointer, its ack flag, and its children list.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Double(leader_b_[v]);
    out.Fixed32(leader_id_[v]);
    out.Fixed32(parent_[v]);
    out.Varint(static_cast<std::uint64_t>(acked_[v]));
    out.Varint(children_[v].size());
    for (NodeId c : children_[v]) out.Fixed32(c);
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    std::uint32_t id = 0, parent = 0;
    std::uint64_t acked = 0, kids = 0;
    if (!in.TryDouble(&leader_b_[v]) || !in.TryFixed32(&id) ||
        !in.TryFixed32(&parent) || !in.TryVarint(&acked) ||
        !in.TryVarint(&kids)) {
      return;
    }
    leader_id_[v] = id;
    parent_[v] = parent;
    acked_[v] = static_cast<char>(acked);
    if (kids > in.remaining() / 4) {  // 4 bytes per child
      in.Fail();
      return;
    }
    children_[v].resize(kids);
    for (NodeId& c : children_[v]) {
      if (!in.TryFixed32(&c)) return;
    }
  }

  const std::vector<double>& leader_b() const { return leader_b_; }
  const std::vector<NodeId>& leader_id() const { return leader_id_; }
  const std::vector<NodeId>& parent() const { return parent_; }
  const std::vector<std::vector<NodeId>>& children() const {
    return children_;
  }

 private:
  int T_;
  std::vector<double> leader_b_;
  std::vector<NodeId> leader_id_;
  std::vector<NodeId> parent_;
  std::vector<char> acked_;
  std::vector<std::vector<NodeId>> children_;
};

// ---------------------------------------------------------------------
// Phase 3: Algorithm 5 (elimination within each leader group).
// Active nodes broadcast their leader id; degree counts only same-leader
// active neighbors; threshold is the leader's b.
class TreeEliminationProtocol : public distsim::Protocol {
 public:
  TreeEliminationProtocol(const Graph& g, const std::vector<double>& leader_b,
                          const std::vector<NodeId>& leader_id,
                          const std::vector<char>& participates, int T)
      : T_(T),
        leader_b_(leader_b),
        leader_id_(leader_id),
        active_(participates),
        num_(g.num_nodes(), std::vector<char>(T, 0)),
        deg_(g.num_nodes(), std::vector<double>(T, 0.0)) {}

  void Init(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    if (!active_[v]) {
      ctx.Halt();
      return;
    }
    ctx.Broadcast({static_cast<double>(leader_id_[v])});
  }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    const int t = ctx.round();
    if (!active_[v] || t > T_) return;
    double deg = 0.0;
    const auto nbrs = ctx.neighbors();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (p && !p.empty() && static_cast<NodeId>(p[0]) == leader_id_[v]) {
        deg += nbrs[i].w;
      }
    }
    num_[v][t - 1] = 1;
    deg_[v][t - 1] = deg;
    if (deg < leader_b_[v]) {
      active_[v] = 0;
      ctx.Halt();
      return;
    }
    ctx.Broadcast({static_cast<double>(leader_id_[v])});
  }

  // Per-rank compute: a node's state is its activity flag and its
  // per-round survival/degree records; the leader tables are
  // constructor-provided read-only context.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Varint(static_cast<std::uint64_t>(active_[v]));
    out.Varint(num_[v].size());
    for (int t = 0; t < T_; ++t) {
      out.Varint(static_cast<std::uint64_t>(num_[v][t]));
      out.Double(deg_[v][t]);
    }
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    std::uint64_t active = 0, T = 0;
    if (!in.TryVarint(&active) || !in.TryVarint(&T)) return;
    active_[v] = static_cast<char>(active);
    if (T != static_cast<std::uint64_t>(T_)) {
      in.Fail();
      return;
    }
    for (int t = 0; t < T_; ++t) {
      std::uint64_t num = 0;
      if (!in.TryVarint(&num) || !in.TryDouble(&deg_[v][t])) return;
      num_[v][t] = static_cast<char>(num);
    }
  }

  const std::vector<std::vector<char>>& num() const { return num_; }
  const std::vector<std::vector<double>>& deg() const { return deg_; }

 private:
  int T_;
  const std::vector<double>& leader_b_;
  const std::vector<NodeId>& leader_id_;
  std::vector<char> active_;
  std::vector<std::vector<char>> num_;
  std::vector<std::vector<double>> deg_;
};

// ---------------------------------------------------------------------
// Phase 4: Algorithm 6 (aggregation + selection).
// UP payload:   {0, num'[0..T-1], deg'[0..T-1]}
// DOWN payload: {1, t*}
class AggregationProtocol : public distsim::Protocol {
 public:
  AggregationProtocol(const Graph& g, const std::vector<double>& leader_b,
                      const std::vector<NodeId>& parent,
                      const std::vector<std::vector<NodeId>>& children,
                      const std::vector<std::vector<char>>& num,
                      const std::vector<std::vector<double>>& deg, int T,
                      double gamma)
      : T_(T),
        gamma_(gamma),
        leader_b_(leader_b),
        parent_(parent),
        children_(children),
        agg_num_(g.num_nodes(), std::vector<double>(T, 0.0)),
        agg_deg_(g.num_nodes(), std::vector<double>(T, 0.0)),
        pending_(g.num_nodes(), 0),
        sent_up_(g.num_nodes(), 0),
        selected_(g.num_nodes(), 0),
        own_num_(num) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      pending_[v] = children_[v].size();
      for (int t = 0; t < T; ++t) {
        agg_num_[v][t] = num[v][t] ? 1.0 : 0.0;
        agg_deg_[v][t] = deg[v][t];
      }
    }
  }

  void Init(NodeContext& ctx) override { MaybeSendUp(ctx); }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    for (const InMessage& m : ctx.Messages()) {
      if (m.payload.empty()) continue;
      if (m.payload[0] == 0.0) {
        // UP: accumulate a child's aggregated arrays.
        KCORE_CHECK(m.payload.size() ==
                    1 + 2 * static_cast<std::size_t>(T_));
        for (int t = 0; t < T_; ++t) {
          agg_num_[v][t] += m.payload[1 + static_cast<std::size_t>(t)];
          agg_deg_[v][t] +=
              m.payload[1 + static_cast<std::size_t>(T_ + t)];
        }
        KCORE_CHECK(pending_[v] > 0);
        --pending_[v];
      } else {
        // DOWN: t* from the parent.
        const int t_star = static_cast<int>(m.payload[1]);
        SelectAndForward(ctx, t_star);
        return;
      }
    }
    MaybeSendUp(ctx);
  }

  // Per-rank compute: a node's state is its aggregation accumulators and
  // the convergecast progress flags; the forest pointers and own-survival
  // arrays are constructor-provided read-only context.
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Varint(pending_[v]);
    out.Varint(static_cast<std::uint64_t>(sent_up_[v]));
    out.Varint(static_cast<std::uint64_t>(selected_[v]));
    out.Varint(agg_num_[v].size());
    for (int t = 0; t < T_; ++t) {
      out.Double(agg_num_[v][t]);
      out.Double(agg_deg_[v][t]);
    }
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    std::uint64_t pending = 0, sent = 0, selected = 0, T = 0;
    if (!in.TryVarint(&pending) || !in.TryVarint(&sent) ||
        !in.TryVarint(&selected) || !in.TryVarint(&T)) {
      return;
    }
    pending_[v] = pending;
    sent_up_[v] = static_cast<char>(sent);
    selected_[v] = static_cast<char>(selected);
    if (T != static_cast<std::uint64_t>(T_)) {
      in.Fail();
      return;
    }
    for (int t = 0; t < T_; ++t) {
      if (!in.TryDouble(&agg_num_[v][t]) || !in.TryDouble(&agg_deg_[v][t])) {
        return;
      }
    }
  }

  const std::vector<char>& selected() const { return selected_; }

 private:
  void MaybeSendUp(NodeContext& ctx) {
    const NodeId v = ctx.id();
    if (sent_up_[v] || pending_[v] > 0) return;
    if (parent_[v] == v) {
      // Root: all children reported (or no children). Decide.
      sent_up_[v] = 1;
      double bmax = -1.0;
      int t_star = -1;
      for (int t = 0; t < T_; ++t) {
        if (agg_num_[v][t] >= 1.0) {
          const double rho = agg_deg_[v][t] / (2.0 * agg_num_[v][t]);
          if (rho > bmax) {
            bmax = rho;
            t_star = t;
          }
        }
      }
      // Acceptance test (see header): Lemma IV.4 guarantees the top root
      // passes bmax >= b_v / gamma.
      const double tol = 1e-9 * std::max(1.0, leader_b_[v]);
      if (t_star >= 0 && bmax + tol >= leader_b_[v] / gamma_) {
        SelectAndForward(ctx, t_star);
      } else {
        ctx.Halt();
      }
      return;
    }
    if (parent_[v] == graph::kInvalidNode) {
      // Orphan: never forwards; its fragment returns nothing.
      sent_up_[v] = 1;
      ctx.Halt();
      return;
    }
    // Send aggregated arrays to the parent.
    Payload p;
    p.reserve(1 + 2 * static_cast<std::size_t>(T_));
    p.push_back(0.0);
    for (int t = 0; t < T_; ++t) p.push_back(agg_num_[v][t]);
    for (int t = 0; t < T_; ++t) p.push_back(agg_deg_[v][t]);
    ctx.Send(parent_[v], std::move(p));
    sent_up_[v] = 1;
  }

  void SelectAndForward(NodeContext& ctx, int t_star) {
    const NodeId v = ctx.id();
    if (t_star >= 0 && t_star < T_ && own_num_[v][t_star]) {
      selected_[v] = 1;
    }
    for (NodeId c : children_[v]) {
      ctx.Send(c, {1.0, static_cast<double>(t_star)});
    }
    ctx.Halt();
  }

  int T_;
  double gamma_;
  const std::vector<double>& leader_b_;
  const std::vector<NodeId>& parent_;
  const std::vector<std::vector<NodeId>>& children_;
  std::vector<std::vector<double>> agg_num_;
  std::vector<std::vector<double>> agg_deg_;
  std::vector<std::size_t> pending_;
  std::vector<char> sent_up_;
  std::vector<char> selected_;
  const std::vector<std::vector<char>>& own_num_;
};

// ---------------------------------------------------------------------
// Phase 4, pipelined variant (Algorithm 6 "Optimizing Message Size"):
// one (t, num'[t], deg'[t]) entry per message per round — O(1)-word
// CONGEST messages at the price of ~T extra rounds. Selection is
// bit-identical to the batch variant (tested).
// UP payload:   {0, t, num'[t], deg'[t]}
// DOWN payload: {1, t*}
class PipelinedAggregationProtocol : public distsim::Protocol {
 public:
  PipelinedAggregationProtocol(
      const Graph& g, const std::vector<double>& leader_b,
      const std::vector<NodeId>& parent,
      const std::vector<std::vector<NodeId>>& children,
      const std::vector<std::vector<char>>& num,
      const std::vector<std::vector<double>>& deg, int T, double gamma)
      : T_(T),
        gamma_(gamma),
        leader_b_(leader_b),
        parent_(parent),
        children_(children),
        agg_num_(g.num_nodes(), std::vector<double>(T, 0.0)),
        agg_deg_(g.num_nodes(), std::vector<double>(T, 0.0)),
        got_(g.num_nodes(), std::vector<std::size_t>(T, 0)),
        next_send_(g.num_nodes(), 0),
        decided_(g.num_nodes(), 0),
        selected_(g.num_nodes(), 0),
        own_num_(num) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (int t = 0; t < T; ++t) {
        agg_num_[v][t] = num[v][t] ? 1.0 : 0.0;
        agg_deg_[v][t] = deg[v][t];
      }
    }
  }

  void Init(NodeContext& ctx) override { Progress(ctx); }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    for (const InMessage& m : ctx.Messages()) {
      if (m.payload.empty()) continue;
      if (m.payload[0] == 0.0) {
        KCORE_CHECK(m.payload.size() == 4);
        const int t = static_cast<int>(m.payload[1]);
        KCORE_CHECK(t >= 0 && t < T_);
        agg_num_[v][t] += m.payload[2];
        agg_deg_[v][t] += m.payload[3];
        ++got_[v][t];
      } else {
        SelectAndForward(ctx, static_cast<int>(m.payload[1]));
        return;
      }
    }
    Progress(ctx);
  }

  // Per-rank compute: the batch variant's state plus the pipeline
  // cursors (per-entry completion counts and the next entry to stream).
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Varint(static_cast<std::uint64_t>(decided_[v]));
    out.Varint(static_cast<std::uint64_t>(selected_[v]));
    out.Fixed64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(next_send_[v])));
    out.Varint(agg_num_[v].size());
    for (int t = 0; t < T_; ++t) {
      out.Double(agg_num_[v][t]);
      out.Double(agg_deg_[v][t]);
      out.Varint(got_[v][t]);
    }
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    std::uint64_t decided = 0, selected = 0, next = 0, T = 0;
    if (!in.TryVarint(&decided) || !in.TryVarint(&selected) ||
        !in.TryFixed64(&next) || !in.TryVarint(&T)) {
      return;
    }
    decided_[v] = static_cast<char>(decided);
    selected_[v] = static_cast<char>(selected);
    next_send_[v] = static_cast<int>(static_cast<std::int64_t>(next));
    if (T != static_cast<std::uint64_t>(T_)) {
      in.Fail();
      return;
    }
    for (int t = 0; t < T_; ++t) {
      std::uint64_t got = 0;
      if (!in.TryDouble(&agg_num_[v][t]) || !in.TryDouble(&agg_deg_[v][t]) ||
          !in.TryVarint(&got)) {
        return;
      }
      got_[v][t] = got;
    }
  }

  const std::vector<char>& selected() const { return selected_; }

 private:
  bool EntryComplete(NodeId v, int t) const {
    return got_[v][t] == children_[v].size();
  }

  void Progress(NodeContext& ctx) {
    const NodeId v = ctx.id();
    if (decided_[v]) return;
    if (parent_[v] == graph::kInvalidNode) {  // orphan fragment
      decided_[v] = 1;
      ctx.Halt();
      return;
    }
    if (parent_[v] == v) {
      // Root: decide once every entry is complete.
      for (int t = 0; t < T_; ++t) {
        if (!EntryComplete(v, t)) return;
      }
      decided_[v] = 1;
      double bmax = -1.0;
      int t_star = -1;
      for (int t = 0; t < T_; ++t) {
        if (agg_num_[v][t] >= 1.0) {
          const double rho = agg_deg_[v][t] / (2.0 * agg_num_[v][t]);
          if (rho > bmax) {
            bmax = rho;
            t_star = t;
          }
        }
      }
      const double tol = 1e-9 * std::max(1.0, leader_b_[v]);
      if (t_star >= 0 && bmax + tol >= leader_b_[v] / gamma_) {
        SelectAndForward(ctx, t_star);
      } else {
        ctx.Halt();
      }
      return;
    }
    // Interior/leaf: stream at most ONE completed entry per round.
    if (next_send_[v] < T_ && EntryComplete(v, next_send_[v])) {
      const int t = next_send_[v]++;
      ctx.Send(parent_[v], {0.0, static_cast<double>(t), agg_num_[v][t],
                            agg_deg_[v][t]});
    }
  }

  void SelectAndForward(NodeContext& ctx, int t_star) {
    const NodeId v = ctx.id();
    decided_[v] = 1;
    if (t_star >= 0 && t_star < T_ && own_num_[v][t_star]) {
      selected_[v] = 1;
    }
    for (NodeId c : children_[v]) {
      ctx.Send(c, {1.0, static_cast<double>(t_star)});
    }
    ctx.Halt();
  }

  int T_;
  double gamma_;
  const std::vector<double>& leader_b_;
  const std::vector<NodeId>& parent_;
  const std::vector<std::vector<NodeId>>& children_;
  std::vector<std::vector<double>> agg_num_;
  std::vector<std::vector<double>> agg_deg_;
  std::vector<std::vector<std::size_t>> got_;
  std::vector<int> next_send_;
  std::vector<char> decided_;
  std::vector<char> selected_;
  const std::vector<std::vector<char>>& own_num_;
};

// Applies the options' shared engine surface to one phase's engine; every
// phase runs under the same seed, balancing, transport, and rank
// topology.
void ConfigureEngine(distsim::Engine& engine,
                     const WeakDensestOptions& options) {
  engine.SetSeed(options.seed);
  engine.SetShardBalancing(options.balance_shards);
  engine.SetTransport(distsim::MakeTransport(options.transport));
  engine.SetRankCount(options.ranks);
  engine.SetPerRankCompute(options.per_rank_compute);
}

void AddTotals(distsim::Totals& acc, const distsim::Totals& t) {
  acc.rounds += t.rounds;
  acc.messages += t.messages;
  acc.entries += t.entries;
  acc.max_entries_per_message =
      std::max(acc.max_entries_per_message, t.max_entries_per_message);
}

// Holds the phase protocols and the tables they reference.
class PhaseSet final : public WeakDensestPhasesForTesting {
 public:
  PhaseSet(const Graph& g, int T)
      : bfs_(g, Degrees(g), T),
        forest_built_(RunForest(g, T, bfs_)),
        tree_(g, bfs_.leader_b(), bfs_.leader_id(),
              std::vector<char>(g.num_nodes(), 1), T),
        agg_(g, bfs_.leader_b(), bfs_.parent(), bfs_.children(), tree_.num(),
             tree_.deg(), T, 3.0),
        pipelined_(g, bfs_.leader_b(), bfs_.parent(), bfs_.children(),
                   tree_.num(), tree_.deg(), T, 3.0) {
    protocols = {&bfs_, &tree_, &agg_, &pipelined_};
  }

 private:
  static std::vector<double> Degrees(const Graph& g) {
    std::vector<double> b(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) b[v] = g.WeightedDegree(v);
    return b;
  }
  static bool RunForest(const Graph& g, int T, BfsForestProtocol& bfs) {
    distsim::Engine engine(g, 1);
    engine.Run(bfs, T + 3);
    return true;
  }

  BfsForestProtocol bfs_;
  bool forest_built_;  // bfs_ has run, before the later phases read it
  TreeEliminationProtocol tree_;
  AggregationProtocol agg_;
  PipelinedAggregationProtocol pipelined_;
};

}  // namespace

std::unique_ptr<WeakDensestPhasesForTesting> MakeWeakDensestPhasesForTesting(
    const Graph& g, int T) {
  return std::make_unique<PhaseSet>(g, T);
}

WeakDensestResult RunWeakDensest(const Graph& g, double gamma, int T_override,
                                 int num_threads) {
  WeakDensestOptions options;
  options.gamma = gamma;
  options.T_override = T_override;
  options.num_threads = num_threads;
  return RunWeakDensest(g, options);
}

WeakDensestResult RunWeakDensest(const Graph& g,
                                 const WeakDensestOptions& options) {
  const double gamma = options.gamma;
  const int T_override = options.T_override;
  const int num_threads = options.num_threads;
  KCORE_CHECK_MSG(gamma > 2.0, "gamma must exceed 2");
  const NodeId n = g.num_nodes();
  KCORE_CHECK(n >= 1);
  const int T =
      T_override > 0 ? T_override : RoundsForGamma(n, gamma);

  WeakDensestResult out;

  // Phase 1: surviving numbers.
  CompactOptions copts;
  copts.rounds = T;
  copts.num_threads = num_threads;
  copts.balance_shards = options.balance_shards;
  copts.transport = options.transport;
  copts.ranks = options.ranks;
  copts.seed = options.seed;
  copts.per_rank_compute = options.per_rank_compute;
  CompactResult compact = RunCompactElimination(g, copts);
  out.b = compact.b;
  out.rounds_phase1 = T;
  AddTotals(out.totals, compact.totals);

  // Phase 2: BFS forest.
  BfsForestProtocol bfs(g, compact.b, T);
  {
    distsim::Engine engine(g, num_threads);
    ConfigureEngine(engine, options);
    engine.Run(bfs, T + 3);
    engine.FetchRankState(bfs);  // no-op unless per-rank compute
    out.rounds_phase2 = T + 3;
    AddTotals(out.totals, engine.totals());
  }
  const auto& parent = bfs.parent();
  const auto& children = bfs.children();

  // A node participates in phase 3/4 iff it was not orphaned.
  std::vector<char> participates(n, 1);
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] == graph::kInvalidNode) participates[v] = 0;
  }

  // Every node uses its LEADER's threshold b; the leader's own b was
  // propagated as part of the tuple.
  TreeEliminationProtocol elim(g, bfs.leader_b(), bfs.leader_id(),
                               participates, T);
  {
    distsim::Engine engine(g, num_threads);
    ConfigureEngine(engine, options);
    engine.Run(elim, T);
    engine.FetchRankState(elim);  // no-op unless per-rank compute
    out.rounds_phase3 = T;
    AddTotals(out.totals, engine.totals());
  }

  // Phase 4: aggregation (runs until message flow stops; <= 2T+4 rounds
  // batch, <= 3T+4 pipelined, for a depth-<=T forest).
  std::vector<char> selected;
  if (options.pipelined_aggregation) {
    PipelinedAggregationProtocol agg(g, bfs.leader_b(), parent, children,
                                     elim.num(), elim.deg(), T, gamma);
    distsim::Engine engine(g, num_threads);
    ConfigureEngine(engine, options);
    const int executed = engine.RunUntilQuiescent(agg, 4 * T + 8);
    engine.FetchRankState(agg);  // no-op unless per-rank compute
    out.rounds_phase4 = executed;
    AddTotals(out.totals, engine.totals());
    selected = agg.selected();
  } else {
    AggregationProtocol agg(g, bfs.leader_b(), parent, children, elim.num(),
                            elim.deg(), T, gamma);
    distsim::Engine engine(g, num_threads);
    ConfigureEngine(engine, options);
    const int executed = engine.RunUntilQuiescent(agg, 3 * T + 8);
    engine.FetchRankState(agg);  // no-op unless per-rank compute
    out.rounds_phase4 = executed;
    AddTotals(out.totals, engine.totals());
    selected = agg.selected();
  }

  out.selected = std::move(selected);
  out.leader_of.assign(n, graph::kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (participates[v]) out.leader_of[v] = bfs.leader_id()[v];
  }

  // Collect the subsets per leader and compute their true densities in G.
  std::map<NodeId, std::vector<NodeId>> groups;
  for (NodeId v = 0; v < n; ++v) {
    if (out.selected[v]) groups[out.leader_of[v]].push_back(v);
  }
  for (auto& [leader, members] : groups) {
    DensestSubsetOut s;
    s.leader = leader;
    s.members = members;
    std::vector<char> mask(n, 0);
    for (NodeId v : members) mask[v] = 1;
    s.density = g.InducedDensity(mask);
    out.best_density = std::max(out.best_density, s.density);
    out.subsets.push_back(std::move(s));
  }

  out.rounds_total = out.rounds_phase1 + out.rounds_phase2 +
                     out.rounds_phase3 + out.rounds_phase4;
  return out;
}

}  // namespace kcore::core
