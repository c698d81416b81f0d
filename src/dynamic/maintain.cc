#include "dynamic/maintain.h"

#include <algorithm>
#include <numeric>

#include "core/update.h"
#include "util/logging.h"

namespace kcore::dynamic {

DynamicCoreMaintenance::DynamicCoreMaintenance(NodeId n)
    : adj_(n), core_(n, 0.0), queued_(n, 0), region_mark_(n, 0) {}

DynamicCoreMaintenance::DynamicCoreMaintenance(const graph::Graph& g)
    : DynamicCoreMaintenance(g.num_nodes()) {
  KCORE_CHECK_MSG(!g.has_self_loops(), "simple graphs only");
  for (const graph::Edge& e : g.edges()) {
    adj_[e.u].push_back(Slot{e.v, e.w});
    adj_[e.v].push_back(Slot{e.u, e.w});
    ++m_;
  }
  // Initial fixpoint: start from the trivially dominating state (the
  // weighted degree bounds coreness) and descend globally.
  for (NodeId v = 0; v < num_nodes(); ++v) {
    double deg = 0.0;
    for (const Slot& s : adj_[v]) deg += s.w;
    core_[v] = deg;
  }
  std::vector<NodeId> all(num_nodes());
  std::iota(all.begin(), all.end(), 0u);
  Descend(all);
}

void DynamicCoreMaintenance::EnsureNodes(NodeId n) {
  if (n <= num_nodes()) return;
  adj_.resize(n);
  core_.resize(n, 0.0);
  queued_.resize(n, 0);
  region_mark_.resize(n, 0);
}

double DynamicCoreMaintenance::Recompute(NodeId v) {
  const auto& nbrs = adj_[v];
  if (nbrs.empty()) return 0.0;
  const std::size_t d = nbrs.size();
  if (scratch_values_.size() < d) {
    scratch_values_.resize(d);
    scratch_weights_.resize(d);
    scratch_order_.resize(d);
  }
  for (std::size_t i = 0; i < d; ++i) {
    scratch_values_[i] = core_[nbrs[i].to];
    scratch_weights_[i] = nbrs[i].w;
    scratch_order_[i] = static_cast<std::uint32_t>(i);
  }
  return core::UpdateStep({scratch_values_.data(), d},
                          {scratch_weights_.data(), d},
                          {scratch_order_.data(), d});
}

UpdateStats DynamicCoreMaintenance::Descend(std::span<const NodeId> seeds) {
  UpdateStats stats;
  worklist_.assign(seeds.begin(), seeds.end());
  for (NodeId v : worklist_) queued_[v] = 1;
  std::size_t head = 0;
  while (head < worklist_.size()) {
    const NodeId v = worklist_[head++];
    queued_[v] = 0;
    ++stats.recomputations;
    const double nb = std::min(core_[v], Recompute(v));
    if (nb == core_[v]) continue;
    core_[v] = nb;
    ++stats.changed;
    for (const Slot& s : adj_[v]) {
      if (!queued_[s.to]) {
        queued_[s.to] = 1;
        worklist_.push_back(s.to);
      }
    }
  }
  // Every pop clears its queued_ flag, so the membership scratch is all
  // zero again here — no O(n) reset between updates.
  return stats;
}

void DynamicCoreMaintenance::AddSlots(NodeId u, NodeId v, double w) {
  KCORE_CHECK_MSG(u != v, "self-loops unsupported");
  KCORE_CHECK(u < num_nodes() && v < num_nodes() && w >= 0.0);
  adj_[u].push_back(Slot{v, w});
  adj_[v].push_back(Slot{u, w});
  ++m_;
}

bool DynamicCoreMaintenance::CanRise(NodeId y, double w) const {
  // Rising to any level k > core_[y] needs sum_{z: c'(z) >= k} w(yz) >= k
  // with c'(z) <= core_[z] + w, so in particular
  //   sum_{z: core_[z] + w > core_[y]} w(yz) > core_[y].
  double support = 0.0;
  const double need = core_[y];
  for (const Slot& s : adj_[y]) {
    if (core_[s.to] + w > need) {
      support += s.w;
      if (support > need) return true;
    }
  }
  return false;
}

void DynamicCoreMaintenance::CollectInsertRegion(NodeId u, NodeId v,
                                                 double w) {
  region_.clear();
  const auto push = [this](NodeId y) {
    if (!region_mark_[y]) {
      region_mark_[y] = 1;
      region_.push_back(y);
    }
  };
  // An endpoint's rise must be enabled by the new edge itself: the far
  // end has to be able to reach the new level, i.e. c(x) < c(other) + w.
  // (Weighted analog of "only the lower-core endpoint's subcore moves".)
  if (core_[u] < core_[v] + w && CanRise(u, w)) push(u);
  if (core_[v] < core_[u] + w && CanRise(v, w)) push(v);
  std::size_t head = 0;
  while (head < region_.size()) {
    const NodeId x = region_[head++];
    for (const Slot& s : adj_[x]) {
      if (region_mark_[s.to]) continue;
      if (core_[s.to] < core_[x] + w && CanRise(s.to, w)) push(s.to);
    }
  }
}

UpdateStats DynamicCoreMaintenance::InsertEdge(NodeId u, NodeId v, double w) {
  AddSlots(u, v, w);
  // Localized lift-and-descend: only the candidate region (a provable
  // superset of the nodes whose coreness rises — see header) is lifted
  // by w; everything else already sits at the new fixpoint.
  CollectInsertRegion(u, v, w);
  UpdateStats stats;
  stats.region = region_.size();
  if (region_.empty()) return stats;
  before_.resize(region_.size());
  for (std::size_t i = 0; i < region_.size(); ++i) {
    before_[i] = core_[region_[i]];
    core_[region_[i]] += w;
  }
  stats = Descend(region_);
  stats.region = region_.size();
  // Report semantic changes (vs the pre-insert fixpoint), not descent
  // steps from the lifted state. Values outside the region are proven
  // unchanged, so comparing the region alone is exact — no second
  // n-sized vector.
  stats.changed = 0;
  for (std::size_t i = 0; i < region_.size(); ++i) {
    if (core_[region_[i]] != before_[i]) ++stats.changed;
    region_mark_[region_[i]] = 0;
  }
  return stats;
}

UpdateStats DynamicCoreMaintenance::InsertEdgeGlobalOracle(NodeId u, NodeId v,
                                                           double w) {
  AddSlots(u, v, w);
  // Global lift: c_new <= c_old + w pointwise, so lifting EVERY value by
  // w dominates the new fixpoint and worklist descent is exact. Kept as
  // the slow Theta(n + m) reference the localized path is checked
  // against (bit-equality, tests/dynamic_test.cc).
  const std::vector<double> before = core_;
  for (NodeId x = 0; x < num_nodes(); ++x) {
    if (!adj_[x].empty()) core_[x] += w;
  }
  std::vector<NodeId> all;
  all.reserve(num_nodes());
  for (NodeId x = 0; x < num_nodes(); ++x) {
    if (!adj_[x].empty()) all.push_back(x);
  }
  UpdateStats stats = Descend(all);
  stats.region = all.size();
  stats.changed = 0;
  for (NodeId x = 0; x < num_nodes(); ++x) {
    if (core_[x] != before[x]) ++stats.changed;
  }
  return stats;
}

bool DynamicCoreMaintenance::HasEdge(NodeId u, NodeId v, double w) const {
  if (u >= num_nodes()) return false;
  for (const Slot& s : adj_[u]) {
    if (s.to == v && s.w == w) return true;
  }
  return false;
}

UpdateStats DynamicCoreMaintenance::DeleteEdge(NodeId u, NodeId v, double w) {
  KCORE_CHECK_MSG(HasEdge(u, v, w), "edge not present");
  const auto erase_one = [](std::vector<Slot>& list, NodeId to, double w2) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].to == to && list[i].w == w2) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
    KCORE_CHECK_MSG(false, "slot missing");
  };
  erase_one(adj_[u], v, w);
  erase_one(adj_[v], u, w);
  --m_;
  // Coreness only decreases: current values dominate; purely local.
  const NodeId seeds[2] = {u, v};
  return Descend(seeds);
}

graph::Graph DynamicCoreMaintenance::Snapshot() const {
  graph::GraphBuilder b(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (const Slot& s : adj_[v]) {
      if (v < s.to) b.AddEdge(v, s.to, s.w);
    }
  }
  return std::move(b).Build();
}

}  // namespace kcore::dynamic
