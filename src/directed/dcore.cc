#include "directed/dcore.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "core/update.h"
#include "util/logging.h"

namespace kcore::directed {
namespace {

// Removes out-degree violators (< l) until fixpoint; updates degrees.
void PruneOutDegree(const Digraph& g, double l, std::vector<char>& alive,
                    std::vector<double>& in_deg, std::vector<double>& out_deg,
                    std::vector<NodeId>* removed_out) {
  std::vector<NodeId> queue;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (alive[v] && out_deg[v] < l) queue.push_back(v);
  }
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    if (!alive[v]) continue;
    alive[v] = 0;
    if (removed_out != nullptr) removed_out->push_back(v);
    for (const ArcEntry& a : g.OutNeighbors(v)) {
      if (alive[a.node]) in_deg[a.node] -= a.w;
    }
    for (const ArcEntry& a : g.InNeighbors(v)) {
      if (alive[a.node]) {
        out_deg[a.node] -= a.w;
        if (out_deg[a.node] < l) queue.push_back(a.node);
      }
    }
  }
}

}  // namespace

DCoreResult DCoreDecomposition(const Digraph& g, double l) {
  const NodeId n = g.num_nodes();
  DCoreResult out;
  out.in_coreness.assign(n, 0.0);
  out.in_zero_l_core.assign(n, 0);

  std::vector<char> alive(n, 1);
  std::vector<double> in_deg(n);
  std::vector<double> out_deg(n);
  for (NodeId v = 0; v < n; ++v) {
    in_deg[v] = g.InDegree(v);
    out_deg[v] = g.OutDegree(v);
  }
  PruneOutDegree(g, l, alive, in_deg, out_deg, nullptr);
  out.in_zero_l_core = alive;

  // Min-peeling on in-degree with out-degree cascade. Every node removed
  // while the running level is `running` has in-coreness exactly running:
  // the alive set at that moment is a (running, l)-subgraph.
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (NodeId v = 0; v < n; ++v) {
    if (alive[v]) heap.emplace(in_deg[v], v);
  }
  double running = 0.0;
  std::vector<NodeId> cascade;
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (!alive[v] || d != in_deg[v]) continue;
    running = std::max(running, d);
    // Remove v, then cascade out-degree violators at the same level.
    alive[v] = 0;
    out.in_coreness[v] = running;
    cascade.clear();
    cascade.push_back(v);
    std::size_t head = 0;
    while (head < cascade.size()) {
      const NodeId x = cascade[head++];
      for (const ArcEntry& a : g.OutNeighbors(x)) {
        if (alive[a.node]) {
          in_deg[a.node] -= a.w;
          heap.emplace(in_deg[a.node], a.node);
        }
      }
      for (const ArcEntry& a : g.InNeighbors(x)) {
        if (alive[a.node]) {
          out_deg[a.node] -= a.w;
          if (out_deg[a.node] < l) {
            alive[a.node] = 0;
            out.in_coreness[a.node] = running;
            cascade.push_back(a.node);
          }
        }
      }
    }
  }
  return out;
}

std::vector<double> DCoreSurvivingNumbers(const Digraph& g, double l,
                                          int rounds) {
  const NodeId n = g.num_nodes();
  std::vector<double> b(n, std::numeric_limits<double>::infinity());
  std::vector<char> active(n, 1);
  std::vector<double> out_deg(n);
  for (NodeId v = 0; v < n; ++v) out_deg[v] = g.OutDegree(v);

  // Persistent per-node in-neighbor orderings (tie-break as in Alg 3).
  std::vector<std::vector<std::uint32_t>> order(n);
  for (NodeId v = 0; v < n; ++v) {
    order[v].resize(g.InNeighbors(v).size());
    std::iota(order[v].begin(), order[v].end(), 0u);
  }

  for (int t = 0; t < rounds; ++t) {
    // Synchronous semantics: all updates read the previous round's state.
    const std::vector<char> prev_active = active;
    const std::vector<double> prev_b = b;
    // 1. Out-degree constraint among previously-active nodes.
    for (NodeId v = 0; v < n; ++v) {
      if (!prev_active[v]) continue;
      double od = 0.0;
      for (const ArcEntry& a : g.OutNeighbors(v)) {
        if (prev_active[a.node]) od += a.w;
      }
      if (od < l) {
        active[v] = 0;
        b[v] = 0.0;
      }
    }
    // 2. Surviving-number update on in-neighbors.
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const auto in = g.InNeighbors(v);
      const core::UpdateInputs x = core::ThreadUpdateInputs(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) {
        x.values[i] = prev_active[in[i].node] ? prev_b[in[i].node] : 0.0;
        x.weights[i] = in[i].w;
      }
      b[v] = std::min(b[v], core::UpdateStep(x.values, x.weights, order[v]));
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (std::isinf(b[v])) b[v] = g.InDegree(v);
  }
  return b;
}

std::vector<double> BruteDCore(const Digraph& g, double l) {
  const NodeId n = g.num_nodes();
  KCORE_CHECK_MSG(n <= 16, "brute d-core needs n <= 16");
  std::vector<double> core(n, 0.0);
  const std::uint32_t limit = 1u << n;
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    // Induced degrees.
    std::vector<double> in(n, 0.0);
    std::vector<double> outd(n, 0.0);
    for (const Arc& a : g.arcs()) {
      if ((mask >> a.from & 1u) && (mask >> a.to & 1u)) {
        outd[a.from] += a.w;
        in[a.to] += a.w;
      }
    }
    bool ok = true;
    double min_in = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < n; ++v) {
      if (!(mask >> v & 1u)) continue;
      if (outd[v] < l) {
        ok = false;
        break;
      }
      min_in = std::min(min_in, in[v]);
    }
    if (!ok) continue;
    for (NodeId v = 0; v < n; ++v) {
      if ((mask >> v & 1u) && min_in > core[v]) core[v] = min_in;
    }
  }
  return core;
}

}  // namespace kcore::directed
