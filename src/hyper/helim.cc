#include "hyper/helim.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "core/update.h"
#include "flow/dinic.h"
#include "util/logging.h"

namespace kcore::hyper {

std::vector<double> HyperCoreness(const Hypergraph& h) {
  const NodeId n = h.num_nodes();
  std::vector<double> deg(n);
  for (NodeId v = 0; v < n; ++v) deg[v] = h.WeightedDegree(v);
  std::vector<char> alive(n, 1);
  std::vector<char> edge_alive(h.num_edges(), 1);

  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (NodeId v = 0; v < n; ++v) heap.emplace(deg[v], v);

  std::vector<double> core(n, 0.0);
  double running = 0.0;
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (!alive[v] || d != deg[v]) continue;
    alive[v] = 0;
    running = std::max(running, d);
    core[v] = running;
    // Destroy every incident edge; other members lose its weight.
    for (EdgeId e : h.IncidentEdges(v)) {
      if (!edge_alive[e]) continue;
      edge_alive[e] = 0;
      for (NodeId u : h.edge(e).nodes) {
        if (u != v && alive[u]) {
          deg[u] -= h.edge(e).w;
          if (deg[u] < 0 && deg[u] > -1e-9) deg[u] = 0.0;
          heap.emplace(deg[u], u);
        }
      }
    }
  }
  return core;
}

std::vector<double> HyperSurvivingNumbers(const Hypergraph& h, int rounds) {
  const NodeId n = h.num_nodes();
  std::vector<double> b(n, std::numeric_limits<double>::infinity());
  // Persistent per-node incident-edge ordering for the stable tie-break.
  std::vector<std::vector<std::uint32_t>> order(n);
  for (NodeId v = 0; v < n; ++v) {
    order[v].resize(h.IncidentEdges(v).size());
    std::iota(order[v].begin(), order[v].end(), 0u);
  }
  for (int t = 0; t < rounds; ++t) {
    const std::vector<double> prev = b;  // synchronous semantics
    for (NodeId v = 0; v < n; ++v) {
      const auto inc = h.IncidentEdges(v);
      if (inc.empty()) {
        b[v] = 0.0;
        continue;
      }
      const core::UpdateInputs in = core::ThreadUpdateInputs(inc.size());
      for (std::size_t i = 0; i < inc.size(); ++i) {
        const HEdge& e = h.edge(inc[i]);
        // The edge survives threshold x iff every OTHER member does:
        // its value is the min of their previous surviving numbers.
        double mn = std::numeric_limits<double>::infinity();
        for (NodeId u : e.nodes) {
          if (u != v) mn = std::min(mn, prev[u]);
        }
        in.values[i] = mn;  // singleton edge: +inf (always survives)
        in.weights[i] = e.w;
      }
      b[v] = core::UpdateStep(in.values, in.weights, order[v]);
    }
  }
  return b;
}

namespace {

struct ClosureOut {
  double value = 0.0;
  std::vector<char> minimal, maximal;
};

ClosureOut SolveClosure(const Hypergraph& h, double density) {
  const NodeId n = h.num_nodes();
  flow::Dinic dinic(2 + static_cast<int>(n) +
                    static_cast<int>(h.num_edges()));
  const int kSource = 0;
  const int kSink = 1;
  const auto vnode = [](NodeId v) { return 2 + static_cast<int>(v); };
  const auto enode = [n](EdgeId e) {
    return 2 + static_cast<int>(n) + static_cast<int>(e);
  };
  double positive = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    if (density > 0.0) dinic.AddArc(vnode(v), kSink, density);
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    const HEdge& edge = h.edge(e);
    if (edge.w > 0.0) {
      dinic.AddArc(kSource, enode(e), edge.w);
      positive += edge.w;
    }
    for (NodeId v : edge.nodes) {
      dinic.AddArc(enode(e), vnode(v), flow::kInfCapacity);
    }
  }
  const double cut = dinic.MaxFlow(kSource, kSink);
  ClosureOut out;
  out.value = positive - cut;
  const auto src = dinic.MinCutSourceSide(kSource);
  const auto sink = dinic.ResidualReachesSink(kSink);
  out.minimal.assign(n, 0);
  out.maximal.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    out.minimal[v] = src[static_cast<std::size_t>(vnode(v))];
    out.maximal[v] = !sink[static_cast<std::size_t>(vnode(v))];
  }
  return out;
}

double SetDensity(const Hypergraph& h, const std::vector<char>& s,
                  std::size_t* size_out) {
  std::size_t size = 0;
  for (char c : s) size += c ? 1 : 0;
  if (size_out != nullptr) *size_out = size;
  return size == 0 ? 0.0
                   : h.InducedEdgeWeight(s) / static_cast<double>(size);
}

}  // namespace

HyperDensestResult HyperDensestExact(const Hypergraph& h) {
  HyperDensestResult out;
  const NodeId n = h.num_nodes();
  KCORE_CHECK(n >= 1);
  out.in_set.assign(n, 0);
  if (h.total_weight() <= 0.0) {
    std::fill(out.in_set.begin(), out.in_set.end(), 1);
    out.density = 0.0;
    return out;
  }
  const double tol = 1e-9 * std::max(1.0, h.total_weight());
  std::vector<char> best(n, 1);
  double best_density = SetDensity(h, best, nullptr);
  while (true) {
    ++out.iterations;
    ClosureOut c = SolveClosure(h, best_density);
    if (c.value <= tol) break;
    std::size_t size = 0;
    const double cand = SetDensity(h, c.minimal, &size);
    if (size == 0 || cand <= best_density + tol) break;
    best_density = cand;
    best = c.minimal;
  }
  ClosureOut c = SolveClosure(h, best_density);
  std::size_t size = 0;
  const double maximal_density = SetDensity(h, c.maximal, &size);
  if (size > 0 && maximal_density >= best_density - tol) {
    out.in_set = c.maximal;
    out.density = maximal_density;
  } else {
    out.in_set = best;
    out.density = best_density;
  }
  return out;
}

HyperDensestResult HyperDensestGreedy(const Hypergraph& h) {
  const NodeId n = h.num_nodes();
  HyperDensestResult out;
  out.in_set.assign(n, 0);
  if (n == 0) return out;

  std::vector<double> deg(n);
  for (NodeId v = 0; v < n; ++v) deg[v] = h.WeightedDegree(v);
  std::vector<char> alive(n, 1);
  std::vector<char> edge_alive(h.num_edges(), 1);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (NodeId v = 0; v < n; ++v) heap.emplace(deg[v], v);

  double w_alive = h.total_weight();
  std::size_t count = n;
  double best_density = w_alive / static_cast<double>(count);
  std::vector<NodeId> removal_order;
  removal_order.reserve(n);
  std::size_t best_removed = 0;

  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (!alive[v] || d != deg[v]) continue;
    alive[v] = 0;
    removal_order.push_back(v);
    --count;
    for (EdgeId e : h.IncidentEdges(v)) {
      if (!edge_alive[e]) continue;
      edge_alive[e] = 0;
      w_alive -= h.edge(e).w;
      for (NodeId u : h.edge(e).nodes) {
        if (u != v && alive[u]) {
          deg[u] -= h.edge(e).w;
          heap.emplace(deg[u], u);
        }
      }
    }
    if (count > 0) {
      const double density = w_alive / static_cast<double>(count);
      if (density > best_density) {
        best_density = density;
        best_removed = removal_order.size();
      }
    }
  }
  std::fill(out.in_set.begin(), out.in_set.end(), 1);
  for (std::size_t i = 0; i < best_removed; ++i) {
    out.in_set[removal_order[i]] = 0;
  }
  out.density = best_density;
  return out;
}

HyperDensestResult HyperDensestBrute(const Hypergraph& h) {
  const NodeId n = h.num_nodes();
  KCORE_CHECK_MSG(n >= 1 && n <= 20, "brute hyper densest needs n <= 20");
  HyperDensestResult out;
  double best = -1.0;
  std::uint32_t best_mask = 0;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    double w = 0.0;
    for (const HEdge& e : h.edges()) {
      bool in = true;
      for (NodeId v : e.nodes) {
        if (!(mask >> v & 1u)) {
          in = false;
          break;
        }
      }
      if (in) w += e.w;
    }
    const double density = w / __builtin_popcount(mask);
    if (density > best + 1e-12 ||
        (density > best - 1e-12 &&
         __builtin_popcount(mask) > __builtin_popcount(best_mask))) {
      best = density;
      best_mask = mask;
    }
  }
  out.in_set.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) out.in_set[v] = (best_mask >> v) & 1u;
  out.density = best;
  return out;
}

std::vector<double> HyperCorenessBrute(const Hypergraph& h) {
  const NodeId n = h.num_nodes();
  KCORE_CHECK_MSG(n <= 16, "brute hyper coreness needs n <= 16");
  std::vector<double> core(n, 0.0);
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<double> deg(n, 0.0);
    for (const HEdge& e : h.edges()) {
      bool in = true;
      for (NodeId v : e.nodes) {
        if (!(mask >> v & 1u)) {
          in = false;
          break;
        }
      }
      if (in) {
        for (NodeId v : e.nodes) deg[v] += e.w;
      }
    }
    double min_deg = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < n; ++v) {
      if (mask >> v & 1u) min_deg = std::min(min_deg, deg[v]);
    }
    for (NodeId v = 0; v < n; ++v) {
      if ((mask >> v & 1u) && min_deg > core[v]) core[v] = min_deg;
    }
  }
  return core;
}

}  // namespace kcore::hyper
