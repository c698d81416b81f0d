#include "library.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/binio.h"
#include "seq/kcore.h"
#include "util/rng.h"

namespace perfbench {

namespace graph = kcore::graph;
namespace dist = kcore::distsim;
namespace core = kcore::core;

graph::Graph GeneratePowerLaw(graph::NodeId n, std::uint64_t seed) {
  // The law graph::PowerLawConfiguration samples i.i.d. (alpha = 2.3,
  // d_min = 2), taken at the stratified quantiles u_i = (i + 0.5) / n
  // instead: every seed gets the same degree sequence, hubs included, and
  // only which node gets which degree and the stub wiring are random. With
  // i.i.d. degrees the few dozen hubs at d_max vary enough from seed to
  // seed to move the service's costs by 20% and more.
  constexpr double kAlpha = 2.3;
  constexpr double kDMin = 2.0;
  const double d_max = std::min<double>(1000, n / 10);
  kcore::util::Rng rng(seed);
  std::vector<graph::NodeId> degree(n);
  for (graph::NodeId i = 0; i < n; ++i) {
    const double u = (i + 0.5) / n;
    const double x = kDMin * std::pow(1.0 - u, -1.0 / (kAlpha - 1.0));
    degree[i] = static_cast<graph::NodeId>(std::min(std::floor(x), d_max));
  }
  rng.Shuffle(degree.begin(), degree.end());
  std::vector<graph::NodeId> stubs;
  for (graph::NodeId v = 0; v < n; ++v) stubs.insert(stubs.end(), degree[v], v);
  if (stubs.size() % 2 == 1) stubs.push_back(0);
  rng.Shuffle(stubs.begin(), stubs.end());
  // Simple graph: self-loops and repeated pairs are dropped, as in
  // PowerLawConfiguration.
  graph::GraphBuilder b(n);
  std::unordered_set<std::uint64_t> used;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const graph::NodeId u = std::min(stubs[i], stubs[i + 1]);
    const graph::NodeId v = std::max(stubs[i], stubs[i + 1]);
    if (u == v || !used.insert((std::uint64_t{u} << 32) | v).second) continue;
    b.AddEdge(u, v, 1.0);
  }
  return std::move(b).Build();
}

std::vector<graph::NodeId> NodePermutation(graph::NodeId n,
                                           std::uint64_t seed) {
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), graph::NodeId{0});
  kcore::util::Rng rng(seed);
  rng.Shuffle(perm.begin(), perm.end());
  return perm;
}

graph::Graph Relabel(const graph::Graph& g,
                     const std::vector<graph::NodeId>& perm) {
  graph::GraphBuilder b(g.num_nodes());
  b.Reserve(g.num_edges());
  for (const graph::Edge& e : g.edges()) b.AddEdge(perm[e.u], perm[e.v], e.w);
  return std::move(b).Build();
}

bool SaveGraph(const graph::Graph& g, const std::string& path) {
  return graph::SaveBinary(g, path);
}

std::optional<graph::Graph> LoadGraph(const std::string& path) {
  auto r = graph::LoadBinary(path);
  if (!r) return std::nullopt;
  return std::move(r->graph);
}

core::CompactOptions CorenessOptions(const graph::Graph& g, Deployment d,
                                     int parallelism) {
  core::CompactOptions o;
  o.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  o.lambda = 0.0;
  o.num_threads = parallelism;
  o.balance_shards = true;
  if (d == Deployment::kRanks) {
    o.transport = dist::TransportKind::kProcess;
    o.ranks = parallelism;
    o.per_rank_compute = true;
  }
  return o;
}

namespace {

Solve Summarize(std::vector<double> b, const std::vector<dist::RoundStats>& h,
                const dist::Totals& t) {
  Solve s;
  s.b = std::move(b);
  for (const dist::RoundStats& r : h) {
    s.node_rounds += r.active_nodes;
    s.distinct_values += r.distinct_values;
  }
  s.messages = t.messages;
  s.entries = t.entries;
  s.p2p_bytes = t.bytes_sent;
  s.bcast_bytes = t.bcast_bytes_sent;
  return s;
}

double ChildrenCpuS() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double SpanS(const Tracer& tracer, int span) {
  const Span& s = tracer.spans()[span];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

}  // namespace

Solve RunSolve(const graph::Graph& g, const core::CompactOptions& opts) {
  core::CompactResult r = core::RunCompactElimination(g, opts);
  return Summarize(std::move(r.b), r.history, r.totals);
}

TracedSolve RunTracedSolve(const graph::Graph& g,
                           const core::CompactOptions& opts, Tracer& tracer,
                           const char* label) {
  TracedSolve out;
  const double cpu0 = ChildrenCpuS();
  const int root = tracer.Begin(label);
  {
    dist::Engine engine(g, opts.num_threads);
    engine.SetSeed(opts.seed);
    engine.SetShardBalancing(opts.balance_shards);
    engine.SetRebalanceInterval(opts.rebalance_rounds);
    auto owned = std::make_unique<TracingTransport>(
        dist::MakeTransport(opts.transport), tracer);
    TracingTransport& transport = *owned;
    engine.SetTransport(std::move(owned));
    engine.SetRankCount(opts.ranks);
    engine.SetPerRankCompute(opts.per_rank_compute);
    core::CompactElimination proto(g, opts);
    TracingProtocol traced(proto, opts.rounds);

    const int start = tracer.Begin("engine.start", root, 0);
    transport.SetParent(start, 0);
    engine.Start(traced);
    tracer.End(start);
    transport.TakeCallNs();
    out.start_s = SpanS(tracer, start);

    std::vector<int> steps(static_cast<std::size_t>(opts.rounds) + 1, root);
    for (int t = 1; t <= opts.rounds; ++t) {
      steps[t] = tracer.Begin("engine.step", root, t);
      transport.SetParent(steps[t], t);
      engine.Step(traced);
      tracer.End(steps[t]);
      out.step_ms.push_back(SpanS(tracer, steps[t]) * 1e3);
      out.transport_in_steps_s +=
          static_cast<double>(transport.TakeCallNs()) / 1e9;
    }
    const int fetch = tracer.Begin("engine.fetch_state", root, opts.rounds);
    transport.SetParent(fetch, opts.rounds);
    engine.FetchRankState(traced);
    tracer.End(fetch);

    // Per-round compute accounting from the protocol decorator.
    const int threads = traced.threads_seen();
    for (int t = 1; t <= opts.rounds; ++t) {
      std::int64_t first = 0, last = 0, busy_max = 0, busy_sum = 0;
      int busy_threads = 0;
      for (int k = 0; k < threads; ++k) {
        const RoundAcc& a = traced.acc(k, t);
        if (a.calls == 0) continue;
        first = busy_threads == 0 ? a.first_ns : std::min(first, a.first_ns);
        last = std::max(last, a.last_ns);
        busy_max = std::max(busy_max, a.busy_ns);
        busy_sum += a.busy_ns;
        ++busy_threads;
        out.round_allocs += a.allocs;
        tracer.Add("compute.thread", a.first_ns, a.last_ns, steps[t], t, k + 1);
      }
      if (busy_threads == 0) continue;
      out.compute_span_ms.push_back(static_cast<double>(last - first) / 1e6);
      out.compute_busy_s += static_cast<double>(busy_sum) / 1e9;
      out.busy_max_s += static_cast<double>(busy_max) / 1e9;
      out.busy_mean_s += static_cast<double>(busy_sum) / busy_threads / 1e9;
      tracer.Add("engine.compute", first, last, steps[t], t);
    }
    out.exchange_s = static_cast<double>(transport.exchange_ns()) / 1e9;
    out.exchange_calls = transport.exchange_calls();
    out.rank_step_ms = transport.rank_step_ms();
    out.fetch_s = static_cast<double>(transport.fetch_ns()) / 1e9;
    out.solve = Summarize(proto.b(), engine.history(), engine.totals());
  }  // engine (and any rank workers) torn down here
  tracer.End(root);
  out.wall_s = SpanS(tracer, root);
  out.worker_cpu_s = ChildrenCpuS() - cpu0;
  return out;
}

graph::Graph GraphFromEdges(
    graph::NodeId n,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& edges) {
  graph::GraphBuilder b(n);
  b.Reserve(edges.size());
  for (const auto& [u, v] : edges) b.AddEdge(u, v, 1.0);
  return std::move(b).Build();
}

std::vector<double> ExactCoreness(const graph::Graph& g) {
  return kcore::seq::WeightedCoreness(g);
}

}  // namespace perfbench
