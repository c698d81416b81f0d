// EXP-9: simulator throughput (google-benchmark).
//
// The LOCAL-model engine is the substrate for every experiment; this
// bench reports edge-rounds/sec for the compact elimination protocol and
// raw engine stepping across graph sizes, so the cost model behind the
// other experiments is explicit.
#include <benchmark/benchmark.h>

#include "core/compact.h"
#include "core/orientation.h"
#include "distsim/engine.h"
#include "graph/generators.h"
#include "seq/kcore.h"
#include "util/rng.h"

namespace {

using kcore::graph::Graph;

Graph MakeBa(std::int64_t n) {
  kcore::util::Rng rng(static_cast<std::uint64_t>(n));
  return kcore::graph::BarabasiAlbert(static_cast<kcore::graph::NodeId>(n), 4,
                                      rng);
}

void BM_CompactElimination(benchmark::State& state) {
  const Graph g = MakeBa(state.range(0));
  const int T = kcore::core::RoundsForEpsilon(g.num_nodes(), 0.5);
  for (auto _ : state) {
    kcore::core::CompactOptions opts;
    opts.rounds = T;
    benchmark::DoNotOptimize(kcore::core::RunCompactElimination(g, opts));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()) * T);
  state.counters["edge_rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()) * T),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CompactElimination)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_OrientationPipeline(benchmark::State& state) {
  const Graph g = MakeBa(state.range(0));
  const int T = kcore::core::RoundsForEpsilon(g.num_nodes(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kcore::core::RunDistributedOrientation(g, T));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()) * T);
}
BENCHMARK(BM_OrientationPipeline)->Arg(1000)->Arg(4000);

// Raw engine overhead: a protocol that only re-broadcasts one value.
class EchoProtocol : public kcore::distsim::Protocol {
 public:
  void Init(kcore::distsim::NodeContext& ctx) override {
    ctx.Broadcast({1.0});
  }
  void Round(kcore::distsim::NodeContext& ctx) override {
    double sum = 0.0;
    for (std::size_t i = 0; i < ctx.neighbors().size(); ++i) {
      const kcore::distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (p) sum += p[0];
    }
    benchmark::DoNotOptimize(sum);
    ctx.Broadcast({1.0});
  }
};

void BM_EngineStep(benchmark::State& state) {
  const Graph g = MakeBa(state.range(0));
  for (auto _ : state) {
    kcore::distsim::Engine engine(g);
    EchoProtocol proto;
    engine.Run(proto, 10);
    benchmark::DoNotOptimize(engine.totals().messages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()) * 10);
}
BENCHMARK(BM_EngineStep)->Arg(1000)->Arg(8000);

void BM_WeightedCorenessExact(benchmark::State& state) {
  const Graph g = MakeBa(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kcore::seq::WeightedCoreness(g));
  }
}
BENCHMARK(BM_WeightedCorenessExact)->Arg(4000)->Arg(16000);

}  // namespace

BENCHMARK_MAIN();
