// kcore_tool — command-line front end to the whole library.
//
// Subcommands (first positional argument):
//   coreness     approximate + exact coreness of a graph
//   orientation  distributed min-max edge orientation + baselines
//   densest      weak densest subsets + exact rho* + Charikar + streaming
//   decompose    full diminishingly-dense decomposition (layers, r(v))
//   stats        basic graph statistics (n, m, degrees, diameter bound)
//   generate     write a synthetic graph to an edge-list file
//
// Graph input: --file=PATH (edge list "u v [w]"), or a generator:
//   --graph=ba|er|ws|powerlaw|rmat|community [--n=N] [--seed=S]
// --threads=K runs the simulator's round scheduler on K pool workers
// (results are bit-identical to --threads=1). --balance=true adds
// degree-weighted shard balancing, which evens per-worker load on
// heavy-tailed graphs (still bit-identical).
// --transport={shared,serialized,process} picks the simulator's message
// transport: the zero-copy shared-memory path (default), the serialized
// pack/alltoallv/unpack path that reports real wire bytes, or the
// multi-process backend that forks --ranks worker processes and
// exchanges over Unix-domain socketpairs (all bit-identical; see
// docs/TRANSPORTS.md). --per-rank-compute=true additionally moves the
// compute phase into those workers (each owns its node slice end to
// end; still bit-identical).
//
// Examples:
//   kcore_tool generate --graph=ba --n=5000 --out=/tmp/ba.txt
//   kcore_tool coreness --file=/tmp/ba.txt --eps=0.25
//   kcore_tool densest --graph=community --n=600 --gamma=3
#include <cstdio>
#include <string>

#include "core/compact.h"
#include "core/densest.h"
#include "core/montresor.h"
#include "core/orientation.h"
#include "core/two_phase.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "seq/charikar.h"
#include "seq/densest_exact.h"
#include "seq/kcore.h"
#include "seq/local_density.h"
#include "seq/orientation_exact.h"
#include "seq/streaming.h"
#include "transport_flag.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using kcore::graph::Graph;
using kcore::graph::NodeId;
using kcore::util::Flags;

Graph MakeGraph(const Flags& flags) {
  if (flags.Has("file")) {
    auto loaded = kcore::graph::LoadEdgeList(flags.GetString("file"));
    if (!loaded) {
      std::fprintf(stderr, "error: cannot load %s\n",
                   flags.GetString("file").c_str());
      std::exit(1);
    }
    return std::move(loaded->graph);
  }
  const auto n = static_cast<NodeId>(flags.GetInt("n", 1000));
  kcore::util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  const std::string kind = flags.GetString("graph", "ba");
  if (kind == "er") return kcore::graph::ErdosRenyiGnp(n, 8.0 / n, rng);
  if (kind == "ws") return kcore::graph::WattsStrogatz(n, 3, 0.1, rng);
  if (kind == "powerlaw") {
    return kcore::graph::PowerLawConfiguration(n, 2.3, 2, 60, rng);
  }
  if (kind == "rmat") return kcore::graph::Rmat(12, 6, 0.57, 0.19, 0.19, rng);
  if (kind == "community") {
    return kcore::graph::PlantedPartition(n, 6, 0.2, 0.004, rng);
  }
  if (kind == "ba") return kcore::graph::BarabasiAlbert(n, 3, rng);
  std::fprintf(stderr, "error: unknown --graph=%s\n", kind.c_str());
  std::exit(1);
}

int CmdStats(const Flags& flags) {
  const Graph g = MakeGraph(flags);
  const auto comps = kcore::graph::ConnectedComponents(g);
  std::printf("n           %u\n", g.num_nodes());
  std::printf("m           %zu\n", g.num_edges());
  std::printf("w(E)        %.4f\n", g.total_weight());
  std::printf("max degree  %zu\n", g.MaxDegree());
  std::printf("components  %u\n", comps.count);
  std::printf("diameter >= %u (double sweep)\n",
              kcore::graph::DoubleSweepDiameterLowerBound(g));
  std::printf("degeneracy  %u\n", kcore::seq::Degeneracy(g));
  std::printf("rho* (flow) %.4f\n", kcore::seq::MaxDensity(g));
  return 0;
}

int CmdCoreness(const Flags& flags) {
  const Graph g = MakeGraph(flags);
  const double eps = flags.GetDouble("eps", 0.5);
  const int T = kcore::core::RoundsForEpsilon(g.num_nodes(), eps);
  kcore::core::CompactOptions opts;
  opts.rounds = T;
  opts.lambda = flags.GetDouble("lambda", 0.0);
  opts.num_threads = kcore::examples::ThreadsFromFlags(flags);
  opts.balance_shards = flags.GetBool("balance", false);
  opts.transport = kcore::examples::TransportFromFlags(flags);
  opts.ranks = kcore::examples::RanksFromFlags(flags);
  kcore::examples::ValidateRankTopology(opts.ranks, g.num_nodes());
  opts.per_rank_compute =
      kcore::examples::PerRankComputeFromFlags(flags, opts.transport);
  const auto res = kcore::core::RunCompactElimination(g, opts);
  const auto exact = kcore::seq::WeightedCoreness(g);
  std::vector<double> ratios;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (exact[v] > 0) ratios.push_back(res.b[v] / exact[v]);
  }
  std::printf("T=%d rounds, messages=%zu, lambda=%.3f\n", T,
              res.totals.messages, opts.lambda);
  std::printf("ratio beta/c: %s\n",
              kcore::util::Summarize(ratios).ToString().c_str());
  if (flags.GetBool("montresor")) {
    const auto conv = kcore::core::RunToConvergence(
        g, -1, opts.num_threads, opts.seed, opts.balance_shards,
        opts.transport, opts.ranks, opts.per_rank_compute);
    std::printf("run-to-exact (Montresor): %d rounds, %zu messages\n",
                conv.last_change_round, conv.totals.messages);
  }
  if (flags.Has("out")) {
    kcore::util::Table t({"node", "beta_T", "coreness"});
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      t.Row().UInt(v).Dbl(res.b[v]).Dbl(exact[v]);
    }
    std::FILE* f = std::fopen(flags.GetString("out").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   flags.GetString("out").c_str());
      return 1;
    }
    const std::string csv = t.ToCsv();
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", flags.GetString("out").c_str());
  }
  return 0;
}

int CmdOrientation(const Flags& flags) {
  const Graph g = MakeGraph(flags);
  const double eps = flags.GetDouble("eps", 0.5);
  const int threads = kcore::examples::ThreadsFromFlags(flags);
  const bool balance = flags.GetBool("balance", false);
  const auto transport = kcore::examples::TransportFromFlags(flags);
  const int ranks = kcore::examples::RanksFromFlags(flags);
  kcore::examples::ValidateRankTopology(ranks, g.num_nodes());
  const bool per_rank =
      kcore::examples::PerRankComputeFromFlags(flags, transport);
  const int T = kcore::core::RoundsForEpsilon(g.num_nodes(), eps);
  const double rho = kcore::seq::MaxDensity(g);
  kcore::core::CompactOptions engine;
  engine.num_threads = threads;
  engine.balance_shards = balance;
  engine.transport = transport;
  engine.ranks = ranks;
  engine.per_rank_compute = per_rank;
  const auto ours = kcore::core::RunDistributedOrientation(
      g, T, kcore::core::ConflictRule::kLowerLoad, engine);
  const auto two_phase = kcore::core::RunTwoPhaseOrientation(
      g, T, eps, -1, threads, kcore::distsim::kDefaultMasterSeed, balance,
      transport, ranks, per_rank);
  auto greedy = kcore::seq::GreedyOrientation(g);
  kcore::seq::LocalSearchImprove(g, greedy);
  kcore::util::Table t({"method", "max load", "load/rho*", "rounds"});
  t.Row().Str("rho* lower bound").Dbl(rho, 3).Dbl(1.0).Str("-");
  t.Row()
      .Str("primal-dual (ours)")
      .Dbl(ours.orientation.max_load, 3)
      .Dbl(ours.orientation.max_load / rho, 3)
      .Int(ours.rounds);
  t.Row()
      .Str("two-phase baseline")
      .Dbl(two_phase.orientation.max_load, 3)
      .Dbl(two_phase.orientation.max_load / rho, 3)
      .Int(two_phase.phase1_rounds + two_phase.phase2_rounds);
  t.Row()
      .Str("greedy+local search")
      .Dbl(greedy.max_load, 3)
      .Dbl(greedy.max_load / rho, 3)
      .Str("-");
  t.Print();
  return ours.uncovered == 0 ? 0 : 1;
}

int CmdDensest(const Flags& flags) {
  const Graph g = MakeGraph(flags);
  const double gamma = flags.GetDouble("gamma", 3.0);
  const double rho = kcore::seq::MaxDensity(g);
  const auto weak = kcore::core::RunWeakDensest(
      g, gamma, -1, kcore::examples::ThreadsFromFlags(flags));
  const auto charikar = kcore::seq::CharikarDensest(g);
  const auto streaming = kcore::seq::StreamingDensest(g, gamma / 2 - 1);
  kcore::util::Table t({"method", "density", "density/rho*", "rounds/passes"});
  t.Row().Str("rho* (exact, flow)").Dbl(rho, 3).Dbl(1.0).Str("-");
  t.Row()
      .Str("weak densest (distributed)")
      .Dbl(weak.best_density, 3)
      .Dbl(rho > 0 ? weak.best_density / rho : 1, 3)
      .Int(weak.rounds_total);
  t.Row()
      .Str("charikar greedy")
      .Dbl(charikar.density, 3)
      .Dbl(rho > 0 ? charikar.density / rho : 1, 3)
      .Str("-");
  t.Row()
      .Str("bahmani streaming")
      .Dbl(streaming.density, 3)
      .Dbl(rho > 0 ? streaming.density / rho : 1, 3)
      .Int(streaming.passes);
  t.Print();
  std::printf("subsets returned: %zu; best leader: %u\n", weak.subsets.size(),
              weak.subsets.empty() ? kcore::graph::kInvalidNode
                                   : weak.subsets.front().leader);
  return 0;
}

int CmdDecompose(const Flags& flags) {
  const Graph g = MakeGraph(flags);
  const auto d = kcore::seq::DiminishinglyDenseDecomposition(g);
  kcore::util::Table t({"layer", "size", "density"});
  for (std::size_t i = 0; i < d.layer_density.size() && i < 25; ++i) {
    t.Row().UInt(i).UInt(d.layer_size[i]).Dbl(d.layer_density[i], 4);
  }
  t.Print();
  if (d.layer_density.size() > 25) {
    std::printf("... (%zu layers total)\n", d.layer_density.size());
  }
  return 0;
}

int CmdGenerate(const Flags& flags) {
  const Graph g = MakeGraph(flags);
  const std::string out = flags.GetString("out", "graph.txt");
  if (!kcore::graph::SaveEdgeList(g, out)) return 1;
  std::printf("wrote %s (n=%u m=%zu)\n", out.c_str(), g.num_nodes(),
              g.num_edges());
  return 0;
}

constexpr const char kUsage[] =
    "usage: kcore_tool <coreness|orientation|densest|decompose|stats|"
    "generate>\n"
    "                  [--file=PATH | --graph=KIND --n=N --seed=S] "
    "[options]\n"
    "\n"
    "Graph input:\n"
    "  --file=PATH     edge list \"u v [w]\"\n"
    "  --graph=KIND    ba|er|ws|powerlaw|rmat|community  [--n=N] "
    "[--seed=S]\n"
    "\n"
    "Simulator options (coreness / orientation):\n"
    "  --eps=E         approximation slack (default 0.5)\n"
    "  --lambda=L      Lambda-discretization parameter (coreness)\n"
    "  --threads=K     round-scheduler pool workers (bit-identical "
    "results)\n"
    "  --balance=BOOL  degree-weighted shard balancing\n"
    "  --transport=T   shared|serialized|process message transport\n"
    "  --ranks=R       worker processes for --transport=process "
    "(default 1)\n"
    "  --per-rank-compute=BOOL  run compute inside the rank workers "
    "(process transport only)\n"
    "  --montresor     also run the run-to-convergence baseline "
    "(coreness)\n"
    "  --out=PATH      write per-node results (coreness) / generated "
    "graph (generate)\n"
    "  --gamma=G       density slack (densest)\n"
    "  --help          this text\n";

void Usage() { std::fputs(kUsage, stderr); }

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (flags.positional().empty()) {
    Usage();
    return 2;
  }
  const std::string cmd = flags.positional()[0];
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "coreness") return CmdCoreness(flags);
  if (cmd == "orientation") return CmdOrientation(flags);
  if (cmd == "densest") return CmdDensest(flags);
  if (cmd == "decompose") return CmdDecompose(flags);
  if (cmd == "generate") return CmdGenerate(flags);
  Usage();
  return 2;
}
