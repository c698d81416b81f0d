// Telecom / P2P load balancing with min-max edge orientation.
//
// Venkateswaran's motivation (cited in the paper): each edge is a job
// (link maintenance, data stream) that must be handled by one of its two
// endpoint machines; minimize the worst machine's load. This example
// builds a weighted peer-to-peer-like overlay (heavy-tailed weights =
// traffic volumes), runs the paper's primal-dual distributed orientation
// (Algorithm 2 + auxiliary sets, Theorem I.2), and compares against:
//   * the LP lower bound rho* (no orientation can beat it),
//   * a centralized greedy + local search,
//   * the two-phase Barenboim-Elkin-style baseline.
//
// Usage: p2p_orientation [--n=1500] [--eps=0.5] [--seed=3] [--threads=1]
//                        [--balance=false]
//                        [--transport=shared|serialized|process]
//                        [--ranks=1] [--per-rank-compute=false]
//
// --balance=true turns on the engine's degree-weighted shard balancing
// (results are bit-identical; on this heavy-tailed overlay it evens out
// per-thread load). --transport=serialized routes the simulator's p2p
// traffic through the serialized pack/alltoallv/unpack transport
// (bit-identical results; reports real wire bytes);
// --transport=process forks --ranks worker processes and exchanges over
// Unix-domain socketpairs (see docs/TRANSPORTS.md).
#include <cstdio>

#include "core/compact.h"
#include "core/orientation.h"
#include "core/two_phase.h"
#include "transport_flag.h"
#include "graph/generators.h"
#include "seq/densest_exact.h"
#include "seq/orientation_exact.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  kcore::util::Flags flags;
  flags.Parse(argc, argv);
  if (flags.Has("help")) {
    std::fputs(
        "usage: p2p_orientation [--n=1500] [--eps=0.5] [--seed=3]\n"
        "                       [--threads=1] [--balance=false]\n"
        "                       [--transport=shared|serialized|process]\n"
        "                       [--ranks=1] [--per-rank-compute=false]\n"
        "                       [--help]\n",
        stdout);
    return 0;
  }
  const auto n = static_cast<kcore::graph::NodeId>(flags.GetInt("n", 1500));
  const double eps = flags.GetDouble("eps", 0.5);
  kcore::util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 3)));

  // Overlay: power-law degrees; traffic weights Pareto, dyadic-quantized
  // so the orientation invariants operate in exact arithmetic.
  kcore::graph::Graph g = kcore::graph::QuantizeWeightsDyadic(
      kcore::graph::WithParetoWeights(
          kcore::graph::PowerLawConfiguration(n, 2.3, 2, 60, rng), 1.0, 1.7,
          rng));
  std::printf("overlay: n=%u m=%zu total traffic=%.1f\n", g.num_nodes(),
              g.num_edges(), g.total_weight());

  const int T = kcore::core::RoundsForEpsilon(n, eps);
  const double rho = kcore::seq::MaxDensity(g);

  const int threads = kcore::examples::ThreadsFromFlags(flags);
  const bool balance = flags.GetBool("balance", false);
  const auto transport = kcore::examples::TransportFromFlags(flags);
  const int ranks = kcore::examples::RanksFromFlags(flags);
  kcore::examples::ValidateRankTopology(ranks, g.num_nodes());
  const bool per_rank =
      kcore::examples::PerRankComputeFromFlags(flags, transport);
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

  kcore::util::Table t(
      {"method", "max load", "load/rho*", "rounds", "guarantee"});
  t.Row()
      .Str("LP lower bound rho*")
      .Dbl(rho, 2)
      .Dbl(1.0, 3)
      .Str("-")
      .Str("(unreachable in general)");
  t.Row()
      .Str("primal-dual distributed (ours)")
      .Dbl(ours.orientation.max_load, 2)
      .Dbl(ours.orientation.max_load / rho, 3)
      .Int(ours.rounds)
      .Str("2(1+eps) rho*");
  t.Row()
      .Str("two-phase baseline")
      .Dbl(two_phase.orientation.max_load, 2)
      .Dbl(two_phase.orientation.max_load / rho, 3)
      .Int(two_phase.phase1_rounds + two_phase.phase2_rounds)
      .Str("2(2+eps) rho*");
  t.Row()
      .Str("centralized greedy + local search")
      .Dbl(greedy.max_load, 2)
      .Dbl(greedy.max_load / rho, 3)
      .Str("-")
      .Str("(heuristic)");
  t.Print();

  std::printf(
      "\nconflicts resolved: %zu; uncovered edges: %zu (must be 0,\n"
      "Lemma III.11); per-node certificate: load_v <= beta_T(v).\n",
      ours.conflicts, ours.uncovered);
  return ours.uncovered == 0 ? 0 : 1;
}
