// Community detection support: distributed (weak) densest subsets.
//
// The paper's Section I motivation: the density of a subgraph measures how
// likely its users form a community (Yang & Leskovec). A node cannot know
// whether a denser region exists many hops away without Omega(D) rounds —
// so the paper's weak formulation (Definition IV.1) returns a collection
// of disjoint candidate communities, each node knowing its leader, with at
// least one subset gamma-approximately densest.
//
// This example plants communities of varying density, runs the 4-phase
// pipeline (Algorithms 2, 4, 5, 6), and reports the discovered subsets
// against the planted structure and the exact rho*.
//
// Usage: community_density [--n=600] [--gamma=3] [--seed=11]
//                          [--threads=1] [--transport=shared] [--ranks=1]
//                          [--per-rank-compute=false]
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/densest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "seq/charikar.h"
#include "seq/densest_exact.h"
#include "transport_flag.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  kcore::util::Flags flags;
  flags.Parse(argc, argv);
  if (flags.Has("help")) {
    std::fputs(
        "usage: community_density [--n=600] [--gamma=3] [--seed=11]\n"
        "                         [--threads=1]\n"
        "                         [--transport=shared|serialized|process]\n"
        "                         [--ranks=1] [--per-rank-compute=false]\n"
        "                         [--help]\n",
        stdout);
    return 0;
  }
  const auto n = static_cast<kcore::graph::NodeId>(flags.GetInt("n", 600));
  const double gamma = flags.GetDouble("gamma", 3.0);
  const int threads = kcore::examples::ThreadsFromFlags(flags);
  const kcore::distsim::TransportKind transport =
      kcore::examples::TransportFromFlags(flags);
  const int ranks = kcore::examples::RanksFromFlags(flags);
  const bool per_rank =
      kcore::examples::PerRankComputeFromFlags(flags, transport);
  kcore::util::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 11)));

  // Planted communities of different densities + sparse background.
  const kcore::graph::NodeId communities = 6;
  const kcore::graph::Graph g =
      kcore::graph::PlantedPartition(n, communities, 0.25, 0.004, rng);
  kcore::examples::ValidateRankTopology(ranks, g.num_nodes());
  std::printf("graph: n=%u m=%zu communities=%u\n", g.num_nodes(),
              g.num_edges(), communities);

  const double rho = kcore::seq::MaxDensity(g);
  const auto charikar = kcore::seq::CharikarDensest(g);
  kcore::core::WeakDensestOptions opts;
  opts.gamma = gamma;
  opts.num_threads = threads;
  opts.transport = transport;
  opts.ranks = ranks;
  opts.per_rank_compute = per_rank;
  const auto r = kcore::core::RunWeakDensest(g, opts);

  std::printf(
      "rho* = %.3f (exact, flow); Charikar 2-approx = %.3f\n"
      "distributed pipeline: %d+%d+%d+%d = %d rounds, guarantee rho*/%.1f = "
      "%.3f\n\n",
      rho, charikar.density, r.rounds_phase1, r.rounds_phase2,
      r.rounds_phase3, r.rounds_phase4, r.rounds_total, gamma, rho / gamma);

  // Report discovered subsets, largest density first.
  auto subsets = r.subsets;
  std::sort(subsets.begin(), subsets.end(),
            [](const auto& a, const auto& b) { return a.density > b.density; });
  kcore::util::Table t(
      {"leader", "size", "density", "dominant planted community", "purity"});
  int shown = 0;
  for (const auto& s : subsets) {
    if (shown++ >= 8) break;
    // Which planted community dominates this subset?
    std::map<kcore::graph::NodeId, std::size_t> votes;
    for (auto v : s.members) ++votes[v % communities];
    kcore::graph::NodeId best_c = 0;
    std::size_t best_n = 0;
    for (const auto& [c, cnt] : votes) {
      if (cnt > best_n) {
        best_n = cnt;
        best_c = c;
      }
    }
    t.Row()
        .UInt(s.leader)
        .UInt(s.members.size())
        .Dbl(s.density, 3)
        .UInt(best_c)
        .Dbl(static_cast<double>(best_n) /
                 static_cast<double>(s.members.size()),
             2);
  }
  t.Print();

  const bool ok = r.best_density * gamma + 1e-7 >= rho;
  std::printf("\nbest returned density %.3f %s rho*/gamma = %.3f  (%s)\n",
              r.best_density, ok ? ">=" : "<", rho / gamma,
              ok ? "guarantee holds" : "GUARANTEE VIOLATED");
  return ok ? 0 : 1;
}
