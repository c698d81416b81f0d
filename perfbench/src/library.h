// Every call the benchmark makes into the graph, engine, core and seq
// layers goes through this file, so a change to those signatures (e.g. one
// engine-configuration struct replacing the per-family option fields) is
// absorbed here and nowhere else. The dynamic layer is driven from
// service.cc.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compact.h"
#include "graph/graph.h"
#include "trace.h"

namespace perfbench {

// Power-law configuration graph: P(deg = d) ~ d^-2.3 on [2, d_max], unit
// weights, simple, with a seed-independent degree sequence (see
// library.cc). d_max is 1000, or n / 10 on tiny graphs.
kcore::graph::Graph GeneratePowerLaw(kcore::graph::NodeId n,
                                     std::uint64_t seed);
// A uniformly random permutation of [0, n), from the seed.
std::vector<kcore::graph::NodeId> NodePermutation(kcore::graph::NodeId n,
                                                  std::uint64_t seed);
// g with node v renamed perm[v].
kcore::graph::Graph Relabel(const kcore::graph::Graph& g,
                            const std::vector<kcore::graph::NodeId>& perm);
// The service-churn workload's base graph and base update stream come from
// these fixed seeds; the run's seed only permutes node ids (see service.cc).
inline constexpr std::uint64_t kServiceBaseSeed = 0x73657276696365ULL;
bool SaveGraph(const kcore::graph::Graph& g, const std::string& path);
std::optional<kcore::graph::Graph> LoadGraph(const std::string& path);

enum class Deployment { kThreads, kRanks };

// The compact-elimination options of the coreness-* workloads: eps = 0.5
// (gamma = 3), lambda = 0, degree-weighted shard balancing, `parallelism`
// threads, and for kRanks the process transport with `parallelism` ranks
// and per-rank compute.
kcore::core::CompactOptions CorenessOptions(const kcore::graph::Graph& g,
                                            Deployment d, int parallelism);

struct Solve {
  std::vector<double> b;
  std::uint64_t node_rounds = 0;  // sum of RoundStats::active_nodes
  std::uint64_t messages = 0;
  std::uint64_t entries = 0;
  std::uint64_t distinct_values = 0;  // summed over rounds
  std::uint64_t p2p_bytes = 0;        // Totals::bytes_sent
  std::uint64_t bcast_bytes = 0;      // Totals::bcast_bytes_sent
};

// core::RunCompactElimination, untouched.
Solve RunSolve(const kcore::graph::Graph& g,
               const kcore::core::CompactOptions& opts);

// Raw measurements of one traced solve; coreness.cc turns them into the
// per-layer metrics.
struct TracedSolve {
  Solve solve;
  double wall_s = 0;
  double start_s = 0;             // Engine::Start
  std::vector<double> step_ms;    // one per Engine::Step
  std::vector<double> compute_span_ms;  // first to last Round, per round
  double compute_busy_s = 0;      // summed Round self time, all threads
  // Per round, the busiest thread's Round time and the mean over the
  // threads that ran; summed over rounds.
  double busy_max_s = 0;
  double busy_mean_s = 0;
  double transport_in_steps_s = 0;  // Exchange + RankStep inside Steps
  double exchange_s = 0;
  std::uint64_t exchange_calls = 0;
  std::vector<double> rank_step_ms;
  double fetch_s = 0;
  double worker_cpu_s = 0;        // RUSAGE_CHILDREN delta
  std::uint64_t round_allocs = 0;  // allocations inside Round calls
};

// Mirrors RunCompactElimination step for step (same engine setters, Start,
// `rounds` Steps, FetchRankState) with TracingProtocol and TracingTransport
// installed. Spans go to `tracer` under a root span named `label`.
TracedSolve RunTracedSolve(const kcore::graph::Graph& g,
                           const kcore::core::CompactOptions& opts,
                           Tracer& tracer, const char* label);

// Unit-weight graph on n nodes with the given edges.
kcore::graph::Graph GraphFromEdges(
    kcore::graph::NodeId n,
    const std::vector<std::pair<kcore::graph::NodeId, kcore::graph::NodeId>>&
        edges);

// The exact reference: seq::WeightedCoreness.
std::vector<double> ExactCoreness(const kcore::graph::Graph& g);

}  // namespace perfbench
