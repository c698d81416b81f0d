#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/compact.h"
#include "core/elimination.h"
#include "core/montresor.h"
#include "core/update.h"
#include "graph/generators.h"
#include "seq/brute.h"
#include "seq/kcore.h"
#include "seq/local_density.h"
#include "util/rng.h"
#include "util/wire.h"

namespace kcore::core {
namespace {

using graph::Graph;
using graph::NodeId;

CompactResult RunCompact(const Graph& g, int rounds, double lambda = 0.0,
                  bool record = false) {
  CompactOptions opts;
  opts.rounds = rounds;
  opts.lambda = lambda;
  opts.record_rounds = record;
  return RunCompactElimination(g, opts);
}

TEST(RoundsFor, Formulas) {
  // T = ceil(log n / log(gamma/2)).
  EXPECT_EQ(RoundsForGamma(1024, 4.0), 10);
  EXPECT_EQ(RoundsForGamma(1000, 4.0), 10);
  EXPECT_EQ(RoundsForGamma(8, 6.0), 2);
  // T = ceil(log_{1+eps} n).
  EXPECT_EQ(RoundsForEpsilon(1024, 1.0), 10);
  EXPECT_GE(RoundsForEpsilon(1000, 0.1), 72);
  EXPECT_EQ(RoundsForEpsilon(1, 0.5), 1);
}

TEST(CompactElimination, CliqueIsExactAfterOneRound) {
  const Graph g = graph::Complete(6);
  const CompactResult r = RunCompact(g, 1);
  for (NodeId v = 0; v < 6; ++v) EXPECT_DOUBLE_EQ(r.b[v], 5.0);
}

TEST(CompactElimination, CycleIsExactAfterOneRound) {
  const Graph g = graph::Cycle(12);
  const CompactResult r = RunCompact(g, 1);
  for (NodeId v = 0; v < 12; ++v) EXPECT_DOUBLE_EQ(r.b[v], 2.0);
}

TEST(CompactElimination, PathNeedsLinearRoundsForEndpointsToPropagate) {
  // Path of 2k+1 nodes: the middle node's surviving number stays 2 (the
  // Figure I.1(b) phenomenon) until the elimination wave from the ends
  // reaches it — about k rounds — even though its coreness is 1.
  const NodeId n = 21;
  const Graph g = graph::Path(n);
  const NodeId mid = n / 2;
  for (int T : {1, 3, 5, 8}) {
    EXPECT_DOUBLE_EQ(RunCompact(g, T).b[mid], 2.0) << "T=" << T;
  }
  EXPECT_DOUBLE_EQ(RunCompact(g, static_cast<int>(n) / 2 + 1).b[mid], 1.0);
}

TEST(CompactElimination, IsolatedNodesGetZero) {
  graph::GraphBuilder b(4);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  const CompactResult r = RunCompact(g, 3);
  EXPECT_DOUBLE_EQ(r.b[2], 0.0);
  EXPECT_DOUBLE_EQ(r.b[3], 0.0);
  EXPECT_DOUBLE_EQ(r.b[0], 1.0);
}

// Lemma III.2: beta^T(v) >= c(v) for every T.
class LowerBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(LowerBoundProperty, SurvivingNumberAtLeastCoreness) {
  util::Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(20 + rng.NextBounded(60));
  Graph g = graph::ErdosRenyiGnp(n, 0.15, rng);
  if (GetParam() % 2 == 0) g = graph::WithUniformWeights(g, 0.3, 2.5, rng);
  const auto core = seq::WeightedCoreness(g);
  for (int T : {1, 2, 4, 8}) {
    const CompactResult r = RunCompact(g, T);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_GE(r.b[v], core[v] - 1e-9) << "T=" << T << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerBoundProperty, ::testing::Range(0, 15));

// Lemma III.3: beta^T(v) <= 2 n^{1/T} r(v).
class UpperBoundProperty : public ::testing::TestWithParam<int> {};

TEST_P(UpperBoundProperty, SurvivingNumberBoundedByMaximalDensity) {
  util::Rng rng(600 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(10 + rng.NextBounded(30));
  Graph g = graph::ErdosRenyiGnp(n, 0.25, rng);
  if (GetParam() % 2 == 0) g = graph::WithIntegerWeights(g, 3, rng);
  const auto r_exact = seq::MaximalDensities(g);
  for (int T : {1, 2, 3, 5, 9}) {
    const CompactResult res = RunCompact(g, T);
    const double factor =
        2.0 * std::pow(static_cast<double>(n), 1.0 / static_cast<double>(T));
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_LE(res.b[v], factor * r_exact[v] + 1e-7)
          << "T=" << T << " v=" << v << " r=" << r_exact[v];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpperBoundProperty, ::testing::Range(0, 15));

// Theorem I.1 end-to-end: T = ceil(log_{1+eps} n) gives a 2(1+eps)-approx
// of both c(v) and r(v).
class TheoremOne : public ::testing::TestWithParam<int> {};

TEST_P(TheoremOne, EpsilonGuarantee) {
  util::Rng rng(700 + static_cast<std::uint64_t>(GetParam()));
  const double eps = 0.25 + 0.25 * (GetParam() % 3);
  const NodeId n = static_cast<NodeId>(15 + rng.NextBounded(25));
  const Graph g = graph::WithIntegerWeights(
      graph::ErdosRenyiGnp(n, 0.3, rng), 4, rng);
  const int T = RoundsForEpsilon(n, eps);
  const CompactResult res = RunCompact(g, T);
  const auto c = seq::WeightedCoreness(g);
  const auto r = seq::MaximalDensities(g);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_GE(res.b[v], c[v] - 1e-9);
    EXPECT_LE(res.b[v], 2.0 * (1.0 + eps) * r[v] + 1e-7);
    EXPECT_LE(res.b[v], 2.0 * (1.0 + eps) * c[v] + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremOne, ::testing::Range(0, 12));

TEST(CompactElimination, MonotoneNonIncreasingPerRound) {
  util::Rng rng(42);
  const Graph g = graph::BarabasiAlbert(80, 3, rng);
  const CompactResult r = RunCompact(g, 12, 0.0, /*record=*/true);
  ASSERT_EQ(r.b_rounds.size(), 13u);
  for (std::size_t t = 1; t < r.b_rounds.size(); ++t) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(r.b_rounds[t][v], r.b_rounds[t - 1][v] + 1e-12)
          << "t=" << t << " v=" << v;
    }
  }
}

// Definition III.1 / Fact III.9 consistency: v survives T rounds of
// Algorithm 1 with threshold b iff beta^T(v) >= b.
class SurvivingNumberSemantics : public ::testing::TestWithParam<int> {};

TEST_P(SurvivingNumberSemantics, MatchesSingleThresholdRuns) {
  util::Rng rng(800 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(10 + rng.NextBounded(25));
  Graph g = graph::ErdosRenyiGnp(n, 0.25, rng);
  // Dyadic weights keep all degree sums exact in floating point, so the
  // compact procedure and the single-threshold replay agree bit-for-bit
  // (with arbitrary reals, differently-ordered sums can differ by 1 ulp
  // and flip a >= comparison; the paper assumes exact real arithmetic).
  if (GetParam() % 2 == 1) g = graph::WithDyadicWeights(g, 0.5, 2.0, rng);
  const int T = 1 + static_cast<int>(rng.NextBounded(6));
  const CompactResult res = RunCompact(g, T);
  for (NodeId v = 0; v < n; ++v) {
    if (res.b[v] > 0) {
      const EliminationRun at =
          RunSingleThreshold(g, res.b[v], T);
      EXPECT_TRUE(at.surviving[v])
          << "v must survive its own surviving number, T=" << T;
    }
    const double above = res.b[v] * (1 + 1e-9) + 1e-9;
    const EliminationRun kill = RunSingleThreshold(g, above, T);
    EXPECT_FALSE(kill.surviving[v])
        << "v must die above its surviving number, T=" << T;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SurvivingNumberSemantics,
                         ::testing::Range(0, 15));

// Montresor et al.: run-to-fixpoint equals the exact weighted coreness.
class MontresorFixpoint : public ::testing::TestWithParam<int> {};

TEST_P(MontresorFixpoint, ConvergesToCoreness) {
  util::Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(10 + rng.NextBounded(50));
  Graph g = graph::ErdosRenyiGnp(n, 0.2, rng);
  if (GetParam() % 3 == 0) g = graph::WithIntegerWeights(g, 3, rng);
  const ConvergenceResult r = RunToConvergence(g);
  const auto core = seq::WeightedCoreness(g);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_NEAR(r.coreness[v], core[v], 1e-9) << "v=" << v;
  }
  EXPECT_LE(r.rounds_executed, static_cast<int>(n) + 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MontresorFixpoint, ::testing::Range(0, 15));

TEST(Montresor, PathTakesLinearRounds) {
  // Constant-diameter variants aside, the path shows Omega(n) convergence:
  // the elimination wave moves one hop per round from the endpoints.
  const Graph g = graph::Path(41);
  const ConvergenceResult r = RunToConvergence(g);
  EXPECT_GE(r.last_change_round, 19);
  for (double c : r.coreness) EXPECT_DOUBLE_EQ(c, 1.0);
}

// Corollary III.10: Lambda-discretization sandwich.
class LambdaDiscretization : public ::testing::TestWithParam<int> {};

TEST_P(LambdaDiscretization, SandwichAndSmallerAlphabet) {
  util::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const double lambda = 0.1 + 0.2 * (GetParam() % 4);
  const NodeId n = static_cast<NodeId>(30 + rng.NextBounded(50));
  const Graph g = graph::WithUniformWeights(
      graph::BarabasiAlbert(n, 3, rng), 0.5, 3.0, rng);
  const int T = 8;
  const CompactResult exact = RunCompact(g, T, 0.0);
  const CompactResult disc = RunCompact(g, T, lambda);
  for (NodeId v = 0; v < n; ++v) {
    // Discretized values sit within one multiplicative step below exact.
    EXPECT_LE(disc.b[v], exact.b[v] + 1e-9);
    EXPECT_GE(disc.b[v] * (1 + lambda) * (1 + 1e-9),
              exact.b[v] * (1 - 1e-9))
        << "v=" << v;
  }
  // The broadcast alphabet shrinks (or at least never grows).
  for (std::size_t t = 1; t < exact.history.size(); ++t) {
    EXPECT_LE(disc.history[t].distinct_values,
              exact.history[t].distinct_values + 1)
        << "round " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LambdaDiscretization, ::testing::Range(0, 10));

TEST(CompactElimination, ThreadedMatchesSequential) {
  util::Rng rng(77);
  const Graph g = graph::BarabasiAlbert(500, 4, rng);
  CompactOptions o1;
  o1.rounds = 6;
  CompactOptions o4 = o1;
  o4.num_threads = 4;
  const CompactResult r1 = RunCompactElimination(g, o1);
  const CompactResult r4 = RunCompactElimination(g, o4);
  EXPECT_EQ(r1.b, r4.b);
}

// The compact round body as it was before rounds went allocation-free:
// fresh value/weight vectors per node-round, std::stable_sort on the
// persisted order, N copied out of every Update, and every node
// recomputing every round. A synchronous loop over a snapshot of b
// stands in for the engine.
struct ReferenceRun {
  std::vector<double> b;
  std::vector<std::vector<std::uint32_t>> order;
  std::vector<std::vector<std::uint32_t>> in_sets;
};

ReferenceRun ReferenceStart(const Graph& g, const CompactOptions& opts) {
  const NodeId n = g.num_nodes();
  ReferenceRun out;
  out.b.assign(n, std::numeric_limits<double>::infinity());
  out.order.resize(n);
  if (opts.track_orientation) out.in_sets.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.order[v].resize(g.Degree(v));
    std::iota(out.order[v].begin(), out.order[v].end(), 0u);
    if (opts.track_orientation) out.in_sets[v] = out.order[v];
  }
  return out;
}

// One synchronous round: every node updates from the neighbors' b of
// the previous round.
void ReferenceRound(const Graph& g, const CompactOptions& opts,
                    ReferenceRun& out) {
  const NodeId n = g.num_nodes();
  const std::vector<double> prev = out.b;
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.Neighbors(v);
    const std::size_t d = nbrs.size();
    if (d == 0) {
      out.b[v] = 0.0;
      continue;
    }
    std::vector<double> values(d), weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = prev[nbrs[i].to];
      weights[i] = nbrs[i].w;
    }
    std::vector<std::uint32_t>& ord = out.order[v];
    if (!opts.stateful_tiebreak) std::iota(ord.begin(), ord.end(), 0u);
    std::stable_sort(ord.begin(), ord.end(),
                     [&](std::uint32_t a, std::uint32_t c) {
                       return values[a] < values[c];
                     });
    double nb = 0.0;
    std::vector<std::uint32_t> chosen;
    double s = 0.0;
    for (std::size_t i = d; i-- > 0;) {
      s += weights[ord[i]];
      const double prev_value =
          i > 0 ? values[ord[i - 1]]
                : -std::numeric_limits<double>::infinity();
      if (s > prev_value) {
        const double bi = values[ord[i]];
        nb = s <= bi ? s : bi;
        chosen.assign(ord.begin() + static_cast<std::ptrdiff_t>(
                                        s <= bi ? i : i + 1),
                      ord.end());
        break;
      }
    }
    if (opts.lambda > 0.0) nb = RoundDownToPower(nb, opts.lambda);
    if (nb != out.b[v]) out.b[v] = nb;
    if (opts.track_orientation) {
      std::sort(chosen.begin(), chosen.end());
      out.in_sets[v] = std::move(chosen);
    }
  }
}

ReferenceRun ReferenceCompact(const Graph& g, const CompactOptions& opts) {
  ReferenceRun out = ReferenceStart(g, opts);
  for (int t = 0; t < opts.rounds; ++t) ReferenceRound(g, opts, out);
  return out;
}

TEST(CompactElimination, MatchesReferenceLoopOnWeightedGraphs) {
  // The goldens are unit-weight; this pins the allocation-free round
  // (slot reads, per-thread scratch, the hybrid stable sort) bit for bit
  // against the reference loop on real and integer weights, in-engine at
  // 1 and 4 threads and with per-rank compute at 2 ranks.
  util::Rng rng(31);
  const Graph base = graph::PowerLawConfiguration(1500, 2.2, 2, 200, rng);
  const std::vector<Graph> graphs = {
      graph::WithUniformWeights(base, 0.25, 4.0, rng),
      graph::WithIntegerWeights(base, 3, rng)};
  enum class Deploy { kOneThread, kFourThreads, kTwoRanks };
  for (const Graph& g : graphs) {
    for (double lambda : {0.0, 0.1}) {
      for (bool track : {false, true}) {
        if (track && lambda > 0.0) continue;  // N_v needs Lambda = R
        for (bool stateful : {true, false}) {
          CompactOptions opts;
          opts.rounds = 8;
          opts.lambda = lambda;
          opts.track_orientation = track;
          opts.stateful_tiebreak = stateful;
          const ReferenceRun ref = ReferenceCompact(g, opts);
          for (Deploy d :
               {Deploy::kOneThread, Deploy::kFourThreads, Deploy::kTwoRanks}) {
            CompactOptions o = opts;
            if (d == Deploy::kFourThreads) {
              o.num_threads = 4;
              o.balance_shards = true;
            } else if (d == Deploy::kTwoRanks) {
              o.transport = distsim::TransportKind::kProcess;
              o.ranks = 2;
              o.per_rank_compute = true;
            }
            const CompactResult r = RunCompactElimination(g, o);
            SCOPED_TRACE(::testing::Message()
                         << "lambda=" << lambda << " track=" << track
                         << " stateful=" << stateful
                         << " deploy=" << static_cast<int>(d));
            ASSERT_EQ(r.b.size(), ref.b.size());
            for (NodeId v = 0; v < g.num_nodes(); ++v) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(r.b[v]),
                        std::bit_cast<std::uint64_t>(ref.b[v]))
                  << "node " << v;
            }
            EXPECT_EQ(r.in_sets, ref.in_sets);
          }
        }
      }
    }
  }
}

TEST(CompactElimination, LoadingADifferentStateMidRunMatchesReferenceLoop) {
  // Skipping Update on unchanged neighbor broadcasts is exact only while
  // a node's state is the output of its own last Update. Mid-run, every
  // node loads the state of a run that is 7 rounds behind (other b,
  // orders and N_v) while the engine still shows this run's broadcasts,
  // most of them unchanged since the round before; the following rounds
  // must recompute from the loaded orders exactly as the reference loop
  // does.
  util::Rng rng(32);
  const Graph g = graph::WithUniformWeights(
      graph::PowerLawConfiguration(1500, 2.2, 2, 200, rng), 0.25, 4.0, rng);
  constexpr int kBefore = 10, kDonor = 3, kAfter = 6;
  for (bool track : {false, true}) {
    for (bool stateful : {true, false}) {
      CompactOptions opts;
      opts.rounds = kBefore;
      opts.track_orientation = track;
      opts.stateful_tiebreak = stateful;
      ReferenceRun ref = ReferenceCompact(g, opts);
      opts.rounds = kDonor;
      const ReferenceRun donor_ref = ReferenceCompact(g, opts);
      ref.order = donor_ref.order;
      ref.in_sets = donor_ref.in_sets;
      for (int t = 0; t < kAfter; ++t) ReferenceRound(g, opts, ref);

      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "track=" << track << " stateful="
                                          << stateful << " threads=" << threads);
        CompactElimination donor(g, opts);
        distsim::Engine donor_engine(g, 1);
        donor_engine.Run(donor, kDonor);

        CompactElimination proto(g, opts);
        distsim::Engine engine(g, threads);
        engine.Run(proto, kBefore);
        std::vector<std::uint8_t> blob;
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          blob.clear();
          util::WireAppender out(blob);
          donor.SaveNodeState(v, out);
          util::WireReader in(blob.data(), blob.size());
          proto.LoadNodeState(v, in);
          ASSERT_FALSE(in.failed());
          ASSERT_EQ(in.remaining(), 0u);
        }
        for (int t = 0; t < kAfter; ++t) engine.Step(proto);

        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(proto.b()[v]),
                    std::bit_cast<std::uint64_t>(ref.b[v]))
              << "node " << v;
        }
        EXPECT_EQ(proto.in_sets(), ref.in_sets);
      }
    }
  }
}

TEST(CompactElimination, LoadNodeStateRejectsAnOrderOfTheWrongLength) {
  const Graph g = graph::Star(5);
  CompactOptions opts;
  opts.rounds = 1;
  CompactElimination proto(g, opts);
  const std::size_t d = g.Degree(0);
  for (std::size_t len : {d - 1, d + 1}) {
    SCOPED_TRACE(len);
    std::vector<std::uint8_t> blob;
    util::WireAppender out(blob);
    out.Double(2.0);
    out.Fixed64(1);
    out.Varint(len);
    for (std::size_t i = 0; i < len; ++i) {
      out.Fixed32(static_cast<std::uint32_t>(i % d));
    }
    util::WireReader in(blob.data(), blob.size());
    proto.LoadNodeState(0, in);
    EXPECT_TRUE(in.failed());
  }
  // A well-formed blob still loads afterwards.
  std::vector<std::uint8_t> blob;
  util::WireAppender out(blob);
  proto.SaveNodeState(0, out);
  util::WireReader in(blob.data(), blob.size());
  proto.LoadNodeState(0, in);
  EXPECT_FALSE(in.failed());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(SingleThreshold, ShrinkingSurvivorSets) {
  util::Rng rng(88);
  const Graph g = graph::BarabasiAlbert(100, 3, rng);
  const EliminationRun r = RunSingleThreshold(g, 3.5, 10);
  // |A_t| is non-increasing.
  for (std::size_t t = 1; t < r.alive_per_round.size(); ++t) {
    EXPECT_LE(r.alive_per_round[t], r.alive_per_round[t - 1]);
  }
  // Fixpoint survivors all have degree >= threshold among survivors.
  std::vector<char> alive = r.surviving;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!alive[v]) continue;
    double deg = 0.0;
    for (const auto& a : g.Neighbors(v)) {
      if (a.to != v && alive[a.to]) deg += a.w;
    }
    // After 10 rounds this may not be a fixpoint yet, but survivors of the
    // previous round support the recorded one; weaker check: the exact
    // fixpoint is a subset of the T-round survivors.
  }
  const auto fix = seq::EliminationFixpoint(g, 3.5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (fix[v]) {
      EXPECT_TRUE(r.surviving[v]);
    }
  }
}

}  // namespace
}  // namespace kcore::core
