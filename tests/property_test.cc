// Cross-cutting structural properties that tie several modules together:
// quotient-graph algebra, elimination equivalences across implementations,
// and decomposition invariants on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/compact.h"
#include "core/densest.h"
#include "core/elimination.h"
#include "core/two_phase.h"
#include "directed/dcore_protocol.h"
#include "directed/digraph.h"
#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/generators.h"
#include "graph/quotient.h"
#include "hyper/helim_protocol.h"
#include "hyper/hypergraph.h"
#include "seq/brute.h"
#include "seq/charikar.h"
#include "seq/densest_exact.h"
#include "seq/kcore.h"
#include "seq/local_density.h"
#include "seq/streaming.h"
#include "util/rng.h"
#include "util/wire.h"

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;

// Quotient composition: removing B1 then B2 equals removing B1 ∪ B2
// (Definition II.2 is a congruence).
class QuotientComposition : public ::testing::TestWithParam<int> {};

TEST_P(QuotientComposition, TwoStepEqualsOneStep) {
  util::Rng rng(3300 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(6 + rng.NextBounded(20));
  const Graph g = graph::WithIntegerWeights(
      graph::ErdosRenyiGnp(n, 0.35, rng), 3, rng);
  std::vector<char> b1(n, 0);
  std::vector<char> b12(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    b1[v] = rng.NextBool(0.3) ? 1 : 0;
    b12[v] = b1[v];
  }
  const auto q1 = graph::QuotientGraph(g, b1);
  // Second batch, expressed in q1's ids.
  std::vector<char> b2(q1.graph.num_nodes(), 0);
  for (NodeId v = 0; v < q1.graph.num_nodes(); ++v) {
    if (rng.NextBool(0.3)) {
      b2[v] = 1;
      b12[q1.new_to_old[v]] = 1;
    }
  }
  const auto q2 = graph::QuotientGraph(q1.graph, b2);
  const auto q_direct = graph::QuotientGraph(g, b12);
  ASSERT_EQ(q2.graph.num_nodes(), q_direct.graph.num_nodes());
  EXPECT_NEAR(q2.graph.total_weight(), q_direct.graph.total_weight(), 1e-9);
  for (NodeId v = 0; v < q2.graph.num_nodes(); ++v) {
    // Node correspondence: both keep survivors in increasing old-id order.
    EXPECT_NEAR(q2.graph.WeightedDegree(v), q_direct.graph.WeightedDegree(v),
                1e-9)
        << "v=" << v;
    EXPECT_NEAR(q2.graph.SelfLoopWeight(v), q_direct.graph.SelfLoopWeight(v),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotientComposition, ::testing::Range(0, 25));

// The distributed Algorithm 1 and the centralized fixpoint oracle agree
// round by round (same synchronous semantics).
class EliminationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EliminationEquivalence, DistributedMatchesCentralized) {
  util::Rng rng(3400 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(8 + rng.NextBounded(40));
  Graph g = graph::ErdosRenyiGnp(n, 0.2, rng);
  if (GetParam() % 2 == 0) g = graph::WithIntegerWeights(g, 3, rng);
  const double b = 0.5 + static_cast<double>(rng.NextBounded(6));
  const int T = 1 + static_cast<int>(rng.NextBounded(8));
  const auto dist = core::RunSingleThreshold(g, b, T);
  const auto central = seq::EliminationFixpoint(g, b, T);
  EXPECT_EQ(dist.surviving, central);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EliminationEquivalence,
                         ::testing::Range(0, 30));

// rho* dominates every density notion we compute, and the approximation
// chain streaming <= charikar <= rho* orders as theory predicts.
class DensityChain : public ::testing::TestWithParam<int> {};

TEST_P(DensityChain, OrderingHolds) {
  util::Rng rng(3500 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(12 + rng.NextBounded(50));
  Graph g = graph::ErdosRenyiGnp(n, 0.15, rng);
  if (GetParam() % 2 == 0) g = graph::WithUniformWeights(g, 0.3, 2.0, rng);
  const double rho = seq::MaxDensity(g);
  const double charikar = seq::CharikarDensest(g).density;
  const double streaming = seq::StreamingDensest(g, 0.5).density;
  EXPECT_LE(charikar, rho + 1e-9);
  EXPECT_LE(streaming, rho + 1e-9);
  EXPECT_GE(2.0 * charikar + 1e-9, rho);
  EXPECT_GE(3.0 * streaming + 1e-9, rho);  // 2(1+0.5)
  // rho* itself is at least the whole-graph density and the max r(v).
  EXPECT_GE(rho + 1e-9, g.Density());
  const auto r = seq::MaximalDensities(g);
  for (NodeId v = 0; v < n; ++v) EXPECT_LE(r[v], rho + 1e-7);
  // max r(v) equals rho* (the first layer of the decomposition).
  const double rmax = *std::max_element(r.begin(), r.end());
  EXPECT_NEAR(rmax, rho, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityChain, ::testing::Range(0, 25));

// Coreness is monotone under edge addition; rho* too.
class Monotonicity : public ::testing::TestWithParam<int> {};

TEST_P(Monotonicity, AddingEdgesNeverDecreasesCoreOrDensity) {
  util::Rng rng(3600 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(8 + rng.NextBounded(20));
  const Graph g = graph::ErdosRenyiGnp(n, 0.2, rng);
  // Add a random extra edge.
  const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
  NodeId v = static_cast<NodeId>(rng.NextBounded(n));
  if (u == v) v = (v + 1) % n;
  graph::GraphBuilder builder(n);
  for (const auto& e : g.edges()) builder.AddEdge(e.u, e.v, e.w);
  builder.AddEdge(u, v, 1.0);
  const Graph g2 = std::move(builder).Build();

  const auto c1 = seq::WeightedCoreness(g);
  const auto c2 = seq::WeightedCoreness(g2);
  for (NodeId x = 0; x < n; ++x) {
    EXPECT_GE(c2[x], c1[x] - 1e-9);
    EXPECT_LE(c2[x], c1[x] + 1.0 + 1e-9);  // one unit edge adds <= 1
  }
  EXPECT_GE(seq::MaxDensity(g2) + 1e-9, seq::MaxDensity(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Monotonicity, ::testing::Range(0, 25));

// Lemma III.4 / Corollary III.6 on quotient graphs too (the decomposition
// recurses through them, so the sandwich must survive self-loops).
class SandwichOnQuotients : public ::testing::TestWithParam<int> {};

TEST_P(SandwichOnQuotients, HoldsWithSelfLoops) {
  util::Rng rng(3700 + static_cast<std::uint64_t>(GetParam()));
  // Stay within the brute oracles' subset-enumeration limits.
  const NodeId n = static_cast<NodeId>(6 + rng.NextBounded(10));
  const Graph g = graph::WithIntegerWeights(
      graph::ErdosRenyiGnp(n, 0.4, rng), 3, rng);
  std::vector<char> remove(n, 0);
  for (NodeId v = 0; v < n; ++v) remove[v] = rng.NextBool(0.3) ? 1 : 0;
  const auto q = graph::QuotientGraph(g, remove);
  if (q.graph.num_nodes() == 0) return;
  const auto c = seq::BruteCoreness(q.graph);
  const auto r = seq::BruteMaximalDensities(q.graph);
  for (NodeId v = 0; v < q.graph.num_nodes(); ++v) {
    EXPECT_LE(r[v], c[v] + 1e-9) << "r <= c (Lemma III.4)";
    EXPECT_LE(c[v], 2.0 * r[v] + 1e-9) << "c <= 2r (Corollary III.6)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SandwichOnQuotients, ::testing::Range(0, 20));

// --- Message shapes of the engine-ported satellite families ---------------

void ExpectBitwiseEqual(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "i=" << i << " a=" << a[i] << " b=" << b[i];
  }
}

// Hyperedge incidence state (surviving number + tie-break permutation)
// round-trips through the util::Wire codec: SaveNodeState into a buffer,
// LoadNodeState into a fresh protocol instance, no bytes left over, same
// bits out — including the pre-run +inf sentinels, which must survive the
// Double bit-pattern encoding.
class HyperStateWireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HyperStateWireRoundTrip, SaveLoadIsIdentity) {
  util::Rng rng(3800 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(10 + rng.NextBounded(30));
  const std::size_t r = 2 + rng.NextBounded(3);
  const hyper::Hypergraph h =
      hyper::RandomUniform(n, 2 * n, static_cast<NodeId>(r), rng);

  const auto round_trip = [&](const hyper::HyperEliminationProtocol& src) {
    hyper::HyperEliminationProtocol dst(h);
    std::vector<std::uint8_t> buf;
    for (NodeId v = 0; v < n; ++v) {
      buf.clear();
      util::WireAppender ap(buf);
      src.SaveNodeState(v, ap);
      util::WireReader rd(buf.data(), buf.size());
      dst.LoadNodeState(v, rd);
      EXPECT_FALSE(rd.failed()) << "v=" << v;
      EXPECT_EQ(rd.remaining(), 0u) << "trailing bytes for v=" << v;
    }
    ExpectBitwiseEqual(dst.b(), src.b());
  };

  // Pre-run state: every surviving number is the +inf sentinel.
  hyper::HyperEliminationProtocol fresh(h);
  round_trip(fresh);

  // Post-run state: values shaped by the elimination.
  hyper::HyperEliminationProtocol ran(h);
  distsim::Engine engine(ran.substrate(), 1);
  engine.Run(ran, 1 + static_cast<int>(rng.NextBounded(5)));
  round_trip(ran);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyperStateWireRoundTrip,
                         ::testing::Range(0, 20));

// Directed per-node state (surviving number, activity flag, in-arc
// permutation) survives pack -> exchange -> unpack: the Save/Load
// round-trip is an identity, and a serialized-transport run — where every
// in/out-degree contribution crosses the wire as encoded bytes — lands on
// the same bits as the zero-copy shared-memory run.
class DCoreStateWireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DCoreStateWireRoundTrip, SaveLoadIsIdentityAndWireRunsMatch) {
  util::Rng rng(3900 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(10 + rng.NextBounded(30));
  const directed::Digraph g = directed::RandomDigraph(n, 0.2, rng);
  const double l = static_cast<double>(rng.NextBounded(3));
  const int T = 1 + static_cast<int>(rng.NextBounded(5));

  directed::DCoreProtocol src(g, l);
  distsim::Engine engine(src.substrate(), 1);
  engine.Run(src, T);

  directed::DCoreProtocol dst(g, l);
  std::vector<std::uint8_t> buf;
  for (NodeId v = 0; v < n; ++v) {
    buf.clear();
    util::WireAppender ap(buf);
    src.SaveNodeState(v, ap);
    util::WireReader rd(buf.data(), buf.size());
    dst.LoadNodeState(v, rd);
    EXPECT_FALSE(rd.failed()) << "v=" << v;
    EXPECT_EQ(rd.remaining(), 0u) << "trailing bytes for v=" << v;
  }
  ExpectBitwiseEqual(dst.b(), src.b());
  EXPECT_EQ(dst.active(), src.active());

  directed::DCoreElimOptions shared;
  shared.rounds = T;
  directed::DCoreElimOptions wired = shared;
  wired.transport = distsim::TransportKind::kSerialized;
  const auto a = directed::RunDCoreElimination(g, l, shared);
  const auto b = directed::RunDCoreElimination(g, l, wired);
  ExpectBitwiseEqual(b.b, a.b);
  EXPECT_EQ(b.active, a.active);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DCoreStateWireRoundTrip,
                         ::testing::Range(0, 20));

// The densest pipeline's density ratios (deg' / 2 num' picked in phase 4,
// the reported subset densities, and the phase-1 surviving numbers) stay
// NaN/Inf-free on arbitrary inputs — including graphs with isolated
// nodes, where a naive 0/0 would poison the argmax.
class DensestDensityRatios : public ::testing::TestWithParam<int> {};

TEST_P(DensestDensityRatios, NaNAndInfFree) {
  util::Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const NodeId n = static_cast<NodeId>(12 + rng.NextBounded(50));
  // Sparse enough that isolated nodes and tiny components actually occur.
  const Graph g = graph::ErdosRenyiGnp(n, 0.05, rng);
  core::WeakDensestOptions opts;
  opts.gamma = 2.5 + static_cast<double>(rng.NextBounded(2));
  opts.pipelined_aggregation = (GetParam() % 2 == 1);
  const core::WeakDensestResult res = core::RunWeakDensest(g, opts);

  EXPECT_TRUE(std::isfinite(res.best_density)) << res.best_density;
  EXPECT_GE(res.best_density, 0.0);
  for (const core::DensestSubsetOut& s : res.subsets) {
    EXPECT_TRUE(std::isfinite(s.density)) << "leader=" << s.leader;
    EXPECT_GE(s.density, 0.0);
    EXPECT_FALSE(s.members.empty()) << "leader=" << s.leader;
  }
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_FALSE(std::isnan(res.b[v])) << "v=" << v;
    EXPECT_TRUE(std::isfinite(res.b[v])) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensestDensityRatios, ::testing::Range(0, 20));

// A rank worker loads every node's state blob from a frame: a short or
// garbled blob must fail the reader — which the worker's block-length
// check turns into a named error — never abort inside the wire codec.
// Every strict prefix of every node's saved state is fed back, for each
// protocol family that supports per-rank compute; the whole blob then
// loads back to the same state.
void ExpectLoadRejectsEveryTruncation(distsim::Protocol& p, NodeId n) {
  std::vector<std::uint8_t> blob, again;
  for (NodeId v = 0; v < n; ++v) {
    blob.clear();
    util::WireAppender out(blob);
    p.SaveNodeState(v, out);
    ASSERT_FALSE(blob.empty());
    for (std::size_t len = 0; len < blob.size(); ++len) {
      util::WireReader in(blob.data(), len);
      p.LoadNodeState(v, in);
      ASSERT_TRUE(in.failed())
          << "node " << v << ": " << len << " of " << blob.size() << " bytes";
    }
    util::WireReader in(blob.data(), blob.size());
    p.LoadNodeState(v, in);
    ASSERT_FALSE(in.failed()) << "node " << v;
    ASSERT_EQ(in.remaining(), 0u) << "node " << v;
    again.clear();
    util::WireAppender out2(again);
    p.SaveNodeState(v, out2);
    ASSERT_EQ(again, blob) << "node " << v;
  }
}

TEST(LoadNodeStateRejects, TruncatedCompactState) {
  util::Rng rng(4101);
  const graph::Graph g = graph::PowerLawConfiguration(120, 2.3, 1, 20, rng);
  for (bool track : {false, true}) {
    SCOPED_TRACE(track);
    core::CompactOptions opts;
    opts.rounds = 4;
    opts.track_orientation = track;
    core::CompactElimination p(g, opts);
    distsim::Engine engine(g, 1);
    engine.Run(p, opts.rounds);
    ExpectLoadRejectsEveryTruncation(p, g.num_nodes());
  }
}

TEST(LoadNodeStateRejects, TruncatedTwoPhasePeelingState) {
  util::Rng rng(4102);
  const graph::Graph g = graph::BarabasiAlbert(80, 3, rng);
  std::vector<double> thresholds(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) thresholds[v] = 0.5 * v;
  const auto p = core::MakePeelingProtocolForTesting(g, thresholds);
  distsim::Engine engine(g, 1);
  engine.Run(*p, 3);
  ExpectLoadRejectsEveryTruncation(*p, g.num_nodes());
}

TEST(LoadNodeStateRejects, TruncatedWeakDensestPhaseStates) {
  util::Rng rng(4103);
  const graph::Graph g = graph::BarabasiAlbert(80, 3, rng);
  const auto phases = core::MakeWeakDensestPhasesForTesting(g, 4);
  ASSERT_EQ(phases->protocols.size(), 4u);
  for (std::size_t k = 0; k < phases->protocols.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "phase protocol " << k);
    ExpectLoadRejectsEveryTruncation(*phases->protocols[k], g.num_nodes());
  }
}

TEST(LoadNodeStateRejects, TruncatedHyperEliminationState) {
  util::Rng rng(4104);
  const hyper::Hypergraph h = hyper::RandomUniform(40, 80, 3, rng);
  hyper::HyperEliminationProtocol p(h);
  distsim::Engine engine(p.substrate(), 1);
  engine.Run(p, 3);
  ExpectLoadRejectsEveryTruncation(p, h.num_nodes());
}

TEST(LoadNodeStateRejects, TruncatedDCoreState) {
  util::Rng rng(4105);
  const directed::Digraph g = directed::RandomDigraph(40, 0.2, rng);
  directed::DCoreProtocol p(g, 1.0);
  distsim::Engine engine(p.substrate(), 1);
  engine.Run(p, 3);
  ExpectLoadRejectsEveryTruncation(p, g.num_nodes());
}

}  // namespace
}  // namespace kcore
