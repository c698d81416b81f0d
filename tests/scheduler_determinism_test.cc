// The parallel round scheduler must be bit-identical to the sequential
// engine: BOTH phases of a round — the compute sweep and the collect
// phase (stats census + p2p delivery) — partition node ids into disjoint
// contiguous shards, merge partials in shard order, and write inbox slots
// at precomputed offsets, so the OS interleaving cannot leak into
// results. These tests pin that contract across the coreness paths that
// ride the engine (compact/Theorem I.1, run-to-convergence/Montresor,
// two-phase orientation) and across synthetic p2p-heavy,
// broadcast-heavy, and randomized (per-node RNG stream) protocols that
// stress the collect phase directly. The ThreadPool primitive has its
// own suite in thread_pool_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/compact.h"
#include "core/densest.h"
#include "core/montresor.h"
#include "core/two_phase.h"
#include "directed/dcore_protocol.h"
#include "directed/digraph.h"
#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/generators.h"
#include "hyper/helim_protocol.h"
#include "hyper/hypergraph.h"
#include "util/rng.h"

namespace kcore {
namespace {

using distsim::Engine;
using distsim::InMessage;
using distsim::NodeContext;
using distsim::Payload;
using distsim::RoundStats;
using graph::NodeId;

graph::Graph TestGraph(std::uint64_t seed) {
  util::Rng rng(seed);
  // Big enough to clear the engine's sequential cutoff (n >= 256) so the
  // pool actually runs.
  return graph::BarabasiAlbert(3000, 4, rng);
}

// Order-sensitive FNV-style fold: two digests agree only if the same
// values arrived in the same order.
std::uint64_t Mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

std::uint64_t MixDouble(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return Mix(h, bits);
}

void ExpectSameHistory(const std::vector<RoundStats>& a,
                       const std::vector<RoundStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].round, b[i].round) << "round " << i;
    EXPECT_EQ(a[i].active_nodes, b[i].active_nodes) << "round " << i;
    EXPECT_EQ(a[i].messages, b[i].messages) << "round " << i;
    EXPECT_EQ(a[i].entries, b[i].entries) << "round " << i;
    EXPECT_EQ(a[i].distinct_values, b[i].distinct_values) << "round " << i;
  }
}

// P2P-heavy protocol: every node sends variable-size payloads to a
// round-dependent subset of its neighbors and folds its ENTIRE inbox
// (sender ids and payload contents, in delivery order) into a per-node
// digest — so any reordering or misplacement a parallel delivery could
// introduce flips the digest.
class P2PStress : public distsim::Protocol {
 public:
  explicit P2PStress(NodeId n) : digest_(n, 0xcbf29ce484222325ULL) {}

  void Init(NodeContext& ctx) override { SendWave(ctx); }

  void Round(NodeContext& ctx) override {
    std::uint64_t& h = digest_[ctx.id()];
    for (const InMessage& m : ctx.Messages()) {
      h = Mix(h, m.from);
      for (double x : m.payload) h = MixDouble(h, x);
    }
    SendWave(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }

 private:
  void SendWave(NodeContext& ctx) {
    const auto nbrs = ctx.neighbors();
    const NodeId v = ctx.id();
    const auto r = static_cast<std::size_t>(ctx.round());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if ((i + v + r) % 3 != 0) continue;
      Payload p;
      const std::size_t len = 1 + (v + i + r) % 3;
      for (std::size_t k = 0; k < len; ++k) {
        p.push_back(static_cast<double>(v * 1000 + r * 10 + k));
      }
      ctx.Send(nbrs[i].to, std::move(p));
    }
  }

  std::vector<std::uint64_t> digest_;
};

// Broadcast-heavy protocol: variable-size broadcasts with a small
// distinct-value alphabet (stressing the sharded distinct-value census)
// folded into per-node digests via NeighborBroadcast.
class BroadcastStorm : public distsim::Protocol {
 public:
  explicit BroadcastStorm(NodeId n) : digest_(n, 0x84222325cbf29ce4ULL) {}

  void Init(NodeContext& ctx) override { Shout(ctx); }

  void Round(NodeContext& ctx) override {
    std::uint64_t& h = digest_[ctx.id()];
    for (std::size_t i = 0; i < ctx.neighbors().size(); ++i) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (!p) {
        h = Mix(h, 0xdeadULL);
        continue;
      }
      for (double x : p) h = MixDouble(h, x);
    }
    Shout(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }

 private:
  void Shout(NodeContext& ctx) {
    const NodeId v = ctx.id();
    const auto r = static_cast<std::size_t>(ctx.round());
    if ((v + r) % 7 == 0) return;  // some nodes stay silent some rounds
    Payload p;
    const std::size_t len = 1 + v % 4;
    p.push_back(static_cast<double>((v + r) % 17));  // 17-value alphabet
    for (std::size_t k = 1; k < len; ++k) {
      p.push_back(static_cast<double>(k));
    }
    ctx.Broadcast(std::move(p));
  }

  std::vector<std::uint64_t> digest_;
};

// Randomized gossip: every draw goes through the node's private stream
// (NodeContext::Rng), so the draw sequence must be a pure function of
// (master seed, node id) — sharding cannot shift which node consumes
// which random number.
class RandomGossip : public distsim::Protocol {
 public:
  explicit RandomGossip(NodeId n) : value_(n, 0.0) {}

  void Init(NodeContext& ctx) override {
    value_[ctx.id()] = ctx.Rng().NextDouble();
    ctx.Broadcast({value_[ctx.id()]});
  }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    double& x = value_[v];
    for (const InMessage& m : ctx.Messages()) x += m.payload[0];
    const auto nbrs = ctx.neighbors();
    if (!nbrs.empty()) {
      // Push x (jittered) to one uniformly random neighbor.
      const std::size_t pick = ctx.Rng().NextBounded(nbrs.size());
      ctx.Send(nbrs[pick].to, {x + ctx.Rng().NextDouble()});
    }
    if (ctx.Rng().NextBool(0.5)) ctx.Broadcast({x});
  }

  const std::vector<double>& value() const { return value_; }

 private:
  std::vector<double> value_;
};

template <typename Proto>
void RunRounds(Engine& engine, Proto& proto, int rounds) {
  engine.Start(proto);
  for (int t = 0; t < rounds; ++t) engine.Step(proto);
}

TEST(SchedulerDeterminism, CompactEliminationOneVsEightThreads) {
  const graph::Graph g = TestGraph(101);
  core::CompactOptions o1;
  o1.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  core::CompactOptions o8 = o1;
  o1.num_threads = 1;
  o8.num_threads = 8;
  const core::CompactResult r1 = core::RunCompactElimination(g, o1);
  const core::CompactResult r8 = core::RunCompactElimination(g, o8);
  // Bit-exact equality, not approximate: the parallel schedule must not
  // change a single floating-point operation.
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.totals.messages, r8.totals.messages);
  EXPECT_EQ(r1.totals.entries, r8.totals.entries);
  ExpectSameHistory(r1.history, r8.history);
}

TEST(SchedulerDeterminism, CompactWithOrientationTracking) {
  const graph::Graph g = TestGraph(102);
  core::CompactOptions o1;
  o1.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  o1.track_orientation = true;
  core::CompactOptions o8 = o1;
  o1.num_threads = 1;
  o8.num_threads = 8;
  const core::CompactResult r1 = core::RunCompactElimination(g, o1);
  const core::CompactResult r8 = core::RunCompactElimination(g, o8);
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.in_sets, r8.in_sets);
}

TEST(SchedulerDeterminism, MontresorConvergenceOneVsEightThreads) {
  const graph::Graph g = TestGraph(103);
  const core::ConvergenceResult r1 = core::RunToConvergence(g, -1, 1);
  const core::ConvergenceResult r8 = core::RunToConvergence(g, -1, 8);
  EXPECT_EQ(r1.coreness, r8.coreness);
  EXPECT_EQ(r1.rounds_executed, r8.rounds_executed);
  EXPECT_EQ(r1.last_change_round, r8.last_change_round);
}

TEST(SchedulerDeterminism, TwoPhaseOrientationOneVsEightThreads) {
  const graph::Graph g = TestGraph(104);
  const int T = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  const core::TwoPhaseResult r1 =
      core::RunTwoPhaseOrientation(g, T, 0.5, -1, 1);
  const core::TwoPhaseResult r8 =
      core::RunTwoPhaseOrientation(g, T, 0.5, -1, 8);
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.orientation.owner, r8.orientation.owner);
  EXPECT_EQ(r1.phase2_rounds, r8.phase2_rounds);
  EXPECT_DOUBLE_EQ(r1.orientation.max_load, r8.orientation.max_load);
}

TEST(SchedulerDeterminism, RepeatedParallelRunsAgree) {
  // Same seed, same thread count, run twice: the pool must not inject any
  // run-to-run nondeterminism either.
  const graph::Graph g = TestGraph(105);
  core::CompactOptions opts;
  opts.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  opts.num_threads = 8;
  const core::CompactResult a = core::RunCompactElimination(g, opts);
  const core::CompactResult b = core::RunCompactElimination(g, opts);
  EXPECT_EQ(a.b, b.b);
  EXPECT_EQ(a.totals.messages, b.totals.messages);
}

TEST(SchedulerDeterminism, P2PHeavyInboxOrderOneVsEightThreads) {
  // The parallel collect delivers into precomputed inbox slots; the
  // per-node inbox digests only match the sequential run if every message
  // landed in the same slot with the same bytes.
  const graph::Graph g = TestGraph(106);
  P2PStress p1(g.num_nodes());
  P2PStress p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e8(g, 8);
  RunRounds(e1, p1, 12);
  RunRounds(e8, p8, 12);
  EXPECT_EQ(p1.digest(), p8.digest());
  EXPECT_EQ(e1.totals().messages, e8.totals().messages);
  EXPECT_EQ(e1.totals().entries, e8.totals().entries);
  EXPECT_EQ(e1.totals().max_entries_per_message,
            e8.totals().max_entries_per_message);
  ExpectSameHistory(e1.history(), e8.history());
}

TEST(SchedulerDeterminism, BroadcastHeavyStatsOneVsEightThreads) {
  // Stats are merged from per-shard partials in shard order; the whole
  // history (including the sharded distinct-value census) must match the
  // sequential pass field by field.
  const graph::Graph g = TestGraph(107);
  BroadcastStorm p1(g.num_nodes());
  BroadcastStorm p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e8(g, 8);
  RunRounds(e1, p1, 10);
  RunRounds(e8, p8, 10);
  EXPECT_EQ(p1.digest(), p8.digest());
  ExpectSameHistory(e1.history(), e8.history());
  EXPECT_EQ(e1.totals().messages, e8.totals().messages);
  EXPECT_EQ(e1.totals().entries, e8.totals().entries);
}

TEST(SchedulerDeterminism, RandomizedProtocolOneVsEightThreads) {
  // Per-node RNG streams: a node's draws depend only on (seed, id, draw
  // index), so the randomized run is bit-identical at any thread count.
  const graph::Graph g = TestGraph(108);
  RandomGossip p1(g.num_nodes());
  RandomGossip p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e8(g, 8);
  e1.SetSeed(4242);
  e8.SetSeed(4242);
  RunRounds(e1, p1, 15);
  RunRounds(e8, p8, 15);
  EXPECT_EQ(p1.value(), p8.value());
  ExpectSameHistory(e1.history(), e8.history());
  EXPECT_EQ(e1.totals().messages, e8.totals().messages);
  EXPECT_EQ(e1.totals().entries, e8.totals().entries);
}

TEST(SchedulerDeterminism, MoreShardsThanWorkEmptyShardRegression) {
  // 32 shards on a 300-node graph (just over the n >= 256 parallel
  // cutoff): ceil-chunking leaves trailing shards with EMPTY sender
  // ranges whose collect bodies never run. Regression pin: stale
  // per-shard count rows from earlier rounds must not be read back as
  // in-degrees (that injected phantom empty messages into inboxes from
  // round 2 onward).
  util::Rng rng(110);
  const graph::Graph g = graph::BarabasiAlbert(300, 4, rng);
  P2PStress p1(g.num_nodes());
  P2PStress p32(g.num_nodes());
  RandomGossip r1(g.num_nodes());
  RandomGossip r32(g.num_nodes());
  Engine e1(g, 1);
  Engine e32(g, 32);
  RunRounds(e1, p1, 10);
  RunRounds(e32, p32, 10);
  EXPECT_EQ(p1.digest(), p32.digest());
  ExpectSameHistory(e1.history(), e32.history());
  Engine f1(g, 1);
  Engine f32(g, 32);
  RunRounds(f1, r1, 10);
  RunRounds(f32, r32, 10);
  EXPECT_EQ(r1.value(), r32.value());
  EXPECT_EQ(f1.totals().messages, f32.totals().messages);
  EXPECT_EQ(f1.totals().entries, f32.totals().entries);
}

// --- Degree-weighted shard balancing -------------------------------------
//
// Weighted boundaries are arbitrary contiguous partitions, so they push
// the collect offset machinery and the chunk-ordered census merge onto
// shard shapes the equal-count split never produces (a hub alone in shard
// 0, most ids crammed into the last shards). The bit-identical contract
// must hold anyway, on exactly the graphs balancing exists for.

graph::Graph SkewedTestGraph(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::PowerLawConfiguration(3000, 2.1, 2, 300, rng);
}

TEST(SchedulerDeterminism, WeightedShardsStarOneVsEightThreads) {
  // Star: the hub's degree is n - 1, the most extreme skew there is —
  // the weighted partition pins the hub alone in shard 0 and fans the
  // leaves across the rest.
  const graph::Graph g = graph::Star(2000);
  P2PStress p1(g.num_nodes());
  P2PStress p2(g.num_nodes());
  P2PStress p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e2(g, 2);
  Engine e8(g, 8);
  e2.SetShardBalancing(true);
  e8.SetShardBalancing(true);
  RunRounds(e1, p1, 12);
  RunRounds(e2, p2, 12);
  RunRounds(e8, p8, 12);
  EXPECT_EQ(p1.digest(), p2.digest());
  EXPECT_EQ(p1.digest(), p8.digest());
  ExpectSameHistory(e1.history(), e2.history());
  ExpectSameHistory(e1.history(), e8.history());
  EXPECT_EQ(e1.totals().messages, e8.totals().messages);
  EXPECT_EQ(e1.totals().entries, e8.totals().entries);
}

TEST(SchedulerDeterminism, WeightedShardsPowerLawOneVsEightThreads) {
  const graph::Graph g = SkewedTestGraph(201);
  P2PStress p1(g.num_nodes());
  P2PStress p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e8(g, 8);
  e8.SetShardBalancing(true);
  RunRounds(e1, p1, 12);
  RunRounds(e8, p8, 12);
  EXPECT_EQ(p1.digest(), p8.digest());
  ExpectSameHistory(e1.history(), e8.history());
  EXPECT_EQ(e1.totals().max_entries_per_message,
            e8.totals().max_entries_per_message);
}

TEST(SchedulerDeterminism, WeightedShardsRandomizedWithRebalance) {
  // Rebalancing rebuilds the boundaries every 3 rounds, so successive
  // rounds run on different partitions of the same graph — per-node RNG
  // streams and the collect scheme must not care.
  const graph::Graph g = SkewedTestGraph(202);
  RandomGossip p1(g.num_nodes());
  RandomGossip p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e8(g, 8);
  e1.SetSeed(4242);
  e8.SetSeed(4242);
  e8.SetShardBalancing(true);
  e8.SetRebalanceInterval(3);
  RunRounds(e1, p1, 15);
  RunRounds(e8, p8, 15);
  EXPECT_EQ(p1.value(), p8.value());
  ExpectSameHistory(e1.history(), e8.history());
}

TEST(SchedulerDeterminism, BalancedAgreesWithUnbalancedAtEightThreads) {
  // Same thread count, different partitioners: still bit-identical.
  const graph::Graph g = graph::Star(2000);
  RandomGossip pa(g.num_nodes());
  RandomGossip pb(g.num_nodes());
  Engine ea(g, 8);
  Engine eb(g, 8);
  ea.SetSeed(99);
  eb.SetSeed(99);
  eb.SetShardBalancing(true);
  eb.SetRebalanceInterval(2);
  RunRounds(ea, pa, 10);
  RunRounds(eb, pb, 10);
  EXPECT_EQ(pa.value(), pb.value());
  ExpectSameHistory(ea.history(), eb.history());
}

TEST(SchedulerDeterminism, WeightedShardsBelowDefaultCutoff) {
  // A 100-node star sits under kDefaultParallelCutoff, so an 8-thread
  // engine would silently run sequentially — SetParallelCutoff(1) forces
  // the threaded path, putting weighted shards on a graph where the hub
  // outweighs whole shards and several shards end up empty.
  const graph::Graph g = graph::Star(100);
  P2PStress p1(g.num_nodes());
  P2PStress p8(g.num_nodes());
  Engine e1(g, 1);
  Engine e8(g, 8);
  e8.SetParallelCutoff(1);
  e8.SetShardBalancing(true);
  EXPECT_FALSE(e1.shard_balancing());
  EXPECT_TRUE(e8.shard_balancing());
  RunRounds(e1, p1, 10);
  RunRounds(e8, p8, 10);
  EXPECT_EQ(p1.digest(), p8.digest());
  ExpectSameHistory(e1.history(), e8.history());
}

TEST(SchedulerDeterminism, CompactBalancedOneVsEightThreads) {
  // The CompactOptions knob: Algorithm 2 on a skewed graph with balancing
  // and periodic rebalancing on.
  const graph::Graph g = SkewedTestGraph(203);
  core::CompactOptions o1;
  o1.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  core::CompactOptions o8 = o1;
  o1.num_threads = 1;
  o8.num_threads = 8;
  o8.balance_shards = true;
  o8.rebalance_rounds = 2;
  const core::CompactResult r1 = core::RunCompactElimination(g, o1);
  const core::CompactResult r8 = core::RunCompactElimination(g, o8);
  EXPECT_EQ(r1.b, r8.b);
  ExpectSameHistory(r1.history, r8.history);
}

TEST(SchedulerDeterminism, MontresorAndTwoPhaseBalanced) {
  // The driver-level knobs: run-to-convergence and both phases of the
  // two-phase orientation (whose peeling halts nodes as it goes) under
  // weighted shards vs the sequential reference.
  const graph::Graph g = SkewedTestGraph(204);
  const core::ConvergenceResult c1 = core::RunToConvergence(g, -1, 1);
  const core::ConvergenceResult c8 = core::RunToConvergence(
      g, -1, 8, distsim::kDefaultMasterSeed, /*balance_shards=*/true);
  EXPECT_EQ(c1.coreness, c8.coreness);
  EXPECT_EQ(c1.rounds_executed, c8.rounds_executed);

  const int T = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  const core::TwoPhaseResult t1 =
      core::RunTwoPhaseOrientation(g, T, 0.5, -1, 1);
  const core::TwoPhaseResult t8 = core::RunTwoPhaseOrientation(
      g, T, 0.5, -1, 8, distsim::kDefaultMasterSeed, /*balance_shards=*/true);
  EXPECT_EQ(t1.b, t8.b);
  EXPECT_EQ(t1.orientation.owner, t8.orientation.owner);
  EXPECT_EQ(t1.phase2_rounds, t8.phase2_rounds);
}

TEST(SchedulerDeterminism, WeightedShardsSharedVsSerializedTransport) {
  // The balancing and transport axes together: weighted shards rebuilt
  // mid-run put the serialized pack/unpack on partitions the equal-count
  // split never produces, and the shared-memory run at the same thread
  // count must agree with it bit for bit — as must a sequential
  // serialized run, including the wire byte counters (per-message
  // encodings are absolute, so byte totals are partition-independent).
  const graph::Graph g = SkewedTestGraph(205);
  P2PStress p1(g.num_nodes());
  P2PStress pshm(g.num_nodes());
  P2PStress pser(g.num_nodes());
  P2PStress pser1(g.num_nodes());
  Engine e1(g, 1);
  Engine eshm(g, 8);
  Engine eser(g, 8);
  Engine eser1(g, 1);
  for (Engine* e : {&eshm, &eser}) {
    e->SetShardBalancing(true);
    e->SetRebalanceInterval(3);
  }
  eser.SetTransport(distsim::MakeTransport(
      distsim::TransportKind::kSerialized));
  eser1.SetTransport(distsim::MakeTransport(
      distsim::TransportKind::kSerialized));
  RunRounds(e1, p1, 12);
  RunRounds(eshm, pshm, 12);
  RunRounds(eser, pser, 12);
  RunRounds(eser1, pser1, 12);
  EXPECT_EQ(p1.digest(), pshm.digest());
  EXPECT_EQ(p1.digest(), pser.digest());
  EXPECT_EQ(p1.digest(), pser1.digest());
  ExpectSameHistory(e1.history(), eshm.history());
  ExpectSameHistory(e1.history(), eser.history());
  // Wire accounting: the zero-copy paths never serialize; the serialized
  // runs agree with each other byte for byte at 1 vs 8 threads.
  ASSERT_EQ(eser.history().size(), eser1.history().size());
  for (std::size_t i = 0; i < eser.history().size(); ++i) {
    EXPECT_EQ(e1.history()[i].bytes_sent, 0u) << "round " << i;
    EXPECT_EQ(eshm.history()[i].bytes_sent, 0u) << "round " << i;
    EXPECT_EQ(eser.history()[i].bytes_sent,
              eser.history()[i].bytes_received)
        << "round " << i;
    EXPECT_EQ(eser.history()[i].bytes_sent, eser1.history()[i].bytes_sent)
        << "round " << i;
  }
  EXPECT_GT(eser.totals().bytes_sent, 0u);
}

TEST(SchedulerDeterminism, HyperEliminationOneVsEightThreads) {
  // The hypergraph port runs over the clique-expansion substrate, whose
  // degree distribution (hub co-membership) differs from the hypergraph's
  // own — the sharded sweep must not care.
  util::Rng rng(301);
  const hyper::Hypergraph h = hyper::RandomUniform(2000, 4000, 3, rng);
  hyper::HyperElimOptions o1;
  o1.rounds = 10;
  hyper::HyperElimOptions o8 = o1;
  o8.num_threads = 8;
  o8.balance_shards = true;
  const hyper::HyperElimResult r1 = hyper::RunHyperElimination(h, o1);
  const hyper::HyperElimResult r8 = hyper::RunHyperElimination(h, o8);
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.totals.messages, r8.totals.messages);
  EXPECT_EQ(r1.totals.entries, r8.totals.entries);
  ExpectSameHistory(r1.history, r8.history);
}

TEST(SchedulerDeterminism, DCoreEliminationOneVsEightThreads) {
  // The directed port halts nodes mid-run (failed out-degree constraint),
  // so shards shrink unevenly as the run proceeds; the census and the
  // broadcast double-buffer must stay bit-identical anyway.
  util::Rng rng(302);
  const directed::Digraph g = directed::RandomDigraph(1500, 0.004, rng);
  directed::DCoreElimOptions o1;
  o1.rounds = 10;
  directed::DCoreElimOptions o8 = o1;
  o8.num_threads = 8;
  o8.balance_shards = true;
  o8.rebalance_rounds = 3;
  const directed::DCoreElimResult r1 =
      directed::RunDCoreElimination(g, 2.0, o1);
  const directed::DCoreElimResult r8 =
      directed::RunDCoreElimination(g, 2.0, o8);
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.active, r8.active);
  ExpectSameHistory(r1.history, r8.history);
}

TEST(SchedulerDeterminism, WeakDensestOneVsEightThreads) {
  // All four densest phases (elimination, BFS forest, tree elimination,
  // aggregation) share one engine surface; the whole pipeline — forest
  // pointers, per-round survival arrays, selected subsets — must be a
  // pure function of the input at any thread count.
  const graph::Graph g = TestGraph(303);
  core::WeakDensestOptions o1;
  o1.gamma = 3.0;
  o1.T_override = 8;
  core::WeakDensestOptions o8 = o1;
  o8.num_threads = 8;
  o8.balance_shards = true;
  const core::WeakDensestResult r1 = core::RunWeakDensest(g, o1);
  const core::WeakDensestResult r8 = core::RunWeakDensest(g, o8);
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.leader_of, r8.leader_of);
  EXPECT_EQ(r1.selected, r8.selected);
  EXPECT_EQ(r1.best_density, r8.best_density);
  ASSERT_EQ(r1.subsets.size(), r8.subsets.size());
  for (std::size_t i = 0; i < r1.subsets.size(); ++i) {
    EXPECT_EQ(r1.subsets[i].leader, r8.subsets[i].leader);
    EXPECT_EQ(r1.subsets[i].members, r8.subsets[i].members);
    EXPECT_EQ(r1.subsets[i].density, r8.subsets[i].density);
  }
  EXPECT_EQ(r1.totals.messages, r8.totals.messages);
  EXPECT_EQ(r1.totals.entries, r8.totals.entries);
}

TEST(SchedulerDeterminism, PerRankComputeAgreesWithThreadedScheduler) {
  // The per-rank compute path replaces the thread-pool sweep with forked
  // rank workers, each computing its own contiguous slice — a third
  // scheduler implementation that must land on the same bits as the
  // sequential and 8-thread in-process runs, and must do so run over run
  // (worker scheduling, socket interleaving, and fork timing are all
  // invisible).
  const graph::Graph g = TestGraph(111);
  core::CompactOptions seq;
  seq.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  seq.track_orientation = true;
  core::CompactOptions thr = seq;
  thr.num_threads = 8;
  core::CompactOptions ranked = seq;
  ranked.transport = distsim::TransportKind::kProcess;
  ranked.ranks = 3;
  ranked.per_rank_compute = true;
  const core::CompactResult r1 = core::RunCompactElimination(g, seq);
  const core::CompactResult r8 = core::RunCompactElimination(g, thr);
  const core::CompactResult rp = core::RunCompactElimination(g, ranked);
  const core::CompactResult rp2 = core::RunCompactElimination(g, ranked);
  EXPECT_EQ(r1.b, r8.b);
  EXPECT_EQ(r1.b, rp.b);
  EXPECT_EQ(r1.in_sets, rp.in_sets);
  ExpectSameHistory(r1.history, rp.history);
  EXPECT_EQ(rp.b, rp2.b);
  EXPECT_EQ(rp.totals.bytes_sent, rp2.totals.bytes_sent);
  EXPECT_EQ(rp.totals.bcast_bytes_sent, rp2.totals.bcast_bytes_sent);
}

TEST(SchedulerDeterminism, MasterSeedActuallyFeedsTheStreams) {
  // Different master seeds must produce different randomized runs —
  // otherwise the determinism tests above would pass vacuously.
  const graph::Graph g = TestGraph(109);
  RandomGossip pa(g.num_nodes());
  RandomGossip pb(g.num_nodes());
  Engine ea(g, 8);
  Engine eb(g, 8);
  ea.SetSeed(1);
  eb.SetSeed(2);
  RunRounds(ea, pa, 5);
  RunRounds(eb, pb, 5);
  EXPECT_NE(pa.value(), pb.value());
}

}  // namespace
}  // namespace kcore
