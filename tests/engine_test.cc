#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "distsim/engine.h"
#include "distsim/transport.h"
#include "graph/generators.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kcore::distsim {
namespace {

using graph::Graph;
using graph::NodeId;

// Toy protocol: every node repeatedly broadcasts the max id it has seen.
// After D rounds everyone knows the global max (flood fill) — good for
// validating delivery semantics and round counting.
class MaxFlood : public Protocol {
 public:
  explicit MaxFlood(NodeId n) : value_(n) {
    for (NodeId v = 0; v < n; ++v) value_[v] = v;
  }

  void Init(NodeContext& ctx) override {
    ctx.Broadcast({static_cast<double>(value_[ctx.id()])});
  }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    for (std::size_t i = 0; i < ctx.neighbors().size(); ++i) {
      const distsim::BroadcastView p = ctx.NeighborBroadcast(i);
      if (p && !p.empty()) {
        value_[v] = std::max(value_[v], static_cast<NodeId>(p[0]));
      }
    }
    ctx.Broadcast({static_cast<double>(value_[v])});
  }

  const std::vector<NodeId>& value() const { return value_; }

 private:
  std::vector<NodeId> value_;
};

TEST(Engine, FloodReachesExactlyTheTHopBall) {
  // On a path, after T rounds node 0 knows max(id) over its T-ball only:
  // information travels one hop per round — the locality the paper's
  // lower bounds rely on.
  const Graph g = graph::Path(20);
  Engine engine(g);
  MaxFlood proto(20);
  engine.Run(proto, 5);
  EXPECT_EQ(proto.value()[0], 5u);
  EXPECT_EQ(proto.value()[10], 15u);
  EXPECT_EQ(proto.value()[19], 19u);
}

TEST(Engine, FloodConvergesAfterDiameterRounds) {
  const Graph g = graph::Cycle(11);
  Engine engine(g);
  MaxFlood proto(11);
  engine.Run(proto, 6);  // diameter of C11 is 5
  for (NodeId v = 0; v < 11; ++v) EXPECT_EQ(proto.value()[v], 10u);
}

TEST(Engine, MessageAccountingBroadcast) {
  const Graph g = graph::Star(5);  // degrees: 4,1,1,1,1 -> sum 8
  Engine engine(g);
  MaxFlood proto(5);
  engine.Run(proto, 2);
  const auto& h = engine.history();
  ASSERT_EQ(h.size(), 3u);  // init + 2 rounds
  for (const RoundStats& r : h) {
    EXPECT_EQ(r.messages, 8u);  // every node broadcasts every round
    EXPECT_EQ(r.entries, 8u);   // 1 double each
  }
  const Totals t = engine.totals();
  EXPECT_EQ(t.messages, 24u);
  EXPECT_EQ(t.max_entries_per_message, 1u);
}

TEST(Engine, DistinctValueCensus) {
  const Graph g = graph::Complete(6);
  Engine engine(g);
  MaxFlood proto(6);
  engine.Start(proto);
  EXPECT_EQ(engine.history()[0].distinct_values, 6u);  // ids 0..5
  engine.Step(proto);
  // After one round on K6 everyone holds 5.
  EXPECT_EQ(engine.history()[1].distinct_values, 1u);
}

// Point-to-point: node 0 sends a token around a cycle.
class TokenRing : public Protocol {
 public:
  explicit TokenRing(NodeId n) : n_(n), seen_(n, 0) {}

  void Init(NodeContext& ctx) override {
    if (ctx.id() == 0) {
      seen_[0] = 1;
      ctx.Send((0 + 1) % n_, {42.0});
    }
  }

  void Round(NodeContext& ctx) override {
    for (const InMessage& m : ctx.Messages()) {
      EXPECT_EQ(m.payload.size(), 1u);
      EXPECT_DOUBLE_EQ(m.payload[0], 42.0);
      seen_[ctx.id()] = 1;
      const NodeId next = (ctx.id() + 1) % n_;
      if (next != 0) ctx.Send(next, {42.0});
    }
  }

  const std::vector<char>& seen() const { return seen_; }

 private:
  NodeId n_;
  std::vector<char> seen_;
};

TEST(Engine, PointToPointTokenRing) {
  const NodeId n = 8;
  const Graph g = graph::Cycle(n);
  Engine engine(g);
  TokenRing proto(n);
  const int rounds = engine.RunUntilQuiescent(proto, 100);
  // Token needs n-1 hops; quiescence is observed in the same round the
  // last hop finds no further message to forward.
  EXPECT_EQ(rounds, static_cast<int>(n) - 1);
  for (NodeId v = 0; v < n; ++v) EXPECT_TRUE(proto.seen()[v]) << v;
}

TEST(Engine, SendToNonNeighborDies) {
  const Graph g = graph::Path(3);
  Engine engine(g);
  class Bad : public Protocol {
    void Init(NodeContext& ctx) override {
      if (ctx.id() == 0) ctx.Send(2, {1.0});  // 0 and 2 not adjacent
    }
    void Round(NodeContext&) override {}
  } proto;
  EXPECT_DEATH(engine.Start(proto), "not adjacent");
}

TEST(Engine, HaltedNodesStopBroadcasting) {
  class HaltOdd : public Protocol {
   public:
    void Init(NodeContext& ctx) override { ctx.Broadcast({1.0}); }
    void Round(NodeContext& ctx) override {
      if (ctx.id() % 2 == 1) {
        ctx.Halt();
        return;
      }
      ctx.Broadcast({1.0});
    }
  } proto;
  const Graph g = graph::Cycle(10);
  Engine engine(g);
  engine.Start(proto);
  engine.Step(proto);
  EXPECT_EQ(engine.num_halted(), 5u);
  const RoundStats r2 = engine.Step(proto);
  // Only 5 even nodes (degree 2) broadcast now.
  EXPECT_EQ(r2.messages, 10u);
  EXPECT_EQ(r2.active_nodes, 5u);
}

// Mixed broadcast + p2p traffic on Star(5) with every stat hand-computed:
// the regression pin for the RoundStats fields across the collect-phase
// rewrite. Center = node 0 (degree 4), leaves 1..4 (degree 1).
class StarTraffic : public Protocol {
 public:
  void Init(NodeContext& ctx) override {
    ctx.Broadcast({static_cast<double>(ctx.id())});
    if (ctx.id() == 0) ctx.Send(1, {7.0, 8.0});
  }

  void Round(NodeContext& ctx) override {
    if (ctx.id() == 0) {
      // Inboxes are sorted by sender id — every leaf's message, in order.
      const auto msgs = ctx.Messages();
      if (ctx.round() >= 2) {
        EXPECT_EQ(msgs.size(), 4u);
        for (std::size_t i = 0; i < msgs.size(); ++i) {
          EXPECT_EQ(msgs[i].from, static_cast<NodeId>(i + 1));
          EXPECT_DOUBLE_EQ(msgs[i].payload[0],
                           static_cast<double>(ctx.round() - 1));
        }
      }
      ctx.Broadcast({42.0, static_cast<double>(ctx.round())});
    } else {
      ctx.Send(0, {static_cast<double>(ctx.round())});
    }
  }
};

TEST(Engine, RoundStatsRegressionOnHandComputedStar) {
  const Graph g = graph::Star(5);
  Engine engine(g);
  StarTraffic proto;
  engine.Run(proto, 2);
  const auto& h = engine.history();
  ASSERT_EQ(h.size(), 3u);

  // Round 0 (Init): all 5 nodes ran; 5 broadcasts of 1 entry fan out over
  // the degrees (4+1+1+1+1 = 8 deliveries, 8 entries) plus one p2p of 2
  // entries; broadcast first entries are the 5 distinct ids.
  EXPECT_EQ(h[0].active_nodes, 5u);
  EXPECT_EQ(h[0].messages, 9u);
  EXPECT_EQ(h[0].entries, 10u);
  EXPECT_EQ(h[0].distinct_values, 5u);

  // Rounds 1..2: the center broadcasts {42, r} to 4 leaves (4 deliveries,
  // 8 entries); 4 leaves each send 1 p2p entry to the center. One
  // distinct broadcast value (42).
  for (std::size_t r = 1; r <= 2; ++r) {
    EXPECT_EQ(h[r].active_nodes, 5u) << "round " << r;
    EXPECT_EQ(h[r].messages, 8u) << "round " << r;
    EXPECT_EQ(h[r].entries, 12u) << "round " << r;
    EXPECT_EQ(h[r].distinct_values, 1u) << "round " << r;
  }

  const Totals t = engine.totals();
  EXPECT_EQ(t.rounds, 2);
  EXPECT_EQ(t.messages, 25u);
  EXPECT_EQ(t.entries, 34u);
  EXPECT_EQ(t.max_entries_per_message, 2u);
}

TEST(Engine, ActiveNodeCensusCountsExecutedNodes) {
  // A node that halts during round r still EXECUTED round r: the census
  // counts compute-phase participation, not post-round liveness (the old
  // collect-time census undercounted the halting round).
  class HaltOdd : public Protocol {
   public:
    void Init(NodeContext& ctx) override { ctx.Broadcast({1.0}); }
    void Round(NodeContext& ctx) override {
      if (ctx.id() % 2 == 1) {
        ctx.Halt();
        return;
      }
      ctx.Broadcast({1.0});
    }
  } proto;
  const Graph g = graph::Cycle(10);
  Engine engine(g);
  engine.Start(proto);
  EXPECT_EQ(engine.history()[0].active_nodes, 10u);
  const RoundStats r1 = engine.Step(proto);
  EXPECT_EQ(r1.active_nodes, 10u);  // odds ran round 1, then halted
  const RoundStats r2 = engine.Step(proto);
  EXPECT_EQ(r2.active_nodes, 5u);  // only the 5 even nodes remain
}

TEST(Engine, ThreadedMatchesSequential) {
  util::Rng rng(17);
  const Graph g = graph::BarabasiAlbert(600, 3, rng);
  MaxFlood seq_proto(600);
  MaxFlood par_proto(600);
  Engine seq_engine(g, 1);
  Engine par_engine(g, 4);
  seq_engine.Run(seq_proto, 6);
  par_engine.Run(par_proto, 6);
  EXPECT_EQ(seq_proto.value(), par_proto.value());
  EXPECT_EQ(seq_engine.totals().messages, par_engine.totals().messages);
}

TEST(Engine, ReportsConfiguredThreadCount) {
  const Graph g = graph::Path(4);
  EXPECT_EQ(Engine(g).num_threads(), 1);
  EXPECT_EQ(Engine(g, 8).num_threads(), 8);
  // num_threads <= 1 clamps to sequential.
  EXPECT_EQ(Engine(g, 0).num_threads(), 1);
  EXPECT_EQ(Engine(g, -3).num_threads(), 1);
}

TEST(Engine, ThreadedQuiescenceMatchesSequential) {
  // RunUntilQuiescent goes through the pooled Step path too; the detected
  // round and the fixpoint must not depend on the thread count.
  util::Rng rng(23);
  const Graph g = graph::BarabasiAlbert(800, 3, rng);
  MaxFlood seq_proto(800);
  MaxFlood par_proto(800);
  Engine seq_engine(g, 1);
  Engine par_engine(g, 8);
  const int seq_rounds = seq_engine.RunUntilQuiescent(seq_proto, 100);
  const int par_rounds = par_engine.RunUntilQuiescent(par_proto, 100);
  EXPECT_EQ(seq_rounds, par_rounds);
  EXPECT_EQ(seq_proto.value(), par_proto.value());
  EXPECT_EQ(seq_engine.totals().messages, par_engine.totals().messages);
}

TEST(Engine, PoolSurvivesManyRounds) {
  // The pool is created once and reused for every round; hammer it long
  // enough that a worker lifecycle bug (lost wakeup, double dispatch)
  // would deadlock or corrupt results.
  util::Rng rng(29);
  const Graph g = graph::ErdosRenyiGnp(500, 0.02, rng);
  MaxFlood proto(500);
  Engine engine(g, 4);
  engine.Start(proto);
  for (int t = 0; t < 200; ++t) engine.Step(proto);
  EXPECT_EQ(engine.history().size(), 201u);
}

TEST(Engine, QuiescenceDetection) {
  const Graph g = graph::Path(6);
  MaxFlood proto(6);
  Engine engine(g);
  // Path diameter 5: values converge after 5 rounds, detected at round 6.
  const int rounds = engine.RunUntilQuiescent(proto, 50);
  EXPECT_EQ(rounds, 6);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(proto.value()[v], 5u);
}

TEST(Engine, CongestLimitAllowsCompliantProtocols) {
  const Graph g = graph::Cycle(10);
  Engine engine(g);
  engine.SetPayloadLimit(1);  // O(1) words: the paper's regime
  MaxFlood proto(10);
  engine.Run(proto, 5);  // MaxFlood broadcasts one double: compliant
  EXPECT_EQ(engine.totals().max_entries_per_message, 1u);
}

TEST(Engine, CongestLimitRejectsOversizedMessages) {
  class Chatty : public Protocol {
    void Init(NodeContext& ctx) override {
      ctx.Broadcast({1.0, 2.0, 3.0, 4.0, 5.0});
    }
    void Round(NodeContext&) override {}
  } proto;
  const Graph g = graph::Cycle(5);
  Engine engine(g);
  engine.SetPayloadLimit(2);
  EXPECT_DEATH(engine.Start(proto), "CONGEST violation");
}

TEST(Engine, CongestLimitRejectsOversizedBroadcastUnderThreading) {
  // The violating node sits mid-range so a worker shard (not the caller)
  // trips the check; the abort must still surface. Threadsafe style:
  // the death-test child re-executes from main, so the parent's live pool
  // workers cannot poison the fork.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  class ChattyAt300 : public Protocol {
    void Init(NodeContext& ctx) override { ctx.Broadcast({1.0}); }
    void Round(NodeContext& ctx) override {
      if (ctx.id() == 300 && ctx.round() == 1) {
        ctx.Broadcast({1.0, 2.0, 3.0});
      } else {
        ctx.Broadcast({1.0});
      }
    }
  };
  EXPECT_DEATH(
      {
        const Graph g = graph::Cycle(600);
        Engine engine(g, 8);
        engine.SetPayloadLimit(2);
        ChattyAt300 proto;
        engine.Start(proto);
        engine.Step(proto);
      },
      "CONGEST violation");
}

TEST(Engine, CongestLimitRejectsOversizedP2PUnderThreading) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  class P2PChatty : public Protocol {
    void Init(NodeContext&) override {}
    void Round(NodeContext& ctx) override {
      if (ctx.id() == 451 && ctx.round() == 2) {
        ctx.Send(ctx.neighbors()[0].to, {1.0, 2.0, 3.0, 4.0});
      }
    }
  };
  EXPECT_DEATH(
      {
        const Graph g = graph::Cycle(600);
        Engine engine(g, 8);
        engine.SetPayloadLimit(3);
        P2PChatty proto;
        engine.Start(proto);
        engine.Step(proto);
        engine.Step(proto);
      },
      "CONGEST violation");
}

TEST(Engine, QuiescenceImmediateWhenProtocolStaysSilent) {
  // A protocol that never broadcasts or sends is quiescent after the
  // first (empty) step — both sequentially and threaded over the pool.
  class Silent : public Protocol {
    void Init(NodeContext&) override {}
    void Round(NodeContext&) override {}
  };
  for (int threads : {1, 8}) {
    const Graph g = graph::Cycle(600);
    Silent proto;
    Engine engine(g, threads);
    EXPECT_EQ(engine.RunUntilQuiescent(proto, 50), 1) << threads;
    EXPECT_EQ(engine.totals().messages, 0u) << threads;
  }
}

TEST(Engine, QuiescenceHitsMaxRoundsOnRestlessProtocol) {
  // Broadcasting the round number changes the staged value every round,
  // so quiescence never arrives and the cap must bound the run.
  class Restless : public Protocol {
    void Init(NodeContext& ctx) override { ctx.Broadcast({0.0}); }
    void Round(NodeContext& ctx) override {
      ctx.Broadcast({static_cast<double>(ctx.round())});
    }
  } proto;
  const Graph g = graph::Cycle(8);
  Engine engine(g);
  EXPECT_EQ(engine.RunUntilQuiescent(proto, 7), 7);
  EXPECT_EQ(static_cast<int>(engine.history().size()), 8);  // init + 7
}

// Backs the thread-safety promise in util/logging.h: every node logs in
// every round of a threaded run, so all pool workers hammer the logging
// mutex at once. Each captured stderr line must be whole — an interleaved
// or torn line means the internal lock is broken. Under KCORE_SANITIZE=
// thread this battery also runs under ThreadSanitizer, which would flag
// any unsynchronized access to the stream.
TEST(Engine, ConcurrentLoggingFromPoolWorkersIsSerialized) {
  class ChattyFlood : public Protocol {
    void Init(NodeContext& ctx) override {
      KCORE_LOG(kInfo) << "chatty init node " << ctx.id();
      ctx.Broadcast({1.0});
    }
    void Round(NodeContext& ctx) override {
      KCORE_LOG(kInfo) << "chatty round node " << ctx.id();
      ctx.Broadcast({1.0});
    }
  } proto;
  util::Rng rng(31);
  const Graph g = graph::ErdosRenyiGnp(64, 0.1, rng);
  Engine engine(g, 8);
  const int rounds = 5;
  testing::internal::CaptureStderr();
  engine.Run(proto, rounds);
  const std::string captured = testing::internal::GetCapturedStderr();
  std::size_t chatty_lines = 0;
  std::istringstream lines(captured);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("chatty") == std::string::npos) continue;
    ++chatty_lines;
    // A whole line has exactly one "[INFO ...]" prefix, at position 0;
    // a write interleaved mid-line would splice a second prefix in.
    EXPECT_EQ(line.rfind("[INFO ", 0), 0u) << "torn log line: " << line;
    EXPECT_EQ(line.find('[', 1), std::string::npos)
        << "interleaved log line: " << line;
  }
  // One line per Init plus one per node per round, none lost.
  EXPECT_EQ(chatty_lines, 64u * (1 + rounds));
}

// Rank-topology validation: junk rank counts fail loudly at the API
// boundary, not as a crash (or an empty-slice hang) deep in a transport.
TEST(Engine, RejectsNonPositiveRankCounts) {
  const Graph g = graph::Cycle(10);
  Engine engine(g);
  EXPECT_DEATH(engine.SetRankCount(0), "rank count must be >= 1");
  EXPECT_DEATH(engine.SetRankCount(-3), "rank count must be >= 1");
}

TEST(Engine, RejectsMoreRanksThanNodesAtStart) {
  // 12 ranks over 10 nodes would give at least one rank an empty slice;
  // Start refuses with an actionable message instead of forking workers
  // that own nothing.
  class Silent : public Protocol {
    void Init(NodeContext&) override {}
    void Round(NodeContext&) override {}
  } proto;
  const Graph g = graph::Cycle(10);
  Engine engine(g);
  engine.SetRankCount(12);
  EXPECT_DEATH(engine.Start(proto), "exceeds the node count");
}

// Per-rank compute preconditions fail loudly too: a transport without
// rank workers cannot host the compute phase, and a protocol without
// Save/LoadNodeState cannot ship its state.
TEST(Engine, PerRankComputeRequiresACapableTransport) {
  class Silent : public Protocol {
    void Init(NodeContext&) override {}
    void Round(NodeContext&) override {}
  } proto;
  const Graph g = graph::Cycle(10);
  Engine engine(g);  // default shared-memory transport
  engine.SetPerRankCompute(true);
  EXPECT_DEATH(engine.Start(proto), "needs a transport that supports it");
}

TEST(Engine, PerRankComputeRequiresProtocolStateHooks) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  class Silent : public Protocol {  // no SupportsRankCompute override
    void Init(NodeContext&) override {}
    void Round(NodeContext&) override {}
  };
  EXPECT_DEATH(
      {
        const Graph g = graph::Cycle(10);
        Engine engine(g);
        engine.SetTransport(MakeTransport(TransportKind::kProcess));
        engine.SetRankCount(2);
        engine.SetPerRankCompute(true);
        Silent proto;
        engine.Start(proto);
      },
      "Save/LoadNodeState");
}

TEST(Engine, QuiescenceSeesVanishingBroadcastOfHaltedNodes) {
  // Nodes broadcast at init and then halt: the round in which the
  // broadcasts disappear is still a change (a neighbor observes the
  // silence), so quiescence lands one round later — not at round 1.
  class ShoutThenHalt : public Protocol {
    void Init(NodeContext& ctx) override { ctx.Broadcast({1.0}); }
    void Round(NodeContext& ctx) override { ctx.Halt(); }
  } proto;
  const Graph g = graph::Cycle(6);
  Engine engine(g);
  EXPECT_EQ(engine.RunUntilQuiescent(proto, 50), 2);
  EXPECT_EQ(engine.num_halted(), 6u);
  EXPECT_EQ(engine.history()[1].active_nodes, 6u);
  EXPECT_EQ(engine.history()[2].active_nodes, 0u);
}

}  // namespace
}  // namespace kcore::distsim
