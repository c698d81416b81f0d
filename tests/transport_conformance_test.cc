// Conformance battery for distsim::Transport implementations.
//
// Every transport must be observationally identical to the sequential
// shared-memory baseline: same inboxes (same messages, same sender-id
// order, bit-identical payloads), same history() (logical fields), same
// protocol results — on p2p-heavy, broadcast-only, bursty-silent, star,
// and rebalanced power-law workloads, at 1, 2, and 8 threads. The suite
// is parameterized over TransportKind, so registering a new transport in
// MakeTransport and adding it to the INSTANTIATE list below runs the
// whole battery against it.
//
// Wire accounting is pinned per kind: the shared-memory transport never
// serializes (bytes == 0 everywhere); the serializing transports
// (serialized AND process) report bytes_sent == bytes_received, nonzero
// exactly on rounds that delivered p2p traffic, and — because
// per-message encodings are absolute, not partition-relative —
// byte-identical counts at every thread count, rank count, and backend.
//
// The process transport runs the battery at 1/2/8 RANKS (worker
// processes) riding the 1/2/8-thread sweep, plus dedicated cases below:
// rank topology orthogonal to thread count, worker teardown/reap on
// shutdown, and a killed-worker death regression (EPIPE surfaces as an
// abort naming the rank, not a hang).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/compact.h"
#include "core/densest.h"
#include "core/montresor.h"
#include "core/two_phase.h"
#include "directed/dcore_protocol.h"
#include "directed/digraph.h"
#include "distsim/engine.h"
#include "distsim/process_transport.h"
#include "distsim/transport.h"
#include "graph/binio.h"
#include "graph/generators.h"
#include "hyper/helim_protocol.h"
#include "hyper/hypergraph.h"
#include "util/rng.h"
#include "util/wire.h"

namespace kcore {
namespace {

using distsim::Engine;
using distsim::InMessage;
using distsim::MakeTransport;
using distsim::NodeContext;
using distsim::Payload;
using distsim::ProcessTransport;
using distsim::RoundStats;
using distsim::TransportKind;
using graph::NodeId;

// Installs the transport under test; the process backend additionally
// gets a rank topology (ranks <= 0 means "match the thread count", the
// battery's 1/2/8 sweep — so the fork/socket path is exercised at 1, 2,
// and 8 worker processes).
void UseTransport(Engine& e, TransportKind kind, int threads, int ranks = 0) {
  e.SetTransport(MakeTransport(kind));
  if (kind == TransportKind::kProcess) {
    e.SetRankCount(ranks > 0 ? ranks : threads);
  }
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

// Folds the node's whole inbox — sender ids, payload lengths, payload
// BITS (so -0.0 vs 0.0 or a denormal mangled in transit flips it) — into
// the per-node digest. Every protocol below calls this each round.
void FoldInbox(NodeContext& ctx, std::uint64_t& h) {
  for (const InMessage& m : ctx.Messages()) {
    h = Mix(h, m.from);
    h = Mix(h, m.payload.size());
    for (double x : m.payload) h = MixDouble(h, x);
  }
}

// The logical (transport-independent) RoundStats fields.
void ExpectSameLogicalHistory(const std::vector<RoundStats>& got,
                              const std::vector<RoundStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].round, want[i].round) << "round " << i;
    EXPECT_EQ(got[i].active_nodes, want[i].active_nodes) << "round " << i;
    EXPECT_EQ(got[i].messages, want[i].messages) << "round " << i;
    EXPECT_EQ(got[i].entries, want[i].entries) << "round " << i;
    EXPECT_EQ(got[i].distinct_values, want[i].distinct_values)
        << "round " << i;
  }
}

// Literal final-inbox comparison via Engine::inbox — sender ids, sizes,
// and payload bits.
void ExpectSameInboxes(const Engine& got, const Engine& want) {
  const NodeId n = want.graph().num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const auto a = got.inbox(v);
    const auto b = want.inbox(v);
    ASSERT_EQ(a.size(), b.size()) << "inbox size of node " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].from, b[i].from) << "node " << v << " slot " << i;
      ASSERT_EQ(a[i].payload.size(), b[i].payload.size())
          << "node " << v << " slot " << i;
      for (std::size_t k = 0; k < a[i].payload.size(); ++k) {
        std::uint64_t ba = 0, bb = 0;
        __builtin_memcpy(&ba, &a[i].payload[k], sizeof(ba));
        __builtin_memcpy(&bb, &b[i].payload[k], sizeof(bb));
        EXPECT_EQ(ba, bb) << "payload bits: node " << v << " slot " << i
                          << " entry " << k;
      }
    }
  }
}

// Per-kind wire-accounting invariants.
void ExpectWireAccounting(const Engine& e, TransportKind kind) {
  for (const RoundStats& r : e.history()) {
    if (kind == TransportKind::kSharedMemory) {
      EXPECT_EQ(r.bytes_sent, 0u) << "round " << r.round;
      EXPECT_EQ(r.bytes_received, 0u) << "round " << r.round;
    } else {
      EXPECT_EQ(r.bytes_sent, r.bytes_received) << "round " << r.round;
    }
  }
}

std::vector<std::size_t> BytesPerRound(const Engine& e) {
  std::vector<std::size_t> out;
  for (const RoundStats& r : e.history()) out.push_back(r.bytes_sent);
  return out;
}

// Mixin giving the digest protocols below per-rank compute support: the
// only per-node state beyond the runtime's is one digest word.
#define KCORE_DIGEST_RANK_STATE()                                           \
  bool SupportsRankCompute() const override { return true; }                \
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {    \
    out.Fixed64(digest_[v]);                                                \
  }                                                                         \
  void LoadNodeState(NodeId v, util::WireReader& in) override {             \
    digest_[v] = in.Fixed64();                                              \
  }

// P2P-heavy: variable-size payloads (including EMPTY ones and bit-tricky
// doubles: -0.0, a denormal, a huge magnitude) to round-dependent
// neighbor subsets.
class P2PWave : public distsim::Protocol {
 public:
  explicit P2PWave(NodeId n) : digest_(n, 0xcbf29ce484222325ULL) {}

  void Init(NodeContext& ctx) override { SendWave(ctx); }

  void Round(NodeContext& ctx) override {
    FoldInbox(ctx, digest_[ctx.id()]);
    SendWave(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }

  KCORE_DIGEST_RANK_STATE()

 private:
  void SendWave(NodeContext& ctx) {
    const auto nbrs = ctx.neighbors();
    const NodeId v = ctx.id();
    const auto r = static_cast<std::size_t>(ctx.round());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if ((i + v + r) % 3 != 0) continue;
      Payload p;
      switch ((v + i + r) % 5) {
        case 0:
          break;  // empty payload: varint-length-0 on the wire
        case 1:
          p = {-0.0};
          break;
        case 2:
          p = {1e-310, static_cast<double>(v)};  // denormal survives?
          break;
        case 3:
          p = {-1.7e308, static_cast<double>(r)};
          break;
        default:
          p = {static_cast<double>(v * 1000 + r * 10),
               static_cast<double>(i), 0.5};
          break;
      }
      ctx.Send(nbrs[i].to, std::move(p));
    }
  }

  std::vector<std::uint64_t> digest_;
};

// Broadcast-only: the transport must never be invoked (no p2p staged).
class BroadcastOnly : public distsim::Protocol {
 public:
  explicit BroadcastOnly(NodeId n) : digest_(n, 0x84222325cbf29ce4ULL) {}

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
    FoldInbox(ctx, h);  // must fold nothing, every round
    Shout(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }

  KCORE_DIGEST_RANK_STATE()

 private:
  void Shout(NodeContext& ctx) {
    const NodeId v = ctx.id();
    const auto r = static_cast<std::size_t>(ctx.round());
    if ((v + r) % 7 == 0) return;
    Payload p{static_cast<double>((v + r) % 17)};
    for (std::size_t k = 1; k < 1 + v % 3; ++k) {
      p.push_back(static_cast<double>(k));
    }
    ctx.Broadcast(std::move(p));
  }

  std::vector<std::uint64_t> digest_;
};

// Bursty: p2p only every fourth round, TOTAL silence otherwise (no
// broadcasts either). Quiet rounds exercise the no-traffic path and the
// stale-inbox clearing after a delivery round — a transport that leaves
// last round's inboxes behind flips the digest.
class BurstySilence : public distsim::Protocol {
 public:
  explicit BurstySilence(NodeId n) : digest_(n, 0x100000001b3ULL) {}

  void Init(NodeContext& ctx) override { MaybeBurst(ctx); }

  void Round(NodeContext& ctx) override {
    std::uint64_t& h = digest_[ctx.id()];
    h = Mix(h, ctx.Messages().size());
    FoldInbox(ctx, h);
    MaybeBurst(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }

  KCORE_DIGEST_RANK_STATE()

 private:
  void MaybeBurst(NodeContext& ctx) {
    if (ctx.round() % 4 != 1) return;
    const auto nbrs = ctx.neighbors();
    const NodeId v = ctx.id();
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if ((v + i) % 2 != 0) continue;
      ctx.Send(nbrs[i].to, {static_cast<double>(v), 2.0});
    }
  }

  std::vector<std::uint64_t> digest_;
};

// Star funnel: every leaf sends the hub one message per round (the hub's
// inbox concentrates n - 1 sender-sorted messages — the worst case for
// per-receiver offset/order bookkeeping); the hub answers a rotating
// leaf.
class StarFunnel : public distsim::Protocol {
 public:
  explicit StarFunnel(NodeId n) : digest_(n, 0x9e3779b97f4a7c15ULL) {}

  void Init(NodeContext& ctx) override { Send(ctx); }

  void Round(NodeContext& ctx) override {
    FoldInbox(ctx, digest_[ctx.id()]);
    Send(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }

  KCORE_DIGEST_RANK_STATE()

 private:
  void Send(NodeContext& ctx) {
    const auto nbrs = ctx.neighbors();
    const NodeId v = ctx.id();
    const auto r = static_cast<std::size_t>(ctx.round());
    if (nbrs.size() == 1) {
      // Leaf: funnel into the hub.
      ctx.Send(nbrs[0].to, {static_cast<double>(v), static_cast<double>(r)});
    } else if (!nbrs.empty()) {
      // Hub: answer one leaf, rotating.
      ctx.Send(nbrs[r % nbrs.size()].to, {static_cast<double>(r)});
    }
  }

  std::vector<std::uint64_t> digest_;
};

// Randomized gossip through per-node RNG streams (see
// scheduler_determinism_test) — used for the power-law + rebalancing
// case, where the partition changes mid-run.
class SeededGossip : public distsim::Protocol {
 public:
  explicit SeededGossip(NodeId n) : value_(n, 0.0) {}

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
      const std::size_t pick = ctx.Rng().NextBounded(nbrs.size());
      ctx.Send(nbrs[pick].to, {x + ctx.Rng().NextDouble()});
    }
    if (ctx.Rng().NextBool(0.5)) ctx.Broadcast({x});
  }

  const std::vector<double>& value() const { return value_; }

  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Double(value_[v]);
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    value_[v] = in.Double();
  }

 private:
  std::vector<double> value_;
};

// Changed-flag probe: every node counts the rounds in which all its
// neighbors' broadcasts came back unchanged (NodeContext ::
// NeighborsUnchanged) and broadcasts a snapshot of that count, refreshed
// every fifth round, through payloads that cover each way a broadcast
// can change or stay: value, length (past BroadcastStore::kInline),
// presence, 0.0 vs -0.0, and a NaN repeated bit for bit. Node kHalter
// halts in round 4, so its neighbors see it absent from then on.
class UnchangedCount : public distsim::Protocol {
 public:
  static constexpr NodeId kHalter = 3;

  explicit UnchangedCount(NodeId n)
      : count_(n, 0), shown_(n, 0), digest_(n, 0xa0761d6478bd642fULL) {}

  void Init(NodeContext& ctx) override { Shout(ctx); }

  void Round(NodeContext& ctx) override {
    const NodeId v = ctx.id();
    const bool same = ctx.NeighborsUnchanged();
    count_[v] += same ? 1 : 0;
    digest_[v] = Mix(digest_[v], same ? 1 : 0);
    if (v == kHalter && ctx.round() == 4) {
      ctx.Halt();
      return;
    }
    Shout(ctx);
  }

  const std::vector<std::uint64_t>& count() const { return count_; }
  const std::vector<std::uint64_t>& digest() const { return digest_; }

  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Fixed64(count_[v]);
    out.Fixed64(shown_[v]);
    out.Fixed64(digest_[v]);
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    count_[v] = in.Fixed64();
    shown_[v] = in.Fixed64();
    digest_[v] = in.Fixed64();
  }

 private:
  void Shout(NodeContext& ctx) {
    const NodeId v = ctx.id();
    if ((v + static_cast<NodeId>(ctx.round())) % 5 == 0) shown_[v] = count_[v];
    const double c = static_cast<double>(shown_[v]);
    const bool odd = shown_[v] % 2 != 0;
    switch (v % 4) {
      case 0:
        ctx.Broadcast({odd ? -0.0 : 0.0});
        break;
      case 1:
        if (odd) {
          ctx.Broadcast({c, 1.0, 2.0});
        } else {
          ctx.Broadcast({c});
        }
        break;
      case 2:
        if (!odd) ctx.Broadcast({std::numeric_limits<double>::quiet_NaN()});
        break;
      default:
        ctx.Broadcast({c});
    }
  }

  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> shown_;  // count_ as of the last refresh
  std::vector<std::uint64_t> digest_;
};

// Probe of the change-driven rank fan-out: each node's broadcast steps
// through a per-pattern sequence of states, holding each for 3 rounds
// (so most rounds repeat the last broadcast), and every round it folds
// every NeighborBroadcast (presence, length, entry bits) and the
// NeighborsUnchanged verdict into its digest. A missed record, a lost
// tombstone, a wrong carry or a wrong changed flag on any rank flips a
// digest.
enum class DeltaPattern {
  kAbsentAndBack,     // present, absent, back with the same value, new value
  kHalt,              // a third of the nodes halt mid-run
  kInlineBoundary,    // 1 -> 3 -> 3 -> 1 doubles across BroadcastStore::kInline
  kSignedZeroAndNaN,  // 0.0, -0.0, a NaN, a NaN with other payload bits
  kMixed,             // node v follows pattern v % 4
};

class DeltaProbe : public distsim::Protocol {
 public:
  DeltaProbe(NodeId n, DeltaPattern pattern)
      : pattern_(pattern), digest_(n, 0x27d4eb2f165667c5ULL) {}

  void Init(NodeContext& ctx) override { Emit(ctx); }

  void Round(NodeContext& ctx) override {
    std::uint64_t& h = digest_[ctx.id()];
    const bool same = ctx.NeighborsUnchanged();
    h = Mix(h, same ? 1 : 0);
    unchanged_ += same ? 1 : 0;
    for (std::size_t i = 0; i < ctx.degree(); ++i) {
      const distsim::BroadcastView b = ctx.NeighborBroadcast(i);
      h = Mix(h, b.present() ? b.size() + 1 : 0);
      for (double x : b) h = MixDouble(h, x);
      absent_reads_ += b.present() ? 0 : 1;
    }
    Emit(ctx);
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }
  // Read-side tallies of the in-engine run, to show the probe is not
  // vacuous (per-rank runs leave them unshipped).
  std::uint64_t unchanged() const { return unchanged_; }
  std::uint64_t absent_reads() const { return absent_reads_; }

  KCORE_DIGEST_RANK_STATE()

 private:
  void Emit(NodeContext& ctx) {
    const NodeId v = ctx.id();
    const double x = static_cast<double>(v % 5);
    const int state = (ctx.round() + 5 * static_cast<int>(v)) / 3 % 4;
    DeltaPattern pattern = pattern_;
    if (pattern == DeltaPattern::kMixed) {
      pattern = static_cast<DeltaPattern>(v % 4);
    }
    switch (pattern) {
      case DeltaPattern::kAbsentAndBack:
        if (state == 1) return;
        ctx.Broadcast({state == 3 ? x + 1.0 : x});
        return;
      case DeltaPattern::kHalt:
        if (v % 3 == 0 && ctx.round() == 3 + static_cast<int>(v % 9)) {
          ctx.Halt();
          return;
        }
        ctx.Broadcast({x});
        return;
      case DeltaPattern::kInlineBoundary:
        if (state == 0 || state == 3) {
          ctx.Broadcast({x});
        } else {
          ctx.Broadcast({x, 1.0, state == 1 ? 2.0 : 3.0});
        }
        return;
      case DeltaPattern::kSignedZeroAndNaN: {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        const double values[] = {
            0.0, -0.0, nan,
            std::bit_cast<double>(std::bit_cast<std::uint64_t>(nan) | 1u)};
        ctx.Broadcast({values[state]});
        return;
      }
      case DeltaPattern::kMixed:
        break;
    }
  }

  DeltaPattern pattern_;
  std::vector<std::uint64_t> digest_;
  std::uint64_t unchanged_ = 0;
  std::uint64_t absent_reads_ = 0;
};

template <typename Proto>
void RunRounds(Engine& engine, Proto& proto, int rounds) {
  engine.Start(proto);
  for (int t = 0; t < rounds; ++t) engine.Step(proto);
}

class TransportConformance : public ::testing::TestWithParam<TransportKind> {};

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportConformance,
    ::testing::Values(TransportKind::kSharedMemory,
                      TransportKind::kSerialized, TransportKind::kProcess),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return distsim::TransportKindName(info.param);
    });

constexpr int kThreadCounts[] = {1, 2, 8};

TEST_P(TransportConformance, P2PHeavyMatchesSequentialBaseline) {
  util::Rng rng(301);
  const graph::Graph g = graph::BarabasiAlbert(1200, 4, rng);
  P2PWave base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, 12);

  std::vector<std::size_t> reference_bytes;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    P2PWave p(g.num_nodes());
    Engine e(g, threads);
    e.SetParallelCutoff(1);  // force real sharding even at small n
    UseTransport(e, GetParam(), threads);
    RunRounds(e, p, 12);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
    ExpectSameInboxes(e, eb);
    ExpectWireAccounting(e, GetParam());
    if (GetParam() != TransportKind::kSharedMemory) {
      // Every round staged p2p, so every round has wire traffic...
      for (const RoundStats& r : e.history()) {
        EXPECT_GT(r.bytes_sent, 0u) << "round " << r.round;
      }
      // ...and the byte counts are partition-independent: identical at
      // every thread count (and, for the process backend, rank count —
      // the 1/2/8 sweep varies both together here).
      if (reference_bytes.empty()) {
        reference_bytes = BytesPerRound(e);
      } else {
        EXPECT_EQ(BytesPerRound(e), reference_bytes);
      }
    }
  }
}

TEST_P(TransportConformance, BroadcastOnlyNeverTouchesTheWire) {
  util::Rng rng(302);
  const graph::Graph g = graph::BarabasiAlbert(1000, 3, rng);
  BroadcastOnly base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, 10);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    BroadcastOnly p(g.num_nodes());
    Engine e(g, threads);
    e.SetParallelCutoff(1);
    UseTransport(e, GetParam(), threads);
    RunRounds(e, p, 10);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
    // No p2p staged => the transport is never invoked: zero wire volume
    // for EVERY kind, serialized included.
    for (const RoundStats& r : e.history()) {
      EXPECT_EQ(r.bytes_sent, 0u) << "round " << r.round;
      EXPECT_EQ(r.bytes_received, 0u) << "round " << r.round;
    }
  }
}

TEST_P(TransportConformance, EmptyRoundsClearStaleInboxes) {
  util::Rng rng(303);
  const graph::Graph g = graph::BarabasiAlbert(900, 3, rng);
  BurstySilence base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, 14);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    BurstySilence p(g.num_nodes());
    Engine e(g, threads);
    e.SetParallelCutoff(1);
    UseTransport(e, GetParam(), threads);
    RunRounds(e, p, 14);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
    ExpectSameInboxes(e, eb);
    ExpectWireAccounting(e, GetParam());
  }
}

TEST_P(TransportConformance, SelfLoopFreeStarFunnel) {
  const graph::Graph g = graph::Star(600);
  ASSERT_FALSE(g.has_self_loops());
  StarFunnel base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, 12);
  // The hub really concentrates the traffic.
  ASSERT_EQ(eb.inbox(0).size(), 599u);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    StarFunnel p(g.num_nodes());
    Engine e(g, threads);
    e.SetParallelCutoff(1);
    UseTransport(e, GetParam(), threads);
    RunRounds(e, p, 12);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
    ExpectSameInboxes(e, eb);
    ExpectWireAccounting(e, GetParam());
  }
}

TEST_P(TransportConformance, PowerLawWithRebalancingGossip) {
  util::Rng rng(304);
  const graph::Graph g = graph::PowerLawConfiguration(1500, 2.1, 2, 150, rng);
  SeededGossip base(g.num_nodes());
  Engine eb(g, 1);
  eb.SetSeed(777);
  RunRounds(eb, base, 15);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    SeededGossip p(g.num_nodes());
    Engine e(g, threads);
    e.SetSeed(777);
    e.SetParallelCutoff(1);
    // Weighted shards rebuilt every 3 rounds: the serialized pack/unpack
    // partition changes mid-run; results must not care.
    e.SetShardBalancing(true);
    e.SetRebalanceInterval(3);
    UseTransport(e, GetParam(), threads);
    RunRounds(e, p, 15);
    EXPECT_EQ(p.value(), base.value());
    ExpectSameLogicalHistory(e.history(), eb.history());
    ExpectSameInboxes(e, eb);
    ExpectWireAccounting(e, GetParam());
  }
}

TEST_P(TransportConformance, CompactCorenessAcrossThreadCounts) {
  util::Rng rng(305);
  const graph::Graph g = graph::BarabasiAlbert(800, 4, rng);
  core::CompactOptions base_opts;
  base_opts.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  const core::CompactResult base = core::RunCompactElimination(g, base_opts);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    core::CompactOptions opts = base_opts;
    opts.num_threads = threads;
    opts.transport = GetParam();
    if (GetParam() == TransportKind::kProcess) opts.ranks = threads;
    const core::CompactResult res = core::RunCompactElimination(g, opts);
    EXPECT_EQ(res.b, base.b);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

// The changed flags behind NodeContext::NeighborsUnchanged are part of
// the round semantics: every transport and thread count must report the
// same flag to every node in every round.
TEST_P(TransportConformance, ChangedFlagsAcrossThreadCounts) {
  util::Rng rng(313);
  const graph::Graph g = graph::PowerLawConfiguration(900, 2.3, 2, 40, rng);
  constexpr int kRounds = 24;
  UnchangedCount base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, kRounds);
  // The probe is not vacuous: the flag takes both values, and the
  // halted node stays absent.
  std::uint64_t unchanged = 0;
  for (std::uint64_t c : base.count()) unchanged += c;
  ASSERT_GT(unchanged, 0u);
  ASSERT_LT(unchanged, std::uint64_t{g.num_nodes()} * kRounds / 2);
  ASSERT_TRUE(eb.halted(UnchangedCount::kHalter));

  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    UnchangedCount p(g.num_nodes());
    Engine e(g, threads);
    e.SetParallelCutoff(1);
    UseTransport(e, GetParam(), threads);
    RunRounds(e, p, kRounds);
    EXPECT_EQ(p.count(), base.count());
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
  }
}

TEST_P(TransportConformance, MontresorCorenessAcrossThreadCounts) {
  util::Rng rng(306);
  const graph::Graph g = graph::BarabasiAlbert(800, 3, rng);
  const core::ConvergenceResult base = core::RunToConvergence(g, -1, 1);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    const core::ConvergenceResult res = core::RunToConvergence(
        g, -1, threads, distsim::kDefaultMasterSeed, /*balance_shards=*/false,
        GetParam(),
        /*ranks=*/GetParam() == TransportKind::kProcess ? threads : 1);
    EXPECT_EQ(res.coreness, base.coreness);
    EXPECT_EQ(res.rounds_executed, base.rounds_executed);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

// ---------------------------------------------------------------------
// The three non-k-core protocol families, driven through the same sweep:
// hyperedge-incidence updates (hypergraph elimination over the clique
// expansion), presence-coded in/out-degree pairs (directed d-core over
// the support substrate), and the four-phase densest pipeline with its
// density-ratio convergecast. Message shapes the k-core protocols never
// stage — same contract, same baselines.
// ---------------------------------------------------------------------

TEST_P(TransportConformance, HyperEliminationAcrossThreadCounts) {
  util::Rng rng(310);
  const hyper::Hypergraph h = hyper::RandomUniform(500, 1000, 3, rng);
  hyper::HyperElimOptions base_opts;
  base_opts.rounds = 5;
  const hyper::HyperElimResult base = RunHyperElimination(h, base_opts);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    hyper::HyperElimOptions opts = base_opts;
    opts.num_threads = threads;
    opts.transport = GetParam();
    if (GetParam() == TransportKind::kProcess) opts.ranks = threads;
    const hyper::HyperElimResult res = RunHyperElimination(h, opts);
    EXPECT_EQ(res.b, base.b);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

TEST_P(TransportConformance, DCoreEliminationAcrossThreadCounts) {
  util::Rng rng(311);
  const directed::Digraph g = directed::RandomDigraph(500, 0.012, rng);
  directed::DCoreElimOptions base_opts;
  base_opts.rounds = 5;
  const directed::DCoreElimResult base =
      RunDCoreElimination(g, 2.0, base_opts);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    directed::DCoreElimOptions opts = base_opts;
    opts.num_threads = threads;
    opts.transport = GetParam();
    if (GetParam() == TransportKind::kProcess) opts.ranks = threads;
    const directed::DCoreElimResult res = RunDCoreElimination(g, 2.0, opts);
    EXPECT_EQ(res.b, base.b);
    EXPECT_EQ(res.active, base.active);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

TEST_P(TransportConformance, WeakDensestAcrossThreadCounts) {
  util::Rng rng(312);
  const graph::Graph g = graph::BarabasiAlbert(400, 3, rng);
  core::WeakDensestOptions base_opts;
  base_opts.gamma = 3.0;
  const core::WeakDensestResult base = RunWeakDensest(g, base_opts);

  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    core::WeakDensestOptions opts = base_opts;
    opts.num_threads = threads;
    opts.transport = GetParam();
    if (GetParam() == TransportKind::kProcess) opts.ranks = threads;
    const core::WeakDensestResult res = RunWeakDensest(g, opts);
    EXPECT_EQ(res.b, base.b);
    EXPECT_EQ(res.selected, base.selected);
    EXPECT_EQ(res.leader_of, base.leader_of);
    EXPECT_EQ(res.best_density, base.best_density);
    EXPECT_EQ(res.subsets.size(), base.subsets.size());
    EXPECT_EQ(res.totals.messages, base.totals.messages);
    EXPECT_EQ(res.totals.entries, base.totals.entries);
  }
}

// ---------------------------------------------------------------------
// Process-backend-specific cases: rank topology, worker lifecycle, and
// the killed-worker failure mode.
// ---------------------------------------------------------------------

// The rank partition is independent of the thread shards: a sequential
// engine can exchange over 8 worker processes, an 8-thread engine over
// 2, and a 2-thread engine over 5 — all bit-identical to the sequential
// baseline, with byte counts equal to the serialized backend's (the
// segment encoding is shared, and absolute).
TEST(ProcessTransportTopology, RanksOrthogonalToThreads) {
  util::Rng rng(307);
  const graph::Graph g = graph::BarabasiAlbert(900, 4, rng);
  P2PWave base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, 10);

  P2PWave pser(g.num_nodes());
  Engine eser(g, 1);
  eser.SetTransport(MakeTransport(TransportKind::kSerialized));
  RunRounds(eser, pser, 10);
  const std::vector<std::size_t> serialized_bytes = BytesPerRound(eser);

  constexpr struct {
    int threads;
    int ranks;
  } kConfigs[] = {{1, 8}, {8, 2}, {2, 5}};
  for (const auto& cfg : kConfigs) {
    SCOPED_TRACE(::testing::Message()
                 << "threads=" << cfg.threads << " ranks=" << cfg.ranks);
    P2PWave p(g.num_nodes());
    Engine e(g, cfg.threads);
    e.SetParallelCutoff(1);
    UseTransport(e, TransportKind::kProcess, cfg.threads, cfg.ranks);
    RunRounds(e, p, 10);
    EXPECT_EQ(e.num_ranks(), cfg.ranks);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
    ExpectSameInboxes(e, eb);
    ExpectWireAccounting(e, TransportKind::kProcess);
    EXPECT_EQ(BytesPerRound(e), serialized_bytes);
  }
}

// Workers are live for the engine's run and reaped on teardown: an
// explicit Shutdown() reports a clean exit for every rank and the pids
// are gone afterwards (no zombies — waitpid ran), and the implicit
// destructor path does the same when the engine dies.
TEST(ProcessTransportLifecycle, ShutdownReapsAllWorkers) {
  util::Rng rng(308);
  const graph::Graph g = graph::BarabasiAlbert(400, 3, rng);
  auto owned = std::make_unique<ProcessTransport>();
  ProcessTransport* transport = owned.get();

  P2PWave p(g.num_nodes());
  Engine e(g, 1);
  e.SetRankCount(4);
  e.SetTransport(std::move(owned));
  RunRounds(e, p, 4);

  ASSERT_TRUE(transport->started());
  ASSERT_EQ(transport->num_workers(), 4);
  std::vector<pid_t> pids;
  for (int r = 0; r < 4; ++r) {
    pids.push_back(transport->worker_pid(r));
    EXPECT_EQ(::kill(pids.back(), 0), 0) << "worker " << r << " not running";
  }

  EXPECT_TRUE(transport->Shutdown()) << "a worker exited uncleanly";
  EXPECT_TRUE(transport->Shutdown()) << "Shutdown must be idempotent";
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(::kill(pids[r], 0), 0)
        << "worker " << r << " (pid " << pids[r] << ") survived shutdown";
  }
}

TEST(ProcessTransportLifecycle, EngineDestructorTearsWorkersDown) {
  util::Rng rng(309);
  const graph::Graph g = graph::BarabasiAlbert(400, 3, rng);
  std::vector<pid_t> pids;
  {
    auto owned = std::make_unique<ProcessTransport>();
    ProcessTransport* transport = owned.get();
    P2PWave p(g.num_nodes());
    Engine e(g, 2);
    e.SetParallelCutoff(1);
    e.SetRankCount(3);
    e.SetTransport(std::move(owned));
    RunRounds(e, p, 4);
    for (int r = 0; r < transport->num_workers(); ++r) {
      pids.push_back(transport->worker_pid(r));
      ASSERT_EQ(::kill(pids.back(), 0), 0);
    }
  }
  for (pid_t pid : pids) {
    EXPECT_NE(::kill(pid, 0), 0) << "worker pid " << pid
                                 << " survived the engine destructor";
  }
}

// A worker killed mid-run must surface as an abort naming the rank on
// the next exchange (EPIPE/EOF on its socketpair), never as a hang or a
// silently wrong result.
TEST(ProcessTransportDeathTest, KilledWorkerAbortsWithRank) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  util::Rng rng(310);
  const graph::Graph g = graph::BarabasiAlbert(300, 3, rng);
  EXPECT_DEATH(
      {
        auto owned = std::make_unique<ProcessTransport>();
        ProcessTransport* transport = owned.get();
        P2PWave p(g.num_nodes());
        Engine e(g, 1);
        e.SetRankCount(4);
        e.SetTransport(std::move(owned));
        e.Start(p);
        e.Step(p);
        const pid_t victim = transport->worker_pid(2);
        ::kill(victim, SIGKILL);
        int status = 0;
        ::waitpid(victim, &status, 0);  // it is really gone, not dying
        for (int t = 0; t < 50; ++t) e.Step(p);
      },
      "process transport rank 2 died");
}

// A worker killed mid-run, then an ORDERLY Shutdown (no exchange in
// between, so ReportDeadWorker never fires): the dead rank is reaped
// exactly once, counted unclean exactly once, and the second Shutdown
// repeats the verdict without touching waitpid again (a double reap of a
// recycled pid would be a stranger's process).
TEST(ProcessTransportLifecycle, KillThenShutdownCountsUncleanOnce) {
  util::Rng rng(311);
  const graph::Graph g = graph::BarabasiAlbert(400, 3, rng);
  auto owned = std::make_unique<ProcessTransport>();
  ProcessTransport* transport = owned.get();
  P2PWave p(g.num_nodes());
  Engine e(g, 1);
  e.SetRankCount(4);
  e.SetTransport(std::move(owned));
  RunRounds(e, p, 3);

  std::vector<pid_t> pids;
  for (int r = 0; r < 4; ++r) pids.push_back(transport->worker_pid(r));
  ::kill(pids[1], SIGKILL);

  EXPECT_FALSE(transport->Shutdown()) << "a SIGKILLed worker is not clean";
  EXPECT_FALSE(transport->Shutdown()) << "the verdict must be stable";
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(::kill(pids[r], 0), 0)
        << "worker " << r << " survived shutdown";
  }
  // Every worker was reaped by the first Shutdown: no children remain
  // anywhere on this process (a leftover zombie would show up here).
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// ---------------------------------------------------------------------
// Startup failure path (TryStart): a socketpair() or fork() failing
// mid-topology must leak neither file descriptors nor child processes.
// InjectStartFault makes the Nth resource allocation fail with a
// synthetic EMFILE; with 4 ranks the build makes 4 parent pairs, 6 peer
// pairs, and 4 forks = 14 allocations, so the sweep hits every phase of
// the construction (first/last socketpair, first/mid/last fork).
// ---------------------------------------------------------------------

std::size_t CountOpenFds() {
  std::size_t count = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++count;
  ::closedir(d);
  return count;
}

TEST(ProcessTransportStartFailure, NthAllocationFailureLeaksNothing) {
  const graph::NodeId n = 300;
  const std::uint64_t bounds[] = {0, 75, 150, 225, 300};
  const int kAllocations = 4 + 6 + 4;  // parent pairs + peer pairs + forks
  for (int nth = 1; nth <= kAllocations; ++nth) {
    SCOPED_TRACE(::testing::Message() << "failing allocation " << nth);
    ProcessTransport t;
    const std::size_t fds_before = CountOpenFds();
    ProcessTransport::InjectStartFault(nth);
    std::string error;
    EXPECT_FALSE(t.TryStart(n, 4, bounds, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(t.started());
    EXPECT_EQ(CountOpenFds(), fds_before) << "fd leak: " << error;
    // Every already-forked worker was killed and reaped before TryStart
    // returned — no children (zombie or live) outlive the failure.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << error;
    EXPECT_EQ(errno, ECHILD) << error;
  }
  // The failure is not sticky: a fresh attempt builds the full topology.
  ProcessTransport t;
  std::string error;
  EXPECT_TRUE(t.TryStart(n, 4, bounds, &error)) << error;
  EXPECT_TRUE(t.started());
  EXPECT_TRUE(t.Shutdown());
}

// ---------------------------------------------------------------------
// Per-rank compute: the compute phase runs INSIDE the rank workers
// (Engine::SetPerRankCompute) — each worker owns its slice's protocol
// state, RNG streams, and broadcasts, exchanges p2p + broadcast fan-out
// peer-to-peer, and returns stats partials. Everything observable must
// stay bit-identical to the in-engine compute path at every rank/thread
// combination; the engine's thread count must be completely orthogonal
// (workers compute sequentially — threads only ever touched the
// in-engine phases).
// ---------------------------------------------------------------------

constexpr struct {
  int ranks;
  int threads;
} kPerRankMatrix[] = {{1, 1}, {1, 8}, {2, 1}, {2, 8}, {8, 1}, {8, 8}};

TEST(PerRankCompute, P2PWaveMatrixMatchesSequentialBaseline) {
  util::Rng rng(401);
  const graph::Graph g = graph::BarabasiAlbert(900, 4, rng);
  P2PWave base(g.num_nodes());
  Engine eb(g, 1);
  eb.SetTransport(MakeTransport(TransportKind::kSerialized));
  RunRounds(eb, base, 10);
  const std::vector<std::size_t> reference_bytes = BytesPerRound(eb);

  for (const auto& cfg : kPerRankMatrix) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << cfg.ranks << " threads=" << cfg.threads);
    P2PWave p(g.num_nodes());
    Engine e(g, cfg.threads);
    e.SetParallelCutoff(1);
    UseTransport(e, TransportKind::kProcess, cfg.threads, cfg.ranks);
    e.SetPerRankCompute(true);
    RunRounds(e, p, 10);
    e.FetchRankState(p);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
    ExpectWireAccounting(e, TransportKind::kProcess);
    // p2p byte accounting is the shared absolute encoding: identical to
    // the serialized backend's at every rank count.
    EXPECT_EQ(BytesPerRound(e), reference_bytes);
  }
}

TEST(PerRankCompute, SilentRoundsReportZeroBytes) {
  util::Rng rng(402);
  const graph::Graph g = graph::BarabasiAlbert(700, 3, rng);
  BurstySilence base(g.num_nodes());
  Engine eb(g, 1);
  eb.SetTransport(MakeTransport(TransportKind::kSerialized));
  RunRounds(eb, base, 13);

  BurstySilence p(g.num_nodes());
  Engine e(g, 1);
  UseTransport(e, TransportKind::kProcess, 1, 4);
  e.SetPerRankCompute(true);
  RunRounds(e, p, 13);
  e.FetchRankState(p);
  EXPECT_EQ(p.digest(), base.digest());
  // The workers run their peer exchange every round, but framing
  // overhead is not payload: silent rounds report exactly 0 bytes, just
  // like the in-engine path — and loud rounds the identical count.
  EXPECT_EQ(BytesPerRound(e), BytesPerRound(eb));
  for (const RoundStats& r : e.history()) {
    if (r.round % 4 != 1) {
      EXPECT_EQ(r.bytes_sent, 0u) << "round " << r.round;
    }
  }
}

TEST(PerRankCompute, SeededGossipRngStreamsBitIdentical) {
  util::Rng rng(403);
  const graph::Graph g = graph::PowerLawConfiguration(1100, 2.2, 2, 120, rng);
  SeededGossip base(g.num_nodes());
  Engine eb(g, 1);
  eb.SetSeed(777);
  RunRounds(eb, base, 12);

  for (const auto& cfg : kPerRankMatrix) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << cfg.ranks << " threads=" << cfg.threads);
    SeededGossip p(g.num_nodes());
    Engine e(g, cfg.threads);
    e.SetSeed(777);
    e.SetParallelCutoff(1);
    UseTransport(e, TransportKind::kProcess, cfg.threads, cfg.ranks);
    e.SetPerRankCompute(true);
    RunRounds(e, p, 12);
    e.FetchRankState(p);
    // The workers rebuild their nodes' RNG streams from the master seed
    // (ForkKeyed is state-pure), so every draw matches the in-engine
    // streams bit for bit.
    EXPECT_EQ(p.value(), base.value());
    ExpectSameLogicalHistory(e.history(), eb.history());
  }
}

TEST(PerRankCompute, CompactCorenessMatrixBitIdentical) {
  util::Rng rng(404);
  const graph::Graph g = graph::BarabasiAlbert(800, 4, rng);
  core::CompactOptions base_opts;
  base_opts.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  base_opts.track_orientation = true;
  const core::CompactResult base = core::RunCompactElimination(g, base_opts);

  for (const auto& cfg : kPerRankMatrix) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << cfg.ranks << " threads=" << cfg.threads);
    core::CompactOptions opts = base_opts;
    opts.num_threads = cfg.threads;
    opts.transport = TransportKind::kProcess;
    opts.ranks = cfg.ranks;
    opts.per_rank_compute = true;
    const core::CompactResult res = core::RunCompactElimination(g, opts);
    EXPECT_EQ(res.b, base.b);
    EXPECT_EQ(res.in_sets, base.in_sets);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

// Rank workers set the flags of remote nodes while decoding their
// peers' fan-out (BroadcastStore::Deliver); they must agree with the
// engine's Stage-time flags for every node in every round.
TEST(PerRankCompute, ChangedFlagsMatchInEngine) {
  util::Rng rng(313);
  const graph::Graph g = graph::PowerLawConfiguration(900, 2.3, 2, 40, rng);
  constexpr int kRounds = 24;
  UnchangedCount base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, kRounds);

  for (int ranks : {1, 2, 3}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "ranks=" << ranks << " threads=" << threads);
      UnchangedCount p(g.num_nodes());
      Engine e(g, threads);
      e.SetParallelCutoff(1);
      UseTransport(e, TransportKind::kProcess, threads, ranks);
      e.SetPerRankCompute(true);
      RunRounds(e, p, kRounds);
      e.FetchRankState(p);
      EXPECT_EQ(p.count(), base.count());
      EXPECT_EQ(p.digest(), base.digest());
      EXPECT_TRUE(e.halted(UnchangedCount::kHalter));
      ExpectSameLogicalHistory(e.history(), eb.history());
    }
  }
}

// Every RoundStats field, the broadcast fan-out counters included.
void ExpectSameRoundStats(const std::vector<RoundStats>& got,
                          const std::vector<RoundStats>& want) {
  ExpectSameLogicalHistory(got, want);
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    EXPECT_EQ(got[i].bytes_sent, want[i].bytes_sent) << "round " << i;
    EXPECT_EQ(got[i].bytes_received, want[i].bytes_received) << "round " << i;
    EXPECT_EQ(got[i].bcast_bytes_sent, want[i].bcast_bytes_sent)
        << "round " << i;
    EXPECT_EQ(got[i].bcast_bytes_received, want[i].bcast_bytes_received)
        << "round " << i;
    EXPECT_EQ(got[i].bcast_bytes_per_neighbor,
              want[i].bcast_bytes_per_neighbor)
        << "round " << i;
  }
}

// Rank workers ship only the broadcasts that changed, plus tombstones
// for the ones that went absent, and carry the rest forward. Whatever a
// probe pattern does to its broadcasts, every node must read — and see
// flagged — exactly what it reads in-engine, at every rank and thread
// count, with the same RoundStats (the fan-out counters keep the
// full-fan-out model).
void ExpectDeltaFanOutMatchesInEngine(DeltaPattern pattern) {
  util::Rng rng(430);
  const graph::Graph g = graph::PowerLawConfiguration(500, 2.3, 2, 40, rng);
  const NodeId n = g.num_nodes();
  constexpr int kRounds = 21;
  for (int ranks : {1, 2, 3, 4}) {
    // The in-engine reference at the same rank topology, so its fan-out
    // counters are the analytic ones for these ranks.
    DeltaProbe base(n, pattern);
    Engine eb(g, 1);
    UseTransport(eb, TransportKind::kProcess, 1, ranks);
    RunRounds(eb, base, kRounds);
    // Not vacuous: the flag takes both values and some reads are absent.
    ASSERT_GT(base.unchanged(), 0u);
    ASSERT_LT(base.unchanged(), std::uint64_t{n} * kRounds);
    if (pattern != DeltaPattern::kInlineBoundary &&
        pattern != DeltaPattern::kSignedZeroAndNaN) {
      ASSERT_GT(base.absent_reads(), 0u);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "ranks=" << ranks << " threads=" << threads);
      DeltaProbe p(n, pattern);
      Engine e(g, threads);
      e.SetParallelCutoff(1);
      UseTransport(e, TransportKind::kProcess, threads, ranks);
      e.SetPerRankCompute(true);
      RunRounds(e, p, kRounds);
      e.FetchRankState(p);
      EXPECT_EQ(p.digest(), base.digest());
      ExpectSameRoundStats(e.history(), eb.history());
      EXPECT_EQ(e.num_halted(), eb.num_halted());
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(e.halted(v), eb.halted(v)) << "node " << v;
      }
    }
  }
}

TEST(PerRankCompute, DeltaFanOutAbsentAndBack) {
  ExpectDeltaFanOutMatchesInEngine(DeltaPattern::kAbsentAndBack);
}

TEST(PerRankCompute, DeltaFanOutHaltedNodesTombstone) {
  ExpectDeltaFanOutMatchesInEngine(DeltaPattern::kHalt);
}

TEST(PerRankCompute, DeltaFanOutInlineBoundary) {
  ExpectDeltaFanOutMatchesInEngine(DeltaPattern::kInlineBoundary);
}

TEST(PerRankCompute, DeltaFanOutSignedZeroAndNaN) {
  ExpectDeltaFanOutMatchesInEngine(DeltaPattern::kSignedZeroAndNaN);
}

TEST(PerRankCompute, DeltaFanOutMixedPatterns) {
  ExpectDeltaFanOutMatchesInEngine(DeltaPattern::kMixed);
}

TEST(PerRankCompute, MontresorQuiescenceMatchesInEngine) {
  util::Rng rng(405);
  const graph::Graph g = graph::BarabasiAlbert(600, 3, rng);
  const core::ConvergenceResult base = core::RunToConvergence(g, -1, 1);

  for (int ranks : {2, 8}) {
    SCOPED_TRACE(ranks);
    const core::ConvergenceResult res = core::RunToConvergence(
        g, -1, 1, distsim::kDefaultMasterSeed, /*balance_shards=*/false,
        TransportKind::kProcess, ranks, /*per_rank_compute=*/true);
    EXPECT_EQ(res.coreness, base.coreness);
    // Distributed quiescence (OR of per-slice change flags) detects the
    // fixpoint in exactly the same round as the global predicate.
    EXPECT_EQ(res.rounds_executed, base.rounds_executed);
    EXPECT_EQ(res.last_change_round, base.last_change_round);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

TEST(PerRankCompute, TwoPhaseOrientationMatchesInEngine) {
  util::Rng rng(406);
  const graph::Graph g = graph::BarabasiAlbert(500, 4, rng);
  const int t = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  const core::TwoPhaseResult base = core::RunTwoPhaseOrientation(g, t, 0.5);

  const core::TwoPhaseResult res = core::RunTwoPhaseOrientation(
      g, t, 0.5, -1, 1, distsim::kDefaultMasterSeed,
      /*balance_shards=*/false, TransportKind::kProcess, /*ranks=*/4,
      /*per_rank_compute=*/true);
  EXPECT_EQ(res.b, base.b);
  // Peeling halts nodes worker-side; the merged halted census drives the
  // driver's stopping rule to the identical round.
  EXPECT_EQ(res.phase2_rounds, base.phase2_rounds);
  EXPECT_EQ(res.forced_edges, base.forced_edges);
  ExpectSameLogicalHistory(res.phase2_history, base.phase2_history);
}

// SetGraphPath switches the init frames from wire-serialized slices to
// worker-side LoadBinarySlice against the binary graph format — the
// rank_bounds ingestion contract of graph/binio.h. Results must not
// care which road the slice took.
TEST(PerRankCompute, BinioSliceLoadMatchesWireSerializedSlice) {
  util::Rng rng(409);
  const graph::Graph g = graph::BarabasiAlbert(650, 4, rng);
  const std::string path =
      std::string(::testing::TempDir()) + "/per_rank_slice.kcg";
  ASSERT_TRUE(graph::SaveBinary(g, path));

  P2PWave base(g.num_nodes());
  Engine eb(g, 1);
  RunRounds(eb, base, 9);

  for (int ranks : {2, 5}) {
    SCOPED_TRACE(ranks);
    P2PWave p(g.num_nodes());
    Engine e(g, 1);
    UseTransport(e, TransportKind::kProcess, 1, ranks);
    e.SetPerRankCompute(true);
    e.SetGraphPath(path);
    RunRounds(e, p, 9);
    e.FetchRankState(p);
    EXPECT_EQ(p.digest(), base.digest());
    ExpectSameLogicalHistory(e.history(), eb.history());
  }
  std::remove(path.c_str());
}

// Many ranks, past the tools' --ranks cap: every INIT frame must still
// ship its slice's incident edges, in global edge-id order.
TEST(PerRankCompute, InitFramesAtManyRanks) {
  util::Rng rng(410);
  const graph::Graph g = graph::BarabasiAlbert(240, 3, rng);
  core::CompactOptions base_opts;
  base_opts.rounds = 6;
  base_opts.track_orientation = true;
  const core::CompactResult base = core::RunCompactElimination(g, base_opts);
  for (int ranks : {16, 17}) {
    SCOPED_TRACE(ranks);
    core::CompactOptions opts = base_opts;
    opts.transport = TransportKind::kProcess;
    opts.ranks = ranks;
    opts.per_rank_compute = true;
    const core::CompactResult res = core::RunCompactElimination(g, opts);
    EXPECT_EQ(res.b, base.b);
    EXPECT_EQ(res.in_sets, base.in_sets);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

// The broadcast fan-out accounting: the coordinator's ANALYTIC census
// (in-engine compute, rank topology known) must equal the workers'
// per-rank model count (per-rank compute, built from the fan-out tables
// each worker derives from its slice at INIT) — round by round, field by
// field. Both are the CONGEST model count of the fan-out rule; the bytes
// the workers actually ship (changed broadcasts and tombstones only)
// are smaller and are not pinned here.
TEST(PerRankCompute, BroadcastFanOutAnalyticMatchesMeasured) {
  util::Rng rng(407);
  const graph::Graph g = graph::BarabasiAlbert(700, 4, rng);
  core::CompactOptions opts;
  opts.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  opts.transport = TransportKind::kProcess;
  opts.ranks = 4;
  const core::CompactResult analytic = core::RunCompactElimination(g, opts);
  opts.per_rank_compute = true;
  const core::CompactResult measured = core::RunCompactElimination(g, opts);

  ASSERT_EQ(analytic.history.size(), measured.history.size());
  for (std::size_t i = 0; i < analytic.history.size(); ++i) {
    EXPECT_EQ(measured.history[i].bcast_bytes_sent,
              analytic.history[i].bcast_bytes_sent)
        << "round " << i;
    EXPECT_EQ(measured.history[i].bcast_bytes_received,
              analytic.history[i].bcast_bytes_received)
        << "round " << i;
    EXPECT_EQ(measured.history[i].bcast_bytes_per_neighbor,
              analytic.history[i].bcast_bytes_per_neighbor)
        << "round " << i;
    // Every modelled copy is counted once by its sender and once by its
    // receiver: fan-out copies are point-to-point.
    EXPECT_EQ(measured.history[i].bcast_bytes_sent,
              measured.history[i].bcast_bytes_received)
        << "round " << i;
  }
  EXPECT_EQ(measured.totals.bcast_bytes_sent, analytic.totals.bcast_bytes_sent);
  EXPECT_EQ(measured.totals.bcast_bytes_per_neighbor,
            analytic.totals.bcast_bytes_per_neighbor);
}

// On a dense graph the fan-out rule is the whole point: one copy per
// remote neighbor-owning rank beats one per remote neighbor STRICTLY —
// K_64 over 4 ranks fans each broadcast to at most 3 rank copies instead
// of 48 per-neighbor copies.
TEST(PerRankCompute, DenseGraphFanOutBeatsPerNeighborStrictly) {
  const graph::Graph g = graph::Complete(64);
  core::CompactOptions opts;
  opts.rounds = 4;
  opts.transport = TransportKind::kProcess;
  opts.ranks = 4;
  opts.per_rank_compute = true;
  const core::CompactResult res = core::RunCompactElimination(g, opts);
  EXPECT_GT(res.totals.bcast_bytes_sent, 0u);
  EXPECT_LT(res.totals.bcast_bytes_sent,
            res.totals.bcast_bytes_per_neighbor);
  // The exact ratio on K_64 / 4 ranks: every node has 48 remote
  // neighbors in exactly 3 remote ranks.
  EXPECT_EQ(res.totals.bcast_bytes_per_neighbor,
            res.totals.bcast_bytes_sent / 3 * 48);
  // Coreness is untouched by the topology: K_64 is its own 63-core
  // (weighted degree 63 for every node).
  for (double b : res.b) EXPECT_GE(b, 63.0);
}

// At a single rank there is no remote neighbor, hence no fan-out and no
// broadcast bytes at all — and the in-engine path only reports the
// analytic numbers when a real rank topology exists.
TEST(PerRankCompute, SingleRankHasZeroBroadcastBytes) {
  util::Rng rng(408);
  const graph::Graph g = graph::BarabasiAlbert(300, 3, rng);
  for (bool per_rank : {false, true}) {
    SCOPED_TRACE(per_rank);
    core::CompactOptions opts;
    opts.rounds = 5;
    opts.transport = TransportKind::kProcess;
    opts.ranks = 1;
    opts.per_rank_compute = per_rank;
    const core::CompactResult res = core::RunCompactElimination(g, opts);
    EXPECT_EQ(res.totals.bcast_bytes_sent, 0u);
    EXPECT_EQ(res.totals.bcast_bytes_received, 0u);
    EXPECT_EQ(res.totals.bcast_bytes_per_neighbor, 0u);
  }
}

// The three ported families through the full per-rank matrix: every
// phase's node state — surviving numbers and tie-break permutations,
// activity flags, forest pointers, per-round survival arrays, and
// aggregated density ratios — ships via SaveNodeState/LoadNodeState and
// must come back bit-identical.

TEST(PerRankCompute, HyperEliminationMatrixBitIdentical) {
  util::Rng rng(420);
  const hyper::Hypergraph h = hyper::RandomUniform(500, 1000, 3, rng);
  hyper::HyperElimOptions base_opts;
  base_opts.rounds = 5;
  const hyper::HyperElimResult base = RunHyperElimination(h, base_opts);

  for (const auto& cfg : kPerRankMatrix) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << cfg.ranks << " threads=" << cfg.threads);
    hyper::HyperElimOptions opts = base_opts;
    opts.num_threads = cfg.threads;
    opts.transport = TransportKind::kProcess;
    opts.ranks = cfg.ranks;
    opts.per_rank_compute = true;
    const hyper::HyperElimResult res = RunHyperElimination(h, opts);
    EXPECT_EQ(res.b, base.b);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

TEST(PerRankCompute, DCoreEliminationMatrixBitIdentical) {
  util::Rng rng(421);
  const directed::Digraph g = directed::RandomDigraph(500, 0.012, rng);
  directed::DCoreElimOptions base_opts;
  base_opts.rounds = 5;
  const directed::DCoreElimResult base =
      RunDCoreElimination(g, 2.0, base_opts);

  for (const auto& cfg : kPerRankMatrix) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << cfg.ranks << " threads=" << cfg.threads);
    directed::DCoreElimOptions opts = base_opts;
    opts.num_threads = cfg.threads;
    opts.transport = TransportKind::kProcess;
    opts.ranks = cfg.ranks;
    opts.per_rank_compute = true;
    const directed::DCoreElimResult res = RunDCoreElimination(g, 2.0, opts);
    EXPECT_EQ(res.b, base.b);
    EXPECT_EQ(res.active, base.active);
    ExpectSameLogicalHistory(res.history, base.history);
  }
}

TEST(PerRankCompute, WeakDensestMatrixBitIdentical) {
  util::Rng rng(422);
  const graph::Graph g = graph::BarabasiAlbert(400, 3, rng);
  core::WeakDensestOptions base_opts;
  base_opts.gamma = 3.0;
  const core::WeakDensestResult base = RunWeakDensest(g, base_opts);

  for (const auto& cfg : kPerRankMatrix) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << cfg.ranks << " threads=" << cfg.threads);
    core::WeakDensestOptions opts = base_opts;
    opts.num_threads = cfg.threads;
    opts.transport = TransportKind::kProcess;
    opts.ranks = cfg.ranks;
    opts.per_rank_compute = true;
    const core::WeakDensestResult res = RunWeakDensest(g, opts);
    EXPECT_EQ(res.b, base.b);
    EXPECT_EQ(res.selected, base.selected);
    EXPECT_EQ(res.leader_of, base.leader_of);
    EXPECT_EQ(res.best_density, base.best_density);
    EXPECT_EQ(res.totals.messages, base.totals.messages);
    EXPECT_EQ(res.totals.entries, base.totals.entries);
  }
}

// ---------------------------------------------------------------------
// Sleeping nodes (NodeContext::Sleep): a node that votes to sleep is not
// visited until a neighbor's broadcast changes or a p2p message reaches
// it, and everything observable must be as if its Round had run and
// re-staged its broadcast — in-engine at any thread count and transport,
// and inside the rank workers.
// ---------------------------------------------------------------------

// Forwards to a protocol and counts its Round calls: per round in this
// process, and per node as part of the node state, so per-rank runs
// report them through FetchRankState too. Sleep() passes through the
// NodeContext untouched.
class RoundCounter final : public distsim::Protocol {
 public:
  RoundCounter(distsim::Protocol& inner, NodeId n, int rounds)
      : inner_(inner), calls_(n, 0), per_round_(rounds + 1) {}

  void Init(NodeContext& ctx) override { inner_.Init(ctx); }
  void Round(NodeContext& ctx) override {
    ++calls_[ctx.id()];
    per_round_[ctx.round()].fetch_add(1, std::memory_order_relaxed);
    inner_.Round(ctx);
  }

  bool SupportsRankCompute() const override {
    return inner_.SupportsRankCompute();
  }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    inner_.SaveNodeState(v, out);
    out.Fixed64(calls_[v]);
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    inner_.LoadNodeState(v, in);
    std::uint64_t calls = 0;
    if (in.TryFixed64(&calls)) calls_[v] = calls;
  }

  const std::vector<std::uint64_t>& calls() const { return calls_; }
  std::uint64_t calls_in_round(int round) const {
    return per_round_[round].load(std::memory_order_relaxed);
  }

 private:
  distsim::Protocol& inner_;
  std::vector<std::uint64_t> calls_;
  std::vector<std::atomic<std::uint64_t>> per_round_;
};

// Compact elimination sleeps after every Round, so once its surviving
// numbers stop moving a round visits no node at all — while every node
// still counts as active and the census still counts its broadcast.
TEST(SleepWake, ConvergedCompactMakesNoRoundCalls) {
  util::Rng rng(9);
  const graph::Graph g = graph::WithIntegerWeights(
      graph::PowerLawConfiguration(1500, 2.3, 2, 150, rng), 4, rng);
  const NodeId n = g.num_nodes();
  constexpr int kRounds = 40;
  core::CompactOptions opts;
  opts.rounds = kRounds;

  core::CompactElimination base_inner(g, opts);
  RoundCounter base(base_inner, n, kRounds);
  Engine eb(g, 1);
  RunRounds(eb, base, kRounds);
  EXPECT_EQ(base.calls_in_round(1), n);  // Init does not sleep
  int quiet = 0;
  while (quiet < kRounds && base.calls_in_round(kRounds - quiet) == 0) {
    ++quiet;
  }
  ASSERT_GE(quiet, 5) << "the run did not converge";
  ASSERT_LT(quiet, kRounds - 2);
  for (const RoundStats& r : eb.history()) {
    EXPECT_EQ(r.active_nodes, n) << "round " << r.round;
    EXPECT_EQ(r.messages, eb.history().back().messages) << "round " << r.round;
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    core::CompactElimination inner(g, opts);
    RoundCounter p(inner, n, kRounds);
    Engine e(g, threads);
    e.SetParallelCutoff(1);
    RunRounds(e, p, kRounds);
    for (int t = 1; t <= kRounds; ++t) {
      EXPECT_EQ(p.calls_in_round(t), base.calls_in_round(t)) << "round " << t;
    }
    EXPECT_EQ(p.calls(), base.calls());
    EXPECT_EQ(inner.b(), base_inner.b());
    ExpectSameLogicalHistory(e.history(), eb.history());
  }
  for (int ranks : {1, 2, 3, 4}) {
    for (bool per_rank : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "ranks=" << ranks << " per_rank=" << per_rank);
      core::CompactElimination inner(g, opts);
      RoundCounter p(inner, n, kRounds);
      Engine e(g, 2);
      e.SetParallelCutoff(1);
      UseTransport(e, TransportKind::kProcess, 2, ranks);
      e.SetPerRankCompute(per_rank);
      RunRounds(e, p, kRounds);
      e.FetchRankState(p);
      if (!per_rank) {
        for (int t = 1; t <= kRounds; ++t) {
          EXPECT_EQ(p.calls_in_round(t), base.calls_in_round(t))
              << "round " << t;
        }
      }
      EXPECT_EQ(p.calls(), base.calls());
      EXPECT_EQ(inner.b(), base_inner.b());
      ExpectSameLogicalHistory(e.history(), eb.history());
    }
  }
}

// A probe whose Round is a pure function of its inputs — the neighbors'
// broadcasts and its inbox — and its own value: with unchanged inputs it
// re-stages the same broadcast, sends nothing and does not halt, so it
// may sleep. Its value climbs toward a per-node cap through the largest
// neighbor value plus one per message received; a change sends a
// message, a node at its cap may halt, and some values are broadcast
// silently, in three entries (past BroadcastStore::kInline), or in one.
// The sleepy variant sleeps after every Round except on every sixth
// node; its digests and every RoundStats field must equal the variant
// that never sleeps.
class WakeProbe : public distsim::Protocol {
 public:
  WakeProbe(NodeId n, bool sleepy)
      : sleepy_(sleepy), x_(n, 0.0), digest_(n, 0x51ed270b27ddd1e1ULL) {}

  void Init(NodeContext& ctx) override {
    x_[ctx.id()] = static_cast<double>(ctx.id() % 7);
    Emit(ctx);
  }

  void Round(NodeContext& ctx) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    const NodeId v = ctx.id();
    std::uint64_t& h = digest_[v];
    double m = x_[v];
    for (std::size_t i = 0; i < ctx.degree(); ++i) {
      const distsim::BroadcastView b = ctx.NeighborBroadcast(i);
      if (b && !b.empty()) m = std::max(m, b[0]);
    }
    for (const InMessage& msg : ctx.Messages()) {
      h = MixDouble(Mix(h, msg.from), msg.payload[0]);
      m += msg.payload[0];
    }
    const double cap = static_cast<double>(v % 13 + 3);
    const double next = std::min(m, cap);
    if (next != x_[v]) {
      x_[v] = next;
      h = MixDouble(Mix(h, static_cast<std::uint64_t>(ctx.round())), next);
      if (v % 3 == 0 && ctx.degree() > 0) {
        ctx.Send(ctx.neighbors()[0].to, {1.0});
      }
    }
    if (next == cap && v % 4 == 0) {
      h = Mix(h, 0xdeadULL);
      ctx.Halt();
      return;
    }
    Emit(ctx);
    if (sleepy_ && v % 6 != 1) ctx.Sleep();
  }

  const std::vector<std::uint64_t>& digest() const { return digest_; }
  std::uint64_t calls() const { return calls_.load(); }

  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId v, util::WireAppender& out) const override {
    out.Double(x_[v]);
    out.Fixed64(digest_[v]);
  }
  void LoadNodeState(NodeId v, util::WireReader& in) override {
    WakeSleepers();
    (void)(in.TryDouble(&x_[v]) && in.TryFixed64(&digest_[v]));
  }

 private:
  void Emit(NodeContext& ctx) {
    const NodeId v = ctx.id();
    const double x = x_[v];
    if (v % 5 == 0 && static_cast<int>(x) % 2 == 1) return;  // silent
    if (x > 5.0) {
      ctx.Broadcast({x, 1.0, 2.0});
    } else {
      ctx.Broadcast({x});
    }
  }

  bool sleepy_;
  std::vector<double> x_;
  std::vector<std::uint64_t> digest_;
  std::atomic<std::uint64_t> calls_{0};
};

constexpr int kWakeRounds = 30;

graph::Graph WakeGraph() {
  util::Rng rng(441);
  return graph::PowerLawConfiguration(600, 2.3, 1, 60, rng);
}

TEST_P(TransportConformance, SleepingProbeMatchesAwakeProbe) {
  const graph::Graph g = WakeGraph();
  WakeProbe base(g.num_nodes(), /*sleepy=*/false);
  Engine eb(g, 1);
  RunRounds(eb, base, kWakeRounds);
  ASSERT_GT(eb.num_halted(), 0u);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    WakeProbe awake(g.num_nodes(), /*sleepy=*/false);
    Engine ea(g, threads);
    ea.SetParallelCutoff(1);
    UseTransport(ea, GetParam(), threads);
    RunRounds(ea, awake, kWakeRounds);

    WakeProbe sleepy(g.num_nodes(), /*sleepy=*/true);
    Engine es(g, threads);
    es.SetParallelCutoff(1);
    UseTransport(es, GetParam(), threads);
    RunRounds(es, sleepy, kWakeRounds);

    // Not vacuous: sleeping skipped most Round calls.
    EXPECT_LT(sleepy.calls() * 2, awake.calls());
    EXPECT_EQ(awake.digest(), base.digest());
    EXPECT_EQ(sleepy.digest(), base.digest());
    ExpectSameLogicalHistory(ea.history(), eb.history());
    ExpectSameRoundStats(es.history(), ea.history());
    EXPECT_EQ(es.num_halted(), eb.num_halted());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(es.halted(v), eb.halted(v)) << "node " << v;
    }
  }
}

TEST(SleepWake, SleepingProbeMatchesAwakeProbeOnRanks) {
  const graph::Graph g = WakeGraph();
  for (int ranks : {1, 2, 3, 4}) {
    // The awake in-engine reference at the same rank topology, so its
    // fan-out counters are the analytic ones for these ranks.
    WakeProbe base(g.num_nodes(), /*sleepy=*/false);
    Engine eb(g, 1);
    UseTransport(eb, TransportKind::kProcess, 1, ranks);
    RunRounds(eb, base, kWakeRounds);
    for (int threads : {1, 4}) {
      for (bool sleepy : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "ranks=" << ranks << " threads="
                                          << threads << " sleepy=" << sleepy);
        WakeProbe p(g.num_nodes(), sleepy);
        Engine e(g, threads);
        e.SetParallelCutoff(1);
        UseTransport(e, TransportKind::kProcess, threads, ranks);
        e.SetPerRankCompute(true);
        RunRounds(e, p, kWakeRounds);
        e.FetchRankState(p);
        EXPECT_EQ(p.digest(), base.digest());
        ExpectSameRoundStats(e.history(), eb.history());
        EXPECT_EQ(e.num_halted(), eb.num_halted());
      }
    }
  }
}

// A state load between rounds wakes every sleeping node: a sleepy probe
// whose values are overwritten mid-run must go on exactly like an awake
// probe given the same load.
TEST(SleepWake, StateLoadWakesSleepers) {
  const graph::Graph g = WakeGraph();
  const NodeId n = g.num_nodes();
  std::vector<std::uint64_t> digests[2];
  std::vector<RoundStats> histories[2];
  for (bool sleepy : {false, true}) {
    WakeProbe p(n, sleepy);
    Engine e(g, 4);
    e.SetParallelCutoff(1);
    RunRounds(e, p, 12);
    std::vector<std::uint8_t> blob;
    for (NodeId v = 0; v < n; v += 2) {
      blob.clear();
      util::WireAppender out(blob);
      out.Double(0.0);
      out.Fixed64(v);
      util::WireReader in(blob.data(), blob.size());
      p.LoadNodeState(v, in);
    }
    for (int t = 0; t < 12; ++t) e.Step(p);
    digests[sleepy] = p.digest();
    histories[sleepy] = e.history();
  }
  EXPECT_EQ(digests[1], digests[0]);
  ExpectSameRoundStats(histories[1], histories[0]);
}

// Protocol::WakeSleepers is process-wide: a state load into an unrelated
// protocol makes a converged compact run's next round visit every node —
// once — and changes no result.
TEST(SleepWake, UnrelatedStateLoadCostsOneFullRound) {
  util::Rng rng(9);
  const graph::Graph g = graph::WithIntegerWeights(
      graph::PowerLawConfiguration(1500, 2.3, 2, 150, rng), 4, rng);
  const NodeId n = g.num_nodes();
  constexpr int kRounds = 40;
  constexpr int kLoadAfter = 36;
  core::CompactOptions opts;
  opts.rounds = kRounds;

  core::CompactElimination base(g, opts);
  Engine eb(g, 1);
  RunRounds(eb, base, kRounds);

  core::CompactElimination inner(g, opts);
  RoundCounter p(inner, n, kRounds);
  Engine e(g, 4);
  e.SetParallelCutoff(1);
  RunRounds(e, p, kLoadAfter);
  ASSERT_EQ(p.calls_in_round(kLoadAfter), 0u) << "the run did not converge";

  // A round trip of one node's state through another protocol object.
  core::CompactElimination other(g, opts);
  std::vector<std::uint8_t> blob;
  util::WireAppender out(blob);
  other.SaveNodeState(0, out);
  util::WireReader in(blob.data(), blob.size());
  other.LoadNodeState(0, in);

  for (int t = kLoadAfter + 1; t <= kRounds; ++t) e.Step(p);
  EXPECT_EQ(p.calls_in_round(kLoadAfter + 1), n);
  for (int t = kLoadAfter + 2; t <= kRounds; ++t) {
    EXPECT_EQ(p.calls_in_round(t), 0u) << "round " << t;
  }
  EXPECT_EQ(inner.b(), base.b());
  ExpectSameRoundStats(e.history(), eb.history());
}

// The bytes a rank worker's fan-out actually ships: a record (varint id,
// varint length, the doubles) for a broadcast that changed and a
// tombstone (varint id, varint 2^64 - 1) for one that went absent —
// nothing for an unchanged one, whatever RoundStats' model count says.
class StepUpProbe : public distsim::Protocol {
 public:
  void Init(NodeContext& ctx) override { Step(ctx); }
  void Round(NodeContext& ctx) override {
    if (ctx.id() == 2 && ctx.round() == 4) {
      ctx.Halt();
      return;
    }
    Step(ctx);
  }
  bool SupportsRankCompute() const override { return true; }
  void SaveNodeState(NodeId, util::WireAppender&) const override {}
  void LoadNodeState(NodeId, util::WireReader&) override {}

 private:
  // 0, 1, 2, 2, 2, ...
  static void Step(NodeContext& ctx) {
    ctx.Broadcast({static_cast<double>(std::min(ctx.round(), 2))});
  }
};

TEST(PerRankCompute, ShippedFanOutBytesCountOnlyChanges) {
  // Path 0-1-2-3 over 2 ranks: only the edge 1-2 crosses, so node 1
  // ships to rank 1 and node 2 to rank 0, each when its broadcast
  // changes (rounds 0, 1, 2), and node 2 a tombstone when it halts.
  const graph::Graph g = graph::Path(4);
  StepUpProbe p;
  Engine e(g, 1);
  UseTransport(e, TransportKind::kProcess, 1, 2);
  e.SetPerRankCompute(true);
  RunRounds(e, p, 6);
  const auto& t = dynamic_cast<const ProcessTransport&>(e.transport());
  const std::uint64_t record = distsim::WireBroadcastBytes(1, 1);
  const std::uint64_t tombstone =
      util::VarintSize(2) + util::VarintSize(~std::uint64_t{0});
  EXPECT_EQ(record, 10u);
  EXPECT_EQ(tombstone, 11u);
  EXPECT_EQ(t.bcast_bytes_shipped(), 6 * record + tombstone);
  // The model count: both present broadcasts every round until node 2
  // halts in round 4, then node 1's alone.
  EXPECT_EQ(e.totals().bcast_bytes_sent, 4 * 2 * record + 3 * record);
}

}  // namespace
}  // namespace kcore
