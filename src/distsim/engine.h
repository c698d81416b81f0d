// Synchronous round-based message-passing simulator for the LOCAL model.
//
// The paper's setting (Section II): each node is a processor knowing only
// its incident edges (and weights) and n (or an upper bound); computation
// proceeds in synchronous rounds; a node sends the same message to (a
// subset of) its neighbors per round (broadcast model), plus we support
// point-to-point sends for the tree phases of Algorithm 4/6. The engine
//
//   * enforces locality: a protocol only sees its own node's state, its
//     incident edge list, and the messages delivered this round;
//   * is deterministic: nodes are processed in id order sequentially, or
//     partitioned over threads with strictly disjoint writes (results are
//     bit-identical either way — tested);
//   * accounts for communication: per-round message count, payload
//     entries, and the number of distinct broadcast values (the knob the
//     paper's Λ-discretization optimizes for CONGEST-size messages).
//
// Execution model per round t >= 1 — two phases over the engine's
// persistent thread pool (sequential when num_threads <= 1 or the graph
// is below the parallel cutoff — kDefaultParallelCutoff nodes unless
// SetParallelCutoff says otherwise). The compute sweep, with the census
// of each chunk right after the chunk's compute, runs over contiguous
// node-id chunks, kComputeChunksPerThread per thread, that the threads
// claim dynamically (ThreadPool::ParallelForDynamic), so a thread the OS
// delays sheds chunks instead of holding up the round; p2p delivery runs
// over static contiguous node-id shards, one per thread. Shards and
// chunks default to equal node counts; SetShardBalancing(true) switches
// both to degree-weighted boundaries (cost degree + 1 per live node,
// built once at Start and optionally rebuilt from the halted census
// every SetRebalanceInterval rounds), so on heavy-tailed graphs the hub
// shard stops dominating the round. Every partition is a fixed ascending
// contiguous split, census partials are per chunk and merge in chunk
// order, and the count rows and the exchange reuse the round's shard
// boundaries, so results stay bit-identical whichever partitioner is
// active and whichever thread runs a chunk:
//   1. Compute: Protocol::Round(ctx) runs for every non-halted node the
//      round visits; it sees every neighbor's round-(t-1) broadcast plus
//      any point-to-point payloads addressed to it, may stage a new
//      broadcast and p2p sends (visible to receivers in round t+1), and
//      may Halt() the node or Sleep(): a sleeping node is not visited
//      until a neighbor's broadcast changes or a p2p message reaches it,
//      and counts as if its Round had re-staged its visible broadcast
//      (frontier.h) — compact elimination sleeps after every Round, so
//      a converged round visits nothing. Per-node writes are disjoint by
//      the Protocol contract. Broadcasts live in a BroadcastStore
//      (broadcast_store.h): one visible and one staged 24-byte slot per
//      node — a stamp, the length, and inline room for
//      BroadcastStore::kInline = 2 doubles (every paper family
//      broadcasts one or two reals); longer payloads spill into a
//      per-node overflow vector created on first use and reused after.
//      NeighborBroadcast reads the visible slot inline through the
//      node's adjacency (no virtual call); Broadcast writes the staged
//      slot only when the payload differs from the visible one, and
//      after the node's Round the engine settles a changed node into
//      its chunk's change list, so with the per-thread Update scratch of
//      core/update.h a steady-state round allocates nothing
//      (tests/alloc_test.cc pins it). NeighborsUnchanged reads each
//      neighbor's changed stamp.
//   2. Collect: the round census (message/entry counts, max message size,
//      distinct broadcast values, active nodes) is kept as running sums
//      over the staged broadcasts (census.h); each chunk accumulates the
//      deltas of its own changes during the compute sweep, and they
//      merge in chunk order. If
//      any p2p message was staged, a count pass (pass 1, sharded by
//      sender) tallies per-(shard, receiver) p2p in-degrees, and the
//      staged p2p traffic is handed to the engine's Transport
//      (SetTransport; transport.h), which moves every OutMessage into its
//      receiver's inbox sorted by sender id:
//        * SharedMemoryTransport (default): zero-copy two-pass delivery —
//          an offset pass turns the census count rows into running block
//          offsets and pre-sizes inboxes, then a write pass (sharded by
//          sender, same boundaries as pass 1) moves each payload into its
//          precomputed slot. Shard blocks land in sender-shard order and
//          senders run in ascending id order within a shard, so every
//          inbox ends up sorted by sender id, bit-identical to the
//          sequential delivery at any thread count.
//        * SerializedTransport: the MPI-shaped path — each src shard
//          measures per-dst-shard byte counts (count row), prefix-sums
//          them into displacements, packs its messages into contiguous
//          per-(src-shard, dst-shard) byte buffers (util::Wire varints +
//          fixed64 payload entries), the buffers are exchanged
//          alltoallv-style into one contiguous receive buffer per dst
//          shard, and each dst shard deserializes its segments in
//          src-shard order — the same sender-id-sorted inboxes, through
//          exactly the counts/displacements/pack/unpack contract an
//          MPI_Alltoallv backend needs, at any thread count. RoundStats
//          reports the packed bytes as bytes_sent / bytes_received.
//        * ProcessTransport (process_transport.h): the same contract
//          with the address-space boundary made real — worker processes
//          forked per rank (SetRankCount) exchange the packed segments
//          over Unix-domain socketpairs; see docs/ARCHITECTURE.md and
//          docs/TRANSPORTS.md for the rank topology and frame layout.
//      The collect ends with the publish: the change lists' staged slots
//      become visible (one change list per pool task when the round ran
//      in chunks) — no sweep over n slots. (A changed node already woke
//      its sleeping neighbors during the compute sweep.)
//      Broadcasts stay in the engine's store under every transport in
//      this (default) in-engine compute mode (a rank worker keeps its
//      own store of the same type for its slice plus the remote slots
//      its peers' fan-out fills); under a rank topology the census
//      additionally prices the CONGEST broadcast fan-out — once per
//      remote neighbor-owning rank — into RoundStats::bcast_bytes_*.
//      With SetPerRankCompute the fan-out is real: compute moves into
//      the rank workers, each round's broadcasts and p2p segments cross
//      process boundaries peer to peer, and the engine merely merges the
//      workers' RoundStats partials in rank order (bit-identical results
//      — the conformance battery pins it). Rounds that stage no p2p
//      traffic never invoke the transport at all.
// Protocol::Init(ctx) stages the round-0 broadcasts.
//
// Randomness: NodeContext::Rng() hands each node its own util::Rng stream,
// keyed-forked from the engine's master seed (SetSeed to override; streams
// materialize lazily on the first draw, so deterministic protocols pay
// nothing). A node's draw sequence depends only on (seed, node id, #draws
// by that node), never on sharding or thread count, so randomized
// protocols keep the bit-determinism contract.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>  // std::once_flag
#include <span>
#include <string>
#include <vector>

#include "distsim/broadcast_store.h"
#include "distsim/census.h"
#include "distsim/frontier.h"
#include "graph/graph.h"
#include "util/function_ref.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kcore::util {
class WireAppender;
class WireReader;
}  // namespace kcore::util

namespace kcore::distsim {

using graph::NodeId;

// A message payload: a short sequence of real values. The paper's
// protocols send O(1) reals per message (Section II, "Message Content and
// Size"); the engine counts entries so benches can report message sizes.
using Payload = std::vector<double>;

struct InMessage {
  NodeId from = 0;
  Payload payload;
};

// A staged point-to-point send, sitting in the sender's outbox until the
// round's transport exchange delivers it (transport.h).
struct OutMessage {
  NodeId to = 0;
  Payload payload;
};

struct RoundStats {
  int round = 0;
  // Nodes not halted at the start of the round: those whose Init/Round
  // ran plus those asleep (NodeContext::Sleep), which count as if their
  // Round had run and re-staged their visible broadcast.
  std::size_t active_nodes = 0;
  std::size_t messages = 0;         // (sender, receiver) deliveries staged
  std::size_t entries = 0;          // doubles staged across all messages
  std::size_t distinct_values = 0;  // distinct first-entry broadcast values
  // Wire volume of this round's p2p exchange as reported by the engine's
  // Transport: bytes packed onto / decoded off the wire. Zero for the
  // zero-copy SharedMemoryTransport (nothing is serialized) and for
  // rounds with no p2p traffic; equal to each other — and independent of
  // thread count — for SerializedTransport.
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  // CONGEST broadcast fan-out accounting, populated only under a rank
  // topology (num_ranks > 1; all zero otherwise, broadcasts being free
  // shared-memory reads at one rank). bcast_bytes_sent is the wire
  // volume of shipping each staged broadcast ONCE PER remote
  // neighbor-owning RANK — the fan-out rule the per-rank backend
  // actually pays (WireBroadcastBytes in transport.h);
  // bcast_bytes_per_neighbor is the naive once-per-remote-neighbor
  // volume a broadcast-unaware backend would pay. On dense graphs the
  // former is strictly smaller (many neighbors share a rank). Kept out
  // of bytes_sent, which stays p2p-only (its rank-independence is part
  // of the conformance contract). All three are the model count of the
  // fan-out rule — every broadcast, every round — computed analytically
  // in-engine and from the workers' fan-out tables under per-rank
  // compute (SetPerRankCompute); the conformance battery pins the two
  // equal. The workers ship fewer bytes: only broadcasts that changed,
  // plus tombstones (docs/TRANSPORTS.md, STEP).
  std::size_t bcast_bytes_sent = 0;
  std::size_t bcast_bytes_received = 0;
  std::size_t bcast_bytes_per_neighbor = 0;
};

// Default master seed for the per-node RNG streams ("kcore" in ASCII).
// Every driver's seed parameter defaults to this one constant so runs
// replay by construction and the magic number lives in exactly one place.
inline constexpr std::uint64_t kDefaultMasterSeed = 0x6b636f7265ULL;

struct Totals {
  int rounds = 0;
  std::size_t messages = 0;
  std::size_t entries = 0;
  std::size_t max_entries_per_message = 0;
  // Summed per-round transport wire volume (see RoundStats::bytes_sent).
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  // Summed broadcast fan-out volume (see RoundStats::bcast_bytes_sent).
  std::size_t bcast_bytes_sent = 0;
  std::size_t bcast_bytes_received = 0;
  std::size_t bcast_bytes_per_neighbor = 0;
};

class NodeRuntime;
class Protocol;

// The per-node view handed to a protocol. Only local information is
// reachable from here.
class NodeContext {
 public:
  NodeId id() const { return id_; }
  int round() const { return round_; }
  // Number of nodes in the network — the paper assumes every node knows n
  // (or an upper bound), which Theorem I.1 uses to pick T.
  NodeId n() const;

  // The node's incident edges (neighbor id + weight), id-sorted.
  std::span<const graph::AdjEntry> neighbors() const { return nbrs_; }
  std::size_t degree() const { return nbrs_.size(); }
  double weighted_degree() const;

  // Broadcast of neighbor #i (index into neighbors()) from the previous
  // round; absent if that neighbor did not broadcast / has halted. Read
  // straight from the runtime's broadcast slots — no virtual call.
  BroadcastView NeighborBroadcast(std::size_t i) const {
    KCORE_CHECK(i < nbrs_.size());
    return bcast_->Visible(nbrs_[i].to);
  }

  // True iff every NeighborBroadcast(i) is present and bitwise equal to
  // what it returned in the previous round (an absent or newly present
  // broadcast counts as changed). Reads each neighbor's changed stamp
  // (broadcast_store.h); no virtual call. A protocol whose round is a
  // pure function of its neighbors' broadcasts and its own state should
  // rather Sleep(): then it is not even visited while nothing changes.
  bool NeighborsUnchanged() const {
    for (const graph::AdjEntry& a : nbrs_) {
      if (!bcast_->VisibleUnchanged(a.to)) return false;
    }
    return true;
  }

  // Point-to-point messages delivered this round, sorted by sender id.
  std::span<const InMessage> Messages() const;

  // Stages this node's broadcast for the next round (replaces any
  // previously staged one this round). Copied into the node's slot, so
  // payloads of up to BroadcastStore::kInline entries never allocate.
  void Broadcast(std::initializer_list<double> p) {
    Broadcast(std::span<const double>(p.begin(), p.size()));
  }
  void Broadcast(std::span<const double> p);

  // Stages a point-to-point message to a neighbor (must be adjacent).
  void Send(NodeId neighbor, Payload p);

  // This node's private random stream (seeded from the engine's master
  // seed, independent per node). Draws are part of the node's state: only
  // node v's compute may touch v's stream — the same disjoint-writes rule
  // the rest of the per-node state follows.
  util::Rng& Rng();

  // Stops participating: no further Compute calls, no broadcasts.
  void Halt();

  // Vote to sleep after this round, like Pregel's vote-to-halt: the node
  // is not visited again until a neighbor's broadcast changes (bitwise,
  // presence included) or a p2p message reaches it, and until then the
  // runtime behaves exactly as if its Round had run and re-staged its
  // visible broadcast (which is what it must then do: no sends, halts,
  // draws or state changes). A per-call opt-in, so decorating protocols
  // pass it through untouched. A protocol whose node state can change
  // between rounds must call Protocol::WakeSleepers (see there).
  void Sleep() { sleep_ = true; }

 private:
  friend class NodeRuntime;
  NodeContext(NodeRuntime* rt, const BroadcastStore* bcast,
              std::span<const graph::AdjEntry> nbrs, NodeId id,
              int round) noexcept
      : rt_(rt), bcast_(bcast), nbrs_(nbrs), id_(id), round_(round) {}
  NodeRuntime* rt_;
  const BroadcastStore* bcast_;
  std::span<const graph::AdjEntry> nbrs_;
  NodeId id_;
  int round_;
  bool sleep_ = false;
};

// What a NodeContext delegates to: the engine's full-graph state
// (Engine privately implements this), or a rank worker's slice state
// (the per-rank compute path of process_transport.cc). Protocol code is
// oblivious to which — NodeContext is its only window, so the same
// Init/Round bodies run unchanged in-engine or inside a forked worker
// that holds just its node slice. The runtime hands each context its
// node's adjacency and its BroadcastStore, which the context reads
// directly; everything else goes through the virtuals. The virtuals
// are private: only NodeContext may call them, and only VisitRange may
// mint contexts (MakeContext), so the locality guarantee cannot be
// bypassed by holding a runtime pointer.
class NodeRuntime {
 public:
  virtual ~NodeRuntime() = default;

 protected:
  // One round's tally over the nodes a runtime visits — a compute
  // chunk's in the engine, the owned slice's in a rank worker. Cache-line
  // aligned: the engine's chunks update theirs concurrently.
  struct alignas(64) RoundPartial {
    BroadcastTally tally;  // census deltas of the changed broadcasts
    std::size_t p2p_messages = 0;
    std::size_t p2p_entries = 0;
    std::size_t p2p_max_entries = 0;
    // Live nodes that ran and did not sleep, and nodes that halted.
    std::size_t awake = 0;
    std::size_t halts = 0;

    // Zeroes the partial, keeping the tally's storage.
    void Clear() {
      tally.Clear();
      p2p_messages = p2p_entries = p2p_max_entries = 0;
      awake = halts = 0;
    }
  };

  // The two steps of the wake policy (NodeContext::Sleep, frontier.h),
  // one body for the engine and the rank workers.
  //
  // VisitRange: the round's work on the nodes of [begin, end) the wake
  // set holds. A live node runs Init (round 0) or Round; one that halts
  // or does not sleep is woken for the next round (a halted one so that
  // round settles its broadcast absent). Every visited node's broadcast
  // settles into change list `list` of `store`; a change wakes the
  // node's neighbors when the round pushes, and `part` takes its census
  // (priced by `fan`, if any) and the node's staged p2p.
  void VisitRange(Protocol& p, int round, NodeId begin, NodeId end,
                  const graph::Graph& g, BroadcastStore& store,
                  Frontier& frontier, const std::vector<char>& halted,
                  const std::vector<std::vector<OutMessage>>& outbox,
                  std::size_t list, const FanOutTable* fan,
                  RoundPartial& part);
  // WakeForNextRound: between rounds, once the round's p2p sits in
  // `inbox` and, in a rank worker, the peers' records and tombstones have
  // changed the remote nodes `delivered`: wakes the nodes of [lo, hi)
  // next to a delivered change or holding a message, and ends the
  // round. `sleepers`: the live nodes of [lo, hi) not awake next round;
  // with none, nothing needs waking and the next round does not push.
  static void WakeForNextRound(
      Frontier& frontier, const graph::Graph& g,
      std::span<const NodeId> delivered,
      const std::vector<std::vector<InMessage>>& inbox, bool any_p2p,
      NodeId lo, NodeId hi, std::size_t sleepers);

 private:
  NodeContext MakeContext(NodeId id, int round,
                          std::span<const graph::AdjEntry> nbrs,
                          const BroadcastStore& bcast) noexcept {
    return NodeContext(this, &bcast, nbrs, id, round);
  }
  // Whether the round that used ctx asked to sleep (NodeContext::Sleep).
  static bool SleepRequested(const NodeContext& ctx) { return ctx.sleep_; }

  friend class NodeContext;
  virtual NodeId RtN() const = 0;
  virtual double RtWeightedDegree(NodeId v) const = 0;
  virtual std::span<const InMessage> RtMessages(NodeId v) const = 0;
  virtual void RtBroadcast(NodeId v, std::span<const double> p) = 0;
  virtual void RtSend(NodeId v, NodeId neighbor, Payload p) = 0;
  virtual util::Rng& RtRng(NodeId v) = 0;
  virtual void RtHalt(NodeId v) = 0;
};

// CONGEST / locality enforcement shared by the engine's runtime and the
// worker-side slice runtime (process_transport.cc), so both compute
// modes fail the same way with the same message. KCORE_CHECK-fail on
// violation; no-ops when the limit is 0 / the target is adjacent.
void CheckPayloadLimit(std::size_t limit, std::size_t size, bool broadcast);
void CheckSendAdjacent(std::span<const graph::AdjEntry> nbrs, NodeId from,
                       NodeId to);

// A distributed protocol: per-node init and per-node round logic. The
// protocol object owns all per-node state (indexed by node id). Both
// Init(ctx) and Round(ctx) may be sharded over the engine's thread pool,
// so for node v they must touch only v's slots — the disjoint-writes
// contract the determinism guarantee rests on.
class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual void Init(NodeContext& ctx) = 0;
  virtual void Round(NodeContext& ctx) = 0;

  // Per-rank compute opt-in (Engine::SetPerRankCompute): a protocol
  // that returns true here must round-trip node v's COMPLETE per-node
  // state through Save/LoadNodeState — every slot Init/Round reads or
  // writes for v beyond the broadcasts, messages, and RNG stream the
  // runtime carries. The engine ships each node's state to its owning
  // rank worker at Start and fetches it back via Engine::FetchRankState;
  // a lossy round-trip diverges from the in-engine path and fails the
  // conformance battery. The default Save/Load abort, so forgetting an
  // override cannot silently drop state.
  virtual bool SupportsRankCompute() const { return false; }
  virtual void SaveNodeState(NodeId v, util::WireAppender& out) const;
  virtual void LoadNodeState(NodeId v, util::WireReader& in);

  // Bumped by WakeSleepers; every runtime compares it once per round and
  // visits every node of a round that sees it move.
  static std::uint64_t SleepGeneration();

 protected:
  // Wakes every sleeping node (NodeContext::Sleep) at its runtime's next
  // round. A protocol whose nodes sleep must call it wherever node state
  // changes outside Init/Round — in LoadNodeState at least — since a
  // sleeping node's state must stay what its last Round left. The
  // counter is process-wide, not per object: a decorating protocol
  // forwards LoadNodeState to the one it wraps, so the engine, which
  // only sees the decorator, could never read the inner object's count.
  // The cost is shared too: each call makes the next round of EVERY
  // engine and rank worker in the process visit all its nodes, whatever
  // protocol it runs — one full round per call, never a wrong result.
  // A process that loads state often beside a sleeping run (a
  // coordinator calling FetchRankState every few rounds, several
  // services in one process) pays that round at each load, and nothing
  // reports it; SleepWake.UnrelatedStateLoadCostsOneFullRound pins it.
  static void WakeSleepers();
};

class ThreadPool;
class Transport;

class Engine : private NodeRuntime {
 public:
  // Graphs below this many nodes run sequentially even when num_threads >
  // 1: the pool's dispatch barrier costs more than the phases themselves
  // on tiny inputs. Benches and tests lower it via SetParallelCutoff to
  // force threading on small graphs.
  static constexpr NodeId kDefaultParallelCutoff = 256;

  // num_threads <= 1 means sequential; > 1 backs the compute phase of
  // every round with a persistent ThreadPool (workers live for the
  // engine's lifetime, not per round). The graph must outlive the engine.
  explicit Engine(const graph::Graph& g, int num_threads = 1);

  // Overrides kDefaultParallelCutoff (0 = always shard when num_threads >
  // 1). Must precede Start().
  void SetParallelCutoff(NodeId cutoff);

  // Degree-weighted shard balancing: instead of equal-count node-id
  // shards, boundaries are chosen (ThreadPool::WeightedShardBounds, cost
  // degree + 1 per node) so each shard carries about the same compute +
  // collect work — the fix for heavy-tailed graphs where whichever shard
  // holds the hubs otherwise does most of the round. Results are
  // bit-identical with balancing on or off (the determinism contract
  // holds for any contiguous ascending partition); only per-shard load
  // changes. Must precede Start(). Default off.
  void SetShardBalancing(bool enabled);
  bool shard_balancing() const { return balance_shards_; }

  // With balancing on, rebuild the boundaries every `rounds` rounds from
  // the halted census (halted nodes weigh 1 — they are still scanned by
  // the collect sweep — live nodes degree + 1), so long-running protocols
  // that halt hubs early re-spread the surviving load. 0 (default) keeps
  // the Start()-time boundaries for the whole run. Must precede Start().
  void SetRebalanceInterval(int rounds);

  // Replaces the transport that delivers staged p2p traffic each round
  // (default: SharedMemoryTransport — the zero-copy in-place path). Use
  // MakeTransport(TransportKind) from transport.h, or hand in a custom
  // implementation. Must precede Start(); the transport must not be null.
  // Results are bit-identical for every conforming transport — only the
  // wire accounting (RoundStats::bytes_*) and the exchange mechanics
  // differ.
  void SetTransport(std::unique_ptr<Transport> transport);
  const Transport& transport() const { return *transport_; }

  // Rank topology for multi-process transports: node ids are split into
  // `ranks` equal contiguous ownership ranges (the same arithmetic as
  // the equal-count thread shards, but FIXED for the whole run and
  // independent of the per-round partition — an 8-thread engine can run
  // 2 ranks, a sequential engine 8). Engine::Start() hands the topology
  // to the transport's Start() hook and every ExchangeContext carries
  // it; in-process transports ignore it, so results are bit-identical
  // at any rank count by the same contract that covers thread counts.
  // Must precede Start(). Default 1.
  void SetRankCount(int ranks);
  int num_ranks() const { return num_ranks_; }

  // Per-rank compute (ROADMAP item 1): each rank WORKER owns its node
  // slice end to end. At Start() the engine ships every worker its graph
  // slice (wire-serialized, or loaded worker-side via
  // graph/binio.h LoadBinarySlice when SetGraphPath names the source
  // file), its nodes' protocol state (Protocol::SaveNodeState), the
  // master seed (workers rebuild the identical per-node RNG streams via
  // util::Rng::ForkKeyed), and the payload limit. Each round the worker
  // runs the compute phase over its slice locally, exchanges p2p
  // segments AND the once-per-neighbor-owning-rank broadcast fan-out
  // peer to peer, and returns only a RoundStats partial; this engine
  // degrades to a coordinator that drives rounds and merges partials in
  // fixed rank order — results stay bit-identical to in-engine compute
  // (the conformance battery pins it). Requires a transport whose
  // SupportsRankCompute() is true (ProcessTransport) and a protocol
  // implementing the Save/LoadNodeState hooks. While enabled, halted(v)
  // and inbox(v) reflect worker state only after FetchRankState().
  // Must precede Start(). Default off.
  void SetPerRankCompute(bool enabled);
  bool per_rank_compute() const { return per_rank_compute_; }

  // Optional: the binary-format file (graph/binio.h) this engine's
  // graph was loaded from. With per-rank compute, workers then mmap and
  // load their own slice (LoadBinarySlice) instead of receiving a
  // wire-serialized copy — the ingestion path a multi-machine deployment
  // would use. The file must describe exactly the engine's graph.
  // Must precede Start().
  void SetGraphPath(std::string path);
  const std::string& graph_path() const { return graph_path_; }

  // Per-rank compute only (no-op otherwise): pulls every node's
  // protocol state (Protocol::LoadNodeState), halted flag, and current
  // broadcast back from its owning rank worker into this process, so
  // drivers can read per-node protocol members after (or between)
  // rounds. Callable any time after Start().
  void FetchRankState(Protocol& p);
  // The node→rank ownership map: num_ranks() + 1 ascending boundaries,
  // rank r owns [rank_bounds()[r], rank_bounds()[r+1]). Built at
  // Start(); empty before.
  std::span<const std::uint64_t> rank_bounds() const { return rank_bounds_; }

  // CONGEST enforcement: once set, staging any message with more than
  // `limit` entries aborts (KCORE_CHECK). The paper's Section II protocols
  // use O(1) reals per message; tests arm this to PROVE compliance rather
  // than merely count it. 0 disables the check (default).
  void SetPayloadLimit(std::size_t limit) { payload_limit_ = limit; }

  // Master seed for the per-node RNG streams (NodeContext::Rng). Must be
  // called before Start; the default reproduces unless overridden, so
  // every run is replayable by construction.
  void SetSeed(std::uint64_t seed);
  std::uint64_t seed() const { return master_seed_; }
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Runs Init (staging round-0 broadcasts) for all nodes.
  void Start(Protocol& p);

  // Executes one synchronous round; returns its stats.
  RoundStats Step(Protocol& p);

  // Start + `rounds` Steps.
  void Run(Protocol& p, int rounds);

  // Steps until a round changes nothing (no broadcasts staged differ from
  // the previous round and no p2p messages) or max_rounds is hit.
  // Returns the number of executed rounds. Used by the run-to-convergence
  // baseline (Montresor et al.). Each round's publish reports whether a
  // change differs by == (BroadcastStore::PublishedDiffers), so the run
  // keeps no copy of the previous round.
  int RunUntilQuiescent(Protocol& p, int max_rounds);

  const graph::Graph& graph() const { return graph_; }
  int num_threads() const { return num_threads_; }
  const std::vector<RoundStats>& history() const { return history_; }
  Totals totals() const;

  bool halted(NodeId v) const { return halted_[v] != 0; }
  std::size_t num_halted() const;

  // The p2p messages delivered to v this round, sorted by sender id —
  // the same span NodeContext::Messages() hands the protocol, exposed so
  // conformance tests can compare transports' inboxes bit for bit.
  std::span<const InMessage> inbox(NodeId v) const { return inbox_[v]; }

 private:
  // NodeRuntime: the full-graph implementation NodeContext delegates to
  // when compute runs in-engine (per-rank workers substitute their own
  // slice runtime in process_transport.cc).
  NodeId RtN() const override;
  double RtWeightedDegree(NodeId v) const override;
  std::span<const InMessage> RtMessages(NodeId v) const override;
  void RtBroadcast(NodeId v, std::span<const double> p) override;
  void RtSend(NodeId v, NodeId neighbor, Payload p) override;
  util::Rng& RtRng(NodeId v) override;
  void RtHalt(NodeId v) override;

  // Rounds of RoundStats history reserved at Start().
  static constexpr std::size_t kHistoryReserve = 64;

  // Both phases shard iff the same predicate holds, so a run is either
  // wholly sequential or wholly pooled.
  bool UseParallelPhases() const;
  // Runs the round's compute sweep — sequentially, or in chunks over the
  // pool when num_threads_ > 1 and the graph clears the cutoff. Both
  // Start (round 0) and Step go through here.
  void ComputePhase(Protocol& p, int round);
  // Merges the census partials into the running tally and stats; returns
  // the number of staged p2p messages. Delivery is the transport's job.
  std::size_t MergeCensus(RoundStats& stats);
  // Makes the round's changes visible (one change list per pool task
  // when the round ran in chunks), wakes the sleeping recipients of p2p
  // messages, and ends the round's wake set.
  void PublishRound(bool delivered_p2p);
  // Parallel rounds that staged p2p: fills the per-(shard, receiver)
  // count rows of p2p_offsets_ and shard_sent_ over ActiveBounds.
  void CountP2pRows();
  void CollectRound(int round);
  // One coordinator-side round under per-rank compute: drive the
  // transport's RankStep and append the merged stats to the history.
  void RankRound(int round);
  // The node-id partition active this round: shard_bounds_ when balancing
  // is on, the cached equal-count split (or the trivial single-shard
  // partition when sequential) otherwise. Census and transport exchange
  // both run on these SAME boundaries within a round.
  std::span<const std::uint64_t> ActiveBounds();

  // Builds degree-weighted shard boundaries for the pool, and the compute
  // chunks, from the current halted census (see SetShardBalancing).
  void BuildShardBounds();
  // The compute sweep's chunks, claimed dynamically by the pool's threads
  // (ThreadPool::ParallelForDynamic): kComputeChunksPerThread per thread,
  // degree-weighted like shard_bounds_ when balancing is on, equal-count
  // otherwise.
  std::span<const std::uint64_t> ComputeChunks();
  static constexpr int kComputeChunksPerThread = 16;
  // Every static parallel sweep over node ids goes through this: it picks
  // the weighted boundaries when balancing is on and the equal-count split
  // otherwise, so no call site can end up on a partition that disagrees
  // with the rest of the round.
  void ForSharded(
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body);

  const graph::Graph& graph_;
  int num_threads_;
  NodeId parallel_cutoff_ = kDefaultParallelCutoff;
  bool balance_shards_ = false;
  int rebalance_every_ = 0;
  // Active partition for the balanced path: num_shards + 1 ascending
  // boundaries, shared by the count pass and the exchange of a round (the
  // count/offset scheme needs one fixed partition per round).
  // Rebuilt only between rounds, never mid-round.
  std::vector<std::uint64_t> shard_bounds_;
  // Equal-count partition cache for ActiveBounds(): built once (n and the
  // shard count are fixed per engine) — {0, n} when sequential.
  std::vector<std::uint64_t> equal_bounds_;
  // ComputeChunks' partition: rebuilt with shard_bounds_ when balancing,
  // else built once.
  std::vector<std::uint64_t> compute_chunks_;
  // Lazily created on the first parallel compute phase (Start's Init
  // sweep included) and reused for every later round; null while running
  // sequentially.
  std::unique_ptr<ThreadPool> pool_;
  // Delivers staged p2p traffic each round (SharedMemoryTransport unless
  // SetTransport overrides).
  std::unique_ptr<Transport> transport_;
  // Rank topology (SetRankCount): equal-count node→rank ownership
  // boundaries, built at Start(), fixed for the run.
  int num_ranks_ = 1;
  std::vector<std::uint64_t> rank_bounds_;
  // Per-rank compute mode (SetPerRankCompute): the engine is a
  // coordinator; these mirror the workers' merged per-round reports.
  bool per_rank_compute_ = false;
  std::string graph_path_;
  // Set by RunUntilQuiescent before Start(): every round then records
  // in changed_ whether it moved p2p traffic or staged a broadcast that
  // differs from the previous round's (in-engine: CollectRound; per-rank
  // compute: the workers, told through the init frame).
  bool track_quiescence_ = false;
  bool changed_ = false;
  std::size_t rank_num_halted_ = 0;
  int round_ = 0;

  // Double-buffered broadcasts: the visible side is read by the current
  // compute phase, the staged side written by it (each node writes only
  // its own slot); CollectRound publishes.
  BroadcastStore bcast_;

  // Point-to-point: outboxes written by sender's compute, merged into
  // inboxes between rounds.
  std::vector<std::vector<OutMessage>> outbox_;
  std::vector<std::vector<InMessage>> inbox_;

  std::vector<char> halted_;
  std::vector<RoundStats> history_;
  std::size_t max_entries_per_message_ = 0;
  std::size_t payload_limit_ = 0;

  // Which nodes each round visits (NodeContext::Sleep), and the
  // Protocol::SleepGeneration it last saw.
  Frontier frontier_;
  std::uint64_t sleep_generation_ = 0;
  // Halted nodes, counted as they halt; and the live nodes that stay
  // awake into the next round (summed from the partials).
  std::size_t num_halted_ = 0;
  std::size_t awake_next_ = 0;
  // The running census of the staged broadcasts, and (num_ranks > 1)
  // the fan-out table that prices them, built at Start.
  BroadcastCensus census_;
  FanOutTable fan_;
  // Round scratch, kept across rounds so steady-state rounds allocate
  // nothing: per-chunk partials (one when sequential) — a chunk covers
  // the same ids every round, so each partial reaches its high-water
  // mark whichever thread runs it — and {0, 1, ..., chunks}, the
  // partition that applies one change list per pool task.
  std::vector<RoundPartial> partials_;
  std::vector<std::uint64_t> list_bounds_;

  // Per-node RNG streams behind NodeContext::Rng, keyed forks of
  // Rng(master_seed_). Built lazily on the first draw (call_once, so
  // concurrent first draws from several shards are safe): deterministic
  // protocols that never call Rng() pay neither the O(n) forks nor the
  // per-node stream storage.
  void EnsureNodeRng();
  std::uint64_t master_seed_ = kDefaultMasterSeed;
  std::once_flag node_rng_once_;
  std::vector<util::Rng> node_rng_;

  // Parallel-collect scratch: num_shards rows of n per-receiver counts,
  // sized on the first round that stages p2p; the count pass fills the
  // rows of shards that staged p2p (others stay stale and are masked out
  // via shard_sent_), and the transport consumes
  // them — the shared-memory path turns each live column into running
  // block offsets and then write cursors; the serialized path reads the
  // column sums to pre-size inboxes.
  std::vector<std::uint32_t> p2p_offsets_;
  // Per-shard "staged any p2p this round" flags from the count pass —
  // the stale-row mask for p2p_offsets_.
  std::vector<char> shard_sent_;
  // Whether last round's parallel collect delivered anything — i.e.
  // whether inboxes need clearing before the next delivery.
  bool inboxes_dirty_ = false;
};

}  // namespace kcore::distsim
