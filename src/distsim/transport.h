// Pluggable message-transport layer for the round scheduler's collect
// phase.
//
// The engine's collect phase splits into a census (stats, taken during
// the compute sweep, + per-(shard, receiver) in-degree counts from a
// count pass, both run by the engine) and an exchange:
// moving every staged OutMessage from its sender's outbox into its
// receiver's inbox, sorted by sender id. The exchange is the part a
// message-passing cluster would actually put on the wire, so it lives
// behind this interface:
//
//   * SharedMemoryTransport — today's in-process fast path. Sequentially
//     it is the plain ascending-sender push_back delivery; sharded it is
//     the zero-copy two-pass scheme (offset pass turns the census count
//     rows into running block offsets and pre-sizes inboxes; a write pass
//     sharded by sender moves each payload into its precomputed slot).
//     Nothing is copied or encoded: payloads std::move from outbox to
//     inbox, and the reported wire volume is zero.
//
//   * SerializedTransport — the MPI-shaped path, run in-process at any
//     thread count. Each src shard measures exact per-dst-shard byte
//     counts (count row), prefix-sums them into a displacement row, and
//     packs its messages — walking senders in ascending id order — into
//     one contiguous send buffer per src shard using util::Wire (varint
//     sender / receiver / payload length, fixed64 payload entries). The
//     exchange step gathers every (src, dst) segment into one contiguous
//     receive buffer per dst shard (exactly MPI_Alltoallv's
//     counts/displacements contract), and each dst shard deserializes its
//     segments in src-shard order, appending per receiver — which yields
//     the same sender-id-sorted inboxes as the shared-memory path, bit
//     for bit. Wire volume (bytes packed / decoded) is reported per
//     round; per-message encodings are partition-independent, so the
//     byte counts are identical at any thread count too.
//
//   * ProcessTransport (process_transport.h) — the real multi-process
//     backend: Start() forks one worker process per RANK, and each
//     round's packed per-(src-rank, dst-rank) segments travel over
//     Unix-domain socketpairs (workers exchange peer-to-peer,
//     alltoallv-style) before being deserialized back into the engine's
//     inboxes. Ranks partition node ids independently of the thread
//     shards (ExchangeContext::rank_bounds); see docs/TRANSPORTS.md for
//     the frame layout and docs/ARCHITECTURE.md for how ranks map onto
//     MPI processes.
//
// Conformance contract for any implementation: given the same staged
// outboxes, Exchange must leave (a) every outbox empty, (b) every inbox
// holding exactly the messages addressed to it, ordered by sender id with
// ties (several sends from one sender to one receiver) in staging order,
// with payloads bit-identical to what the sender staged. The
// transport_conformance_test battery pins this against the sequential
// baseline for every registered transport.
//
// Transports may keep scratch state across rounds (buffers are reused);
// an Engine owns exactly one transport and calls Exchange at most once
// per round, never concurrently. Rounds with no staged p2p traffic skip
// the exchange entirely.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "distsim/census.h"
#include "distsim/engine.h"

namespace kcore::util {
class WireWriter;
}

namespace kcore::distsim {

class ThreadPool;

// The built-in transports, for flag parsing and option structs.
enum class TransportKind {
  kSharedMemory,  // zero-copy in-place delivery (default)
  kSerialized,    // pack / alltoallv-exchange / unpack via util::Wire
  kProcess,       // forked worker processes + socketpair alltoallv
};

// Segment codec, shared by every serializing backend (serialized /
// process / MPI) so the encode/decode loops — and therefore the wire
// accounting — live in exactly one place. A "partition" here is any
// ascending contiguous split of node ids: the per-round thread shards
// for SerializedTransport, the per-run ranks for the process and MPI
// backends. `bounds` always has `cells` + 1 ascending entries. The
// byte layout is tabulated in docs/TRANSPORTS.md.

// Exact bytes one staged message occupies in a packed segment: varint
// sender id + varint receiver id + varint payload length + 8 bytes per
// payload entry. Absolute (never partition-relative), so byte totals
// are identical across thread counts, rank counts, and backends.
std::uint64_t WireMessageBytes(std::uint64_t from, const OutMessage& m);

// WireBroadcastBytes (census.h) is the broadcast counterpart.

// Index of the partition cell owning node u (empty cells own nothing).
int OwnerIndex(const std::uint64_t* bounds, int cells, graph::NodeId u);

// Adds the wire bytes of every message staged by senders [begin, end)
// into row[OwnerIndex(bounds, cells, m.to)]; row has `cells` entries
// and is NOT zeroed here.
void CountSegmentBytes(const std::uint64_t* bounds, int cells,
                       const std::vector<std::vector<OutMessage>>& outbox,
                       std::uint64_t begin, std::uint64_t end,
                       std::uint64_t* row);

// Encodes every message staged by senders [begin, end) at its dst
// cell's writer and clears the outboxes. Senders are walked in
// ascending id order, so each segment comes out sender-ordered — the
// half of the inbox-sorting contract the packer owns. `seg` has one
// exactly-pre-sized writer per cell (from CountSegmentBytes's rows).
void PackSegments(const std::uint64_t* bounds, int cells,
                  std::vector<std::vector<OutMessage>>& outbox,
                  std::uint64_t begin, std::uint64_t end,
                  util::WireWriter* seg);

// Decodes one packed segment [data, data + len), appending each message
// to its receiver's inbox. Every receiver must lie in [lo, hi) — the
// dst cell the segment was routed to — else KCORE_CHECK fails.
// Appending segments in ascending src-cell order yields sender-sorted
// inboxes (the other half of the contract, owned by the caller).
void DecodeSegment(const std::uint8_t* data, std::uint64_t len,
                   std::uint64_t lo, std::uint64_t hi,
                   std::vector<std::vector<InMessage>>& inbox);

// "shared" / "serialized" / "process".
const char* TransportKindName(TransportKind kind);
// Parses the names above; returns false (leaving *out untouched) for
// anything else.
bool ParseTransportKind(std::string_view name, TransportKind* out);

// Bytes a round's exchange put on (and took off) the wire. Zero/zero for
// transports that move payloads in place.
struct WireVolume {
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
};

// Everything one round's exchange may touch. The partition is the
// engine's active shard partition for the round: `bounds` has
// num_shards + 1 ascending entries and shard s owns node ids
// [bounds[s], bounds[s+1]) — as SENDER for outboxes and as RECEIVER for
// inboxes (one partition serves both roles, like ranks in MPI).
struct ExchangeContext {
  graph::NodeId n = 0;               // number of nodes
  int num_shards = 1;                // >= 1
  const std::uint64_t* bounds = nullptr;  // num_shards + 1 ascending ids
  // Runs shard bodies concurrently when non-null; null means execute the
  // shards inline on the caller (the engine's sequential mode).
  ThreadPool* pool = nullptr;
  std::vector<std::vector<OutMessage>>* outbox = nullptr;  // [n], consumed
  std::vector<std::vector<InMessage>>* inbox = nullptr;    // [n], rewritten
  // Census count rows: counts[s * n + u] = messages shard s staged for
  // receiver u — but ONLY for shards with shard_sent[s] != 0 (other rows
  // are stale scratch). Null when the engine censused sequentially. The
  // transport may consume the live rows as cursors.
  std::uint32_t* counts = nullptr;
  const char* shard_sent = nullptr;  // [num_shards], null iff counts is
  // Rank topology (Engine::SetRankCount): `rank_bounds` has num_ranks + 1
  // ascending entries and rank r OWNS node ids [rank_bounds[r],
  // rank_bounds[r+1]) — as sender and as receiver, like the shard
  // partition above, but fixed for the whole run and independent of the
  // per-round thread shards. In-process transports ignore it; the
  // process backend segments its exchange by rank, exactly the role MPI
  // ranks play. Always non-null with num_ranks >= 1 ({0, n} by default).
  int num_ranks = 1;
  const std::uint64_t* rank_bounds = nullptr;
};

// Clears the inboxes of receivers [begin, end) before an unpack and,
// when the engine censused in parallel (ctx.counts != null), pre-sizes
// each from the live count columns — one place that knows the
// `counts[s * n + u]` / shard_sent layout, shared by every serializing
// backend's unpack step.
void ClearAndReserveInboxes(const ExchangeContext& ctx, std::uint64_t begin,
                            std::uint64_t end);

// Everything a rank-compute transport needs to arm its workers before
// Start() forks them (Engine::Start builds this when SetPerRankCompute
// is on). All pointers are engine-owned and outlive the transport.
struct RankComputeSetup {
  Protocol* protocol = nullptr;          // Save/LoadNodeState source/sink
  const graph::Graph* graph = nullptr;   // wire-serialized slice source
  // Non-empty: the binary graph file (graph/binio.h) to LoadBinarySlice
  // worker-side instead of shipping the slice over the socket.
  std::string graph_path;
  std::uint64_t seed = 0;                // master seed for ForkKeyed streams
  std::size_t payload_limit = 0;         // CONGEST limit (0 = off)
  bool track_quiescence = false;         // workers report slice changes
};

// One round's merged worker reports under per-rank compute — the
// RoundStats partials summed in fixed rank order, plus the control
// signals the coordinator loop needs (halted census, quiescence flag).
struct RankRoundResult {
  std::size_t active_nodes = 0;
  std::size_t messages = 0;
  std::size_t entries = 0;
  std::size_t max_entries = 0;
  std::size_t distinct_values = 0;  // size of the union of slice sets
  std::size_t bytes_sent = 0;       // p2p segment bytes, diagonal included
  std::size_t bytes_received = 0;
  std::size_t bcast_bytes_sent = 0;  // fan-out model count (RoundStats)
  std::size_t bcast_bytes_received = 0;
  std::size_t bcast_bytes_per_neighbor = 0;  // the naive baseline volume
  std::size_t num_halted = 0;  // summed over slices = global count
  bool changed = false;        // OR of per-slice change flags
};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* name() const = 0;
  // One-time setup hook: Engine::Start() calls this exactly once, before
  // the first compute phase and — deliberately — before the engine
  // creates its thread pool, so a backend that forks worker processes
  // (ProcessTransport) does so while the engine has spawned no threads
  // yet. `rank_bounds` (num_ranks + 1 ascending entries, the node→rank
  // ownership map) is owned by the engine and stays valid for its
  // lifetime. The default implementation does nothing.
  virtual void Start(graph::NodeId n, int num_ranks,
                     const std::uint64_t* rank_bounds) {
    (void)n;
    (void)num_ranks;
    (void)rank_bounds;
  }
  // Delivers every staged message (see the conformance contract above).
  virtual WireVolume Exchange(const ExchangeContext& ctx) = 0;

  // Per-rank compute hooks (Engine::SetPerRankCompute). A transport that
  // returns true from SupportsRankCompute() runs the protocol INSIDE its
  // rank workers: PrepareRankCompute arms the setup before Start()
  // forks, RankStep drives one synchronous round across every worker and
  // returns the merged stats, and CollectRankState pulls per-node
  // protocol state / broadcasts / halted flags back into the engine's
  // arrays. The defaults reject the mode (KCORE_CHECK), so an engine
  // misconfigured onto an in-process transport fails loudly at Start.
  virtual bool SupportsRankCompute() const { return false; }
  virtual void PrepareRankCompute(const RankComputeSetup& setup);
  virtual RankRoundResult RankStep(int round);
  virtual void CollectRankState(Protocol& p, std::vector<Payload>& prev_bcast,
                                std::vector<char>& prev_has,
                                std::vector<char>& halted);
};

// Zero-copy in-place delivery; the default.
class SharedMemoryTransport final : public Transport {
 public:
  const char* name() const override { return "shared"; }
  WireVolume Exchange(const ExchangeContext& ctx) override;
};

// Pack / alltoallv-style exchange / unpack through util::Wire buffers.
class SerializedTransport final : public Transport {
 public:
  const char* name() const override { return "serialized"; }
  WireVolume Exchange(const ExchangeContext& ctx) override;

 private:
  // All scratch persists across rounds so steady-state rounds reallocate
  // nothing (vectors only grow).
  std::vector<std::uint64_t> seg_bytes_;   // [src * S + dst] byte counts
  std::vector<std::uint64_t> send_displ_;  // [src * (S+1)] prefix sums
  std::vector<std::vector<std::uint8_t>> send_buf_;  // one per src shard
  std::vector<std::vector<std::uint8_t>> recv_buf_;  // one per dst shard
  std::vector<std::uint64_t> recv_bytes_;  // per-dst decoded byte counts
};

std::unique_ptr<Transport> MakeTransport(TransportKind kind);

}  // namespace kcore::distsim
