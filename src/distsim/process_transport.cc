#include "distsim/process_transport.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "distsim/engine.h"
#include "graph/binio.h"
#include "util/fdio.h"
#include "util/logging.h"
#include "util/wire.h"

namespace kcore::distsim {

namespace {

using graph::NodeId;

// Frame opcodes (fixed64, arbitrary distinct tags). A parent->worker
// frame is: opcode, then for kOpRound the count row (R fixed64: bytes
// this rank sends to each dst rank), the displacement row (R + 1
// fixed64 prefix sums — redundant given the counts, and verified by the
// worker, exactly like an MPI_Alltoallv sdispls array must agree with
// its sendcounts), then displ[R] contiguous payload bytes.
constexpr std::uint64_t kOpRound = 0x444e554f52ULL;     // "ROUND"
constexpr std::uint64_t kOpShutdown = 0x504f5453ULL;    // "STOP"
// Per-rank compute opcodes. kOpRankInit is followed by a fixed64 body
// length and the init body (seed, limits, rank bounds, graph slice,
// per-node protocol state); kOpRankStep by a fixed64 round number (the
// worker replies fixed64 body length + stats-partial body); kOpRankCollect
// stands alone (the worker replies fixed64 body length + per-node state
// body). Layouts are tabulated in docs/TRANSPORTS.md.
constexpr std::uint64_t kOpRankInit = 0x54494e49ULL;     // "INIT"
constexpr std::uint64_t kOpRankStep = 0x50455453ULL;     // "STEP"
constexpr std::uint64_t kOpRankCollect = 0x4c4c4f43ULL;  // "COLL"

// ---------------------------------------------------------------------
// Worker side. Everything below runs in a forked child whose only links
// to the world are its parent socketpair and one socketpair per peer
// rank; it inherits the parent's memory copy-on-write but must never
// rely on it — all data it handles arrives over the sockets. Errors
// _exit(3) after a one-line stderr note; the parent then sees EOF/EPIPE
// and reports the rank. Workers never return into the parent's stack:
// they leave via _exit, skipping destructors and stdio flushes that
// belong to the parent.
// ---------------------------------------------------------------------

[[noreturn]] void WorkerDie(int rank, const char* what) {
  std::fprintf(stderr, "kcore process-transport worker %d: %s (errno=%d)\n",
               rank, what, errno);
  _exit(3);
}

// Per-peer duplex state for the nonblocking alltoallv: each direction is
// an 8-byte fixed64 length header followed by the raw segment bytes.
struct PeerIo {
  int fd = -1;
  // Outgoing: header + segment, driven by one cursor over both parts.
  std::uint8_t out_hdr[8];
  const std::uint8_t* out_body = nullptr;
  std::size_t out_len = 0;  // body length
  std::size_t out_off = 0;  // cursor over header + body
  bool out_done = false;
  // Incoming: header first, then the body into `in`.
  std::uint8_t in_hdr[8];
  std::size_t in_hdr_off = 0;
  std::vector<std::uint8_t>* in = nullptr;
  std::size_t in_off = 0;
  bool in_sized = false;
  bool in_done = false;
};

// A worker's peer-exchange state, kept across rounds so a steady-state
// exchange allocates nothing: one PeerIo per rank, and the poll set.
struct PeerExchange {
  std::vector<PeerIo> io;
  std::vector<struct pollfd> pfds;
};

// The peer exchange: every (this rank -> d) segment goes out and every
// (d -> this rank) segment comes in, all peers concurrently over
// nonblocking sockets driven by poll. Concurrency is what makes this
// deadlock-free without a global send/receive schedule: two ranks
// pushing large segments at each other both drain their receive side
// while their send side is flow-controlled, so neither blocks forever —
// the same reason real MPI_Alltoallv implementations progress sends and
// receives together.
void ExchangeWithPeers(int rank, int num_ranks, const std::vector<int>& peer,
                       const std::vector<std::uint8_t>& send_buf,
                       const std::vector<std::uint64_t>& counts,
                       const std::vector<std::uint64_t>& displ,
                       std::vector<std::vector<std::uint8_t>>& recv_seg,
                       PeerExchange& x) {
  std::vector<PeerIo>& io = x.io;
  io.assign(num_ranks, PeerIo{});
  std::size_t open = 0;
  for (int d = 0; d < num_ranks; ++d) {
    if (d == rank) continue;
    PeerIo& p = io[d];
    p.fd = peer[d];
    util::WireWriter w(p.out_hdr, p.out_hdr + 8);
    w.Fixed64(counts[d]);
    p.out_body = send_buf.data() + displ[d];
    p.out_len = counts[d];
    p.in = &recv_seg[d];
    ++open;
  }

  std::vector<struct pollfd>& pfds = x.pfds;
  while (open > 0) {
    pfds.clear();
    for (int d = 0; d < num_ranks; ++d) {
      PeerIo& p = io[d];
      if (p.fd < 0 || (p.out_done && p.in_done)) continue;
      short events = 0;
      if (!p.out_done) events |= POLLOUT;
      if (!p.in_done) events |= POLLIN;
      pfds.push_back({p.fd, events, 0});
    }
    if (util::PollRetry(pfds.data(), pfds.size(), -1) < 0) {
      WorkerDie(rank, "poll failed during peer exchange");
    }
    for (const struct pollfd& pf : pfds) {
      // Find the peer this fd belongs to (R is small; linear is fine).
      int d = 0;
      while (io[d].fd != pf.fd) ++d;
      PeerIo& p = io[d];

      // Drain the incoming side first: a peer that hung up (POLLHUP) may
      // still have bytes queued, and read() distinguishes data from EOF.
      if (!p.in_done && (pf.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        for (;;) {
          long got;
          if (!p.in_sized) {
            got = util::ReadSome(p.fd, p.in_hdr + p.in_hdr_off,
                                 8 - p.in_hdr_off);
            if (got > 0) {
              p.in_hdr_off += static_cast<std::size_t>(got);
              if (p.in_hdr_off == 8) {
                util::WireReader r(p.in_hdr, 8);
                p.in->resize(r.Fixed64());
                p.in_sized = true;
                if (p.in->empty()) {
                  p.in_done = true;
                  break;
                }
              }
              continue;
            }
          } else {
            got = util::ReadSome(p.fd, p.in->data() + p.in_off,
                                 p.in->size() - p.in_off);
            if (got > 0) {
              p.in_off += static_cast<std::size_t>(got);
              if (p.in_off == p.in->size()) {
                p.in_done = true;
                break;
              }
              continue;
            }
          }
          if (got == 0) break;  // EAGAIN: poll again later
          WorkerDie(rank, got == util::kReadEof
                              ? "peer rank died mid-exchange"
                              : "peer read failed");
        }
      }

      if (!p.out_done && (pf.revents & POLLOUT) != 0) {
        for (;;) {
          const std::uint8_t* src;
          std::size_t left;
          if (p.out_off < 8) {
            src = p.out_hdr + p.out_off;
            left = 8 - p.out_off;
          } else {
            src = p.out_body + (p.out_off - 8);
            left = p.out_len - (p.out_off - 8);
          }
          const long put = util::WriteSome(p.fd, src, left);
          if (put < 0) WorkerDie(rank, "peer rank died mid-exchange (write)");
          if (put == 0) break;  // flow-controlled: poll again later
          p.out_off += static_cast<std::size_t>(put);
          if (p.out_off == 8 + p.out_len) {
            p.out_done = true;
            break;
          }
        }
      }

      if (p.out_done && p.in_done) --open;
    }
  }
}

// A worker rank's whole life: read a framed send buffer from the
// parent, run the peer alltoallv, return the segments addressed to this
// rank (ascending src order) — until a shutdown frame or parent EOF.
[[noreturn]] void WorkerMain(int rank, int num_ranks, int parent_fd,
                             const std::vector<int>& peer) {
  for (int d = 0; d < num_ranks; ++d) {
    if (d != rank && !util::SetNonBlocking(peer[d], true)) {
      WorkerDie(rank, "cannot make peer socket nonblocking");
    }
  }

  const int R = num_ranks;
  std::vector<std::uint8_t> rows(static_cast<std::size_t>(R + R + 1) * 8);
  std::vector<std::uint64_t> counts(R), displ(R + 1);
  std::vector<std::uint8_t> send_buf, reply_hdr(static_cast<std::size_t>(R) * 8);
  std::vector<std::vector<std::uint8_t>> recv_seg(R);
  PeerExchange exchange;

  for (;;) {
    std::uint8_t op8[8];
    if (!util::ReadFully(parent_fd, op8, 8)) _exit(0);  // parent gone
    const std::uint64_t op = util::WireReader(op8, 8).Fixed64();
    if (op == kOpShutdown) _exit(0);
    if (op != kOpRound) WorkerDie(rank, "bad opcode from parent");

    // Count row + displacement row, then the contiguous send buffer.
    if (!util::ReadFully(parent_fd, rows.data(), rows.size())) {
      WorkerDie(rank, "truncated round frame (rows)");
    }
    util::WireReader rr(rows.data(), rows.size());
    for (int d = 0; d < R; ++d) counts[d] = rr.Fixed64();
    for (int d = 0; d <= R; ++d) displ[d] = rr.Fixed64();
    if (displ[0] != 0) WorkerDie(rank, "bad frame: displ[0] != 0");
    for (int d = 0; d < R; ++d) {
      if (displ[d + 1] - displ[d] != counts[d]) {
        WorkerDie(rank, "bad frame: displacements disagree with counts");
      }
    }
    send_buf.resize(displ[R]);
    if (!send_buf.empty() &&
        !util::ReadFully(parent_fd, send_buf.data(), send_buf.size())) {
      WorkerDie(rank, "truncated round frame (payload)");
    }

    // This rank's own segment still makes the full socket round trip
    // (parent -> here -> parent); only the peer legs are skipped, as
    // they would be for the local rank under MPI.
    recv_seg[rank].assign(send_buf.begin() + static_cast<long>(displ[rank]),
                          send_buf.begin() +
                              static_cast<long>(displ[rank] + counts[rank]));

    ExchangeWithPeers(rank, R, peer, send_buf, counts, displ, recv_seg,
                      exchange);

    // Reply: per-src received-byte row, then the segments in ascending
    // src-rank order — the contiguous receive buffer of the alltoallv.
    util::WireWriter w(reply_hdr.data(), reply_hdr.data() + reply_hdr.size());
    for (int s = 0; s < R; ++s) w.Fixed64(recv_seg[s].size());
    if (!util::WriteFully(parent_fd, reply_hdr.data(), reply_hdr.size())) {
      WorkerDie(rank, "parent died (reply header)");
    }
    for (int s = 0; s < R; ++s) {
      if (!recv_seg[s].empty() &&
          !util::WriteFully(parent_fd, recv_seg[s].data(),
                            recv_seg[s].size())) {
        WorkerDie(rank, "parent died (reply payload)");
      }
    }
  }
}

// ---------------------------------------------------------------------
// Per-rank compute worker. The worker owns its node slice end to end:
// slice graph, protocol state for owned nodes, a BroadcastStore (the
// engine's slot store type), inboxes/outboxes, RNG streams. Each round
// it runs the compute phase locally and exchanges composite peer bodies
// [fixed64 p2p_len][p2p segment][broadcast segment] over the SAME
// socketpair alltoallv as the byte-shuttle mode — the broadcast segment
// realizes the CONGEST fan-out rule (one copy per remote
// neighbor-owning rank, deduped before packing), and carries only what
// changed: a record for each broadcast that differs from its visible
// one, a tombstone for each that went absent. The receiver's remote
// slots keep every other broadcast as it was, so every node reads what
// it would read in-engine. Like the engine, a worker visits only the
// owned nodes that are awake or woken (frontier.h): an owned change
// wakes its owned neighbors, and a delivered record or tombstone wakes
// the remote node's owned neighbors — which the slice adjacency lists,
// since the slice keeps every edge incident to the owned range.
// ---------------------------------------------------------------------

// The length field of a tombstone record (`varint id, varint
// kTombstone`): the owner withdrew the node's broadcast (halted or
// silent). No payload has this many entries.
constexpr std::uint64_t kTombstone = ~std::uint64_t{0};

class SliceRuntime final : public NodeRuntime {
 public:
  SliceRuntime(int rank, int num_ranks, Protocol* protocol)
      : rank_(rank), num_ranks_(num_ranks), protocol_(protocol) {}

  // Parses the init-frame body; dies (never returns to a broken state)
  // on malformed input.
  void InitFromBody(const std::vector<std::uint8_t>& body);

  // One synchronous round (compute, census, pack, peer exchange,
  // decode, publish); fills `reply` with the stats-partial body.
  void RunRound(int round, const std::vector<int>& peer,
                std::vector<std::uint8_t>& reply);

  // Fills `reply` with the collect body: per owned node, the halted
  // flag, the current (prev) broadcast, and the protocol state.
  void Collect(std::vector<std::uint8_t>& reply);

 private:
  // NodeRuntime over the slice. Owned nodes see exactly the full-graph
  // view: a slice graph keeps every edge incident to the owned range,
  // id-sorted, so Neighbors/Degree/WeightedDegree agree with the
  // engine's bit for bit.
  NodeId RtN() const override { return n_; }
  double RtWeightedDegree(NodeId v) const override {
    return slice_.WeightedDegree(v);
  }
  std::span<const InMessage> RtMessages(NodeId v) const override {
    return inbox_[v];
  }
  void RtBroadcast(NodeId v, std::span<const double> p) override {
    CheckPayloadLimit(payload_limit_, p.size(), /*broadcast=*/true);
    bcast_.Stage(v, p);
  }
  void RtSend(NodeId v, NodeId neighbor, Payload p) override {
    CheckSendAdjacent(slice_.Neighbors(v), v, neighbor);
    CheckPayloadLimit(payload_limit_, p.size(), /*broadcast=*/false);
    outbox_[v].push_back(OutMessage{neighbor, std::move(p)});
  }
  util::Rng& RtRng(NodeId v) override {
    // Same construction as Engine::EnsureNodeRng, restricted to the
    // owned slots: keyed forks off the master are state-pure, so stream
    // (seed, v) is bit-identical whether built here or in-engine.
    if (!node_rng_ready_) {
      util::Rng master(seed_);
      node_rng_.reserve(hi_ - lo_);
      for (NodeId u = lo_; u < hi_; ++u) {
        node_rng_.push_back(master.ForkKeyed(u));
      }
      node_rng_ready_ = true;
    }
    return node_rng_[v - lo_];
  }
  void RtHalt(NodeId v) override { halted_[v] = 1; }

  int rank_;
  int num_ranks_;
  Protocol* protocol_;
  graph::Graph slice_;
  std::vector<std::uint64_t> rank_bounds_;
  NodeId n_ = 0;
  NodeId lo_ = 0, hi_ = 0;  // owned node range
  std::uint64_t seed_ = 0;
  std::size_t payload_limit_ = 0;
  bool track_quiescence_ = false;

  // Full-size-n arrays so node ids index directly. Owned nodes stage
  // into bcast_ and read their neighbors from it; the visible slots of
  // remote nodes hold their owners' visible broadcasts, kept current by
  // the changed-only fan-out.
  BroadcastStore bcast_;
  Frontier frontier_;
  std::uint64_t sleep_generation_ = 0;
  std::vector<char> halted_;
  std::size_t halted_count_ = 0;  // owned
  std::vector<std::vector<OutMessage>> outbox_;
  std::vector<std::vector<InMessage>> inbox_;
  bool inboxes_dirty_ = false;  // some owned inbox holds last round's mail

  bool node_rng_ready_ = false;
  std::vector<util::Rng> node_rng_;  // indexed v - lo_

  // The owned nodes' fan-out (remote ranks and remote-neighbor counts),
  // built once at init; the running census of the owned broadcasts; and
  // the model count of the remote broadcasts this rank sees (each
  // visible one once, from its owner).
  FanOutTable fan_;
  BroadcastCensus census_;
  RoundPartial partial_;  // this round's visits
  std::uint64_t bcast_received_ = 0;
  // Remote nodes whose broadcast a peer changed this round.
  std::vector<NodeId> remote_changes_;

  // Round scratch, persistent so steady-state rounds reallocate little.
  std::vector<std::uint64_t> p2p_row_, p2p_displ_;
  std::vector<std::uint8_t> p2p_buf_, bcast_scratch_, send_buf_;
  std::vector<std::vector<std::uint8_t>> bcast_buf_;  // one per dst rank
  std::vector<std::uint64_t> counts_, displ_;
  std::vector<std::vector<std::uint8_t>> recv_seg_;
  std::vector<util::WireWriter> seg_;  // p2p segment writers, one per dst
  std::vector<util::WireReader> tail_;  // broadcast segment per src rank
  std::vector<double> decoded_;         // one decoded remote broadcast
  PeerExchange exchange_;
  std::vector<std::uint64_t> distinct_sorted_;
};

void SliceRuntime::InitFromBody(const std::vector<std::uint8_t>& body) {
  util::WireReader r(body.data(), body.size());
  std::uint64_t x = 0;
  if (!r.TryFixed64(&seed_)) WorkerDie(rank_, "truncated init frame (seed)");
  if (!r.TryVarint(&x)) WorkerDie(rank_, "truncated init frame (limit)");
  payload_limit_ = static_cast<std::size_t>(x);
  if (!r.TryVarint(&x)) WorkerDie(rank_, "truncated init frame (flags)");
  track_quiescence_ = x != 0;
  if (!r.TryVarint(&x)) WorkerDie(rank_, "truncated init frame (n)");
  n_ = static_cast<NodeId>(x);
  if (!r.TryVarint(&x) || static_cast<int>(x) != num_ranks_) {
    WorkerDie(rank_, "init frame rank-count mismatch");
  }
  rank_bounds_.resize(static_cast<std::size_t>(num_ranks_) + 1);
  for (std::uint64_t& b : rank_bounds_) {
    if (!r.TryFixed64(&b)) WorkerDie(rank_, "truncated init frame (bounds)");
  }
  lo_ = static_cast<NodeId>(rank_bounds_[rank_]);
  hi_ = static_cast<NodeId>(rank_bounds_[rank_ + 1]);

  std::uint64_t mode = 0;
  if (!r.TryVarint(&mode)) WorkerDie(rank_, "truncated init frame (mode)");
  if (mode == 0) {
    // Wire-serialized slice: every edge incident to [lo, hi), in global
    // edge-id order, so parallel-edge tie order — and therefore the
    // (to, edge)-sorted adjacency — matches the full graph's.
    std::uint64_t m = 0;
    if (!r.TryVarint(&m)) WorkerDie(rank_, "truncated init frame (edges)");
    graph::GraphBuilder b(n_);
    b.Reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
      std::uint64_t u = 0, v = 0;
      double w = 0.0;
      if (!r.TryVarint(&u) || !r.TryVarint(&v) || !r.TryDouble(&w)) {
        WorkerDie(rank_, "truncated init frame (edge record)");
      }
      if (u >= n_ || v >= n_) {
        WorkerDie(rank_, "init frame edge endpoint out of range");
      }
      b.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v), w);
    }
    slice_ = std::move(b).Build();
  } else {
    // binio path: mmap the file and decode only slice-incident edges —
    // the rank-sliced ingestion contract of graph/binio.h.
    std::uint64_t len = 0;
    if (!r.TryVarint(&len)) WorkerDie(rank_, "truncated init frame (path)");
    std::string path(len, '\0');
    if (!r.TryRaw(path.data(), len)) {
      WorkerDie(rank_, "truncated init frame (path bytes)");
    }
    auto loaded = graph::LoadBinarySlice(path, lo_, hi_);
    if (!loaded) WorkerDie(rank_, "LoadBinarySlice failed for the init path");
    slice_ = std::move(loaded->graph);
  }
  if (slice_.num_nodes() != n_) {
    WorkerDie(rank_, "slice graph node count disagrees with init frame");
  }

  fan_.Build(slice_, rank_bounds_.data(), lo_, hi_);
  bcast_.Reset(n_);
  frontier_.Reset(lo_, hi_);
  halted_.assign(n_, 0);
  outbox_.resize(n_);
  inbox_.resize(n_);
  bcast_buf_.resize(num_ranks_);
  recv_seg_.resize(num_ranks_);

  // Per-owned-node protocol state. Each block must consume exactly its
  // declared length: a Save/Load drift would otherwise shift every
  // later node's state and corrupt silently.
  std::vector<std::uint8_t> state;
  for (NodeId v = lo_; v < hi_; ++v) {
    std::uint64_t len = 0;
    if (!r.TryVarint(&len)) WorkerDie(rank_, "truncated init frame (state)");
    state.resize(len);
    if (!r.TryRaw(state.data(), len)) {
      WorkerDie(rank_, "truncated init frame (state bytes)");
    }
    util::WireReader sr(state.data(), state.size());
    protocol_->LoadNodeState(v, sr);
    if (sr.failed() || sr.remaining() != 0) {
      WorkerDie(rank_, "protocol state block length mismatch");
    }
  }
  if (r.failed() || r.remaining() != 0) {
    WorkerDie(rank_, "trailing bytes in init frame");
  }
}

void SliceRuntime::RunRound(int round, const std::vector<int>& peer,
                            std::vector<std::uint8_t>& reply) {
  const int R = num_ranks_;
  const std::uint64_t generation = Protocol::SleepGeneration();
  if (generation != sleep_generation_) {
    sleep_generation_ = generation;
    frontier_.WakeAll();
  }

  // 1. Compute phase over the owned nodes this round visits (sequential
  // within a worker; per-rank parallelism is the processes themselves),
  // with the census of what they staged — the same formulas as the
  // engine's, restricted to senders this rank owns (senders are
  // partitioned by rank, so the parent's merged sums match the
  // in-engine census exactly). Sleeping nodes keep contributing their
  // unchanged broadcasts through the running tally.
  const std::size_t active = (hi_ - lo_) - halted_count_;
  partial_.Clear();
  VisitRange(*protocol_, round, lo_, hi_, slice_, bcast_, frontier_, halted_,
             outbox_, 0, &fan_, partial_);
  halted_count_ += partial_.halts;
  census_.Merge(partial_.tally);
  const std::size_t p2p_messages = partial_.p2p_messages;
  const std::size_t max_entries =
      std::max(partial_.p2p_max_entries, partial_.tally.max_entries);

  // 2a. Pack this rank's p2p segments (shared codec — encodings, and
  // therefore the byte accounting, identical to the in-engine path).
  // Only visited nodes can have staged any.
  p2p_row_.assign(R, 0);
  if (p2p_messages > 0) {
    CountSegmentBytes(rank_bounds_.data(), R, outbox_, lo_, hi_,
                      p2p_row_.data());
  }
  p2p_displ_.assign(R + 1, 0);
  for (int d = 0; d < R; ++d) p2p_displ_[d + 1] = p2p_displ_[d] + p2p_row_[d];
  p2p_buf_.resize(p2p_displ_[R]);
  if (p2p_messages > 0) {
    seg_.clear();
    for (int d = 0; d < R; ++d) {
      std::uint8_t* base = p2p_buf_.data() + p2p_displ_[d];
      seg_.emplace_back(base, base + p2p_row_[d]);
    }
    PackSegments(rank_bounds_.data(), R, outbox_, lo_, hi_, seg_.data());
  }
  const std::uint64_t p2p_sent = p2p_displ_[R];  // diagonal included

  // 2b. Pack the broadcast fan-out: each owned broadcast that changed
  // is encoded ONCE and its bytes appended to each remote
  // neighbor-owning rank's segment (never once per neighbor); one that
  // went absent sends a tombstone instead, and an unchanged one sends
  // nothing — the receivers keep it. The model counters keep the CONGEST
  // model (every present broadcast, once per remote rank) from the
  // running tally; `shipped` counts what actually goes out.
  std::uint64_t shipped = 0;
  for (int d = 0; d < R; ++d) bcast_buf_[d].clear();
  for (const NodeId v : bcast_.Pending(0)) {
    const std::span<const int> ranks = fan_.Ranks(v);
    if (ranks.empty()) continue;  // no remote neighbor
    const BroadcastView staged = bcast_.Staged(v);
    bcast_scratch_.clear();
    util::WireAppender enc(bcast_scratch_);
    enc.Varint(v);
    if (staged) {
      enc.Varint(staged.size());
      for (double x : staged) enc.Double(x);
    } else {
      enc.Varint(kTombstone);
    }
    for (const int r : ranks) {
      util::WireAppender(bcast_buf_[r])
          .Raw(bcast_scratch_.data(), bcast_scratch_.size());
    }
    shipped += bcast_scratch_.size() * ranks.size();
  }

  // 2c. Composite peer bodies: [fixed64 p2p_len][p2p seg][bcast seg],
  // contiguous per dst for ExchangeWithPeers' counts/displ contract.
  send_buf_.clear();
  counts_.assign(R, 0);
  displ_.assign(R + 1, 0);
  {
    util::WireAppender out(send_buf_);
    for (int d = 0; d < R; ++d) {
      displ_[d] = send_buf_.size();
      if (d != rank_) {
        out.Fixed64(p2p_row_[d]);
        out.Raw(p2p_buf_.data() + p2p_displ_[d], p2p_row_[d]);
        out.Raw(bcast_buf_[d].data(), bcast_buf_[d].size());
      }
      counts_[d] = send_buf_.size() - displ_[d];
    }
    displ_[R] = send_buf_.size();
  }

  // 3. The same nonblocking socketpair alltoallv as byte-shuttle mode.
  for (auto& seg : recv_seg_) seg.clear();
  ExchangeWithPeers(rank_, R, peer, send_buf_, counts_, displ_, recv_seg_,
                    exchange_);

  // 4. Deliver p2p into the owned inboxes, ascending src rank (the
  // diagonal segment decodes at its own position, s == rank, keeping
  // inboxes sender-id-sorted — the conformance contract).
  if (inboxes_dirty_) {
    for (NodeId v = lo_; v < hi_; ++v) inbox_[v].clear();
  }
  std::uint64_t p2p_received = 0;
  tail_.clear();
  for (int s = 0; s < R; ++s) {
    if (s == rank_) {
      DecodeSegment(p2p_buf_.data() + p2p_displ_[rank_], p2p_row_[rank_],
                    lo_, hi_, inbox_);
      p2p_received += p2p_row_[rank_];
      tail_.emplace_back(nullptr, 0);
      continue;
    }
    util::WireReader pr(recv_seg_[s].data(), recv_seg_[s].size());
    const std::uint64_t p2p_len = pr.Fixed64();
    if (p2p_len + 8 > recv_seg_[s].size()) {
      WorkerDie(rank_, "peer body shorter than its p2p length header");
    }
    DecodeSegment(recv_seg_[s].data() + 8, p2p_len, lo_, hi_, inbox_);
    p2p_received += p2p_len;
    tail_.emplace_back(recv_seg_[s].data() + 8 + p2p_len,
                       recv_seg_[s].size() - 8 - p2p_len);
  }
  // Every message encodes to at least one byte.
  inboxes_dirty_ = p2p_received > 0;

  // 5. Publish: owned changes become visible, then the peers' broadcast
  // segments update the remote slots — disjoint id ranges per src rank,
  // so decode order across peers cannot matter. Deliver stamps each
  // record changed (it differs from the previous copy, or its owner
  // would not have sent it) and Retract drops a tombstoned node's copy:
  // the same slots and stamps the engine's Publish would leave.
  bcast_.Publish();
  remote_changes_.clear();
  for (int s = 0; s < R; ++s) {
    if (s == rank_) continue;
    util::WireReader& br = tail_[s];
    while (br.remaining() > 0) {
      const NodeId u = static_cast<NodeId>(br.Varint());
      if (u < rank_bounds_[s] || u >= rank_bounds_[s + 1]) {
        WorkerDie(rank_, "broadcast fan-out from a rank that does not own "
                         "the broadcaster");
      }
      const std::uint64_t len = br.Varint();
      if (br.failed()) WorkerDie(rank_, "malformed broadcast segment");
      const BroadcastView before = bcast_.Visible(u);
      if (before) bcast_received_ -= WireBroadcastBytes(u, before.size());
      remote_changes_.push_back(u);
      if (len == kTombstone) {
        bcast_.Retract(u);
        continue;
      }
      if (len > br.remaining() / 8) {
        WorkerDie(rank_, "malformed broadcast segment");
      }
      decoded_.resize(len);
      for (double& x : decoded_) x = br.Double();
      bcast_.Deliver(u, decoded_);
      bcast_received_ += WireBroadcastBytes(u, len);
    }
    if (br.failed()) WorkerDie(rank_, "malformed broadcast segment");
  }

  // 6. Slice quiescence: owned inbox traffic, or an owned broadcast that
  // changed (by ==, see broadcast_store.h). Slices partition the nodes,
  // so the parent's OR over ranks equals the engine's global predicate.
  const bool changed =
      !track_quiescence_ || p2p_received > 0 || bcast_.PublishedDiffers();

  // 7. Wake-ups for the owned nodes that sleep into the next round: a
  // changed remote node wakes all of its slice neighbors (every one is
  // owned), as a changed owned node did during the compute sweep.
  WakeForNextRound(frontier_, slice_, remote_changes_, inbox_,
                   p2p_received > 0, lo_, hi_,
                   (hi_ - lo_) - halted_count_ - partial_.awake);

  // 8. The stats-partial reply. Distinct values travel as a sorted
  // bit-pattern list so the parent can union them exactly.
  std::vector<std::uint64_t>& dv = distinct_sorted_;
  dv.clear();
  census_.values.ForEach([&](std::uint64_t bits) { dv.push_back(bits); });
  std::sort(dv.begin(), dv.end());
  reply.clear();
  util::WireAppender a(reply);
  a.Varint(active);
  a.Varint(census_.messages + p2p_messages);
  a.Varint(census_.entries + partial_.p2p_entries);
  a.Varint(max_entries);
  a.Varint(p2p_sent);
  a.Varint(p2p_received);
  a.Varint(census_.fanout_bytes);
  a.Varint(bcast_received_);
  a.Varint(census_.neighbor_bytes);
  a.Varint(halted_count_);
  a.Varint(changed ? 1 : 0);
  a.Varint(dv.size());
  for (std::uint64_t bits : dv) a.Fixed64(bits);
  a.Varint(shipped);
}

void SliceRuntime::Collect(std::vector<std::uint8_t>& reply) {
  reply.clear();
  util::WireAppender a(reply);
  std::vector<std::uint8_t> state;
  for (NodeId v = lo_; v < hi_; ++v) {
    a.Varint(halted_[v] ? 1 : 0);
    const BroadcastView visible = bcast_.Visible(v);
    a.Varint(visible ? 1 : 0);
    if (visible) {
      a.Varint(visible.size());
      for (double x : visible) a.Double(x);
    }
    state.clear();
    util::WireAppender sa(state);
    protocol_->SaveNodeState(v, sa);
    a.Varint(state.size());
    a.Raw(state.data(), state.size());
  }
}

// A per-rank compute worker's life: one init frame, then step/collect
// frames until shutdown or parent EOF.
[[noreturn]] void RankWorkerMain(int rank, int num_ranks, int parent_fd,
                                 const std::vector<int>& peer,
                                 Protocol* protocol) {
  for (int d = 0; d < num_ranks; ++d) {
    if (d != rank && !util::SetNonBlocking(peer[d], true)) {
      WorkerDie(rank, "cannot make peer socket nonblocking");
    }
  }

  SliceRuntime rt(rank, num_ranks, protocol);
  {
    std::uint8_t hdr[16];
    if (!util::ReadFully(parent_fd, hdr, 16)) _exit(0);  // parent gone
    util::WireReader hr(hdr, 16);
    if (hr.Fixed64() != kOpRankInit) {
      WorkerDie(rank, "expected init frame first");
    }
    std::vector<std::uint8_t> body(hr.Fixed64());
    if (!body.empty() &&
        !util::ReadFully(parent_fd, body.data(), body.size())) {
      WorkerDie(rank, "truncated init frame");
    }
    rt.InitFromBody(body);
  }

  std::vector<std::uint8_t> reply;
  std::uint8_t len8[8];
  for (;;) {
    std::uint8_t op8[8];
    if (!util::ReadFully(parent_fd, op8, 8)) _exit(0);  // parent gone
    const std::uint64_t op = util::WireReader(op8, 8).Fixed64();
    if (op == kOpShutdown) _exit(0);
    if (op == kOpRankStep) {
      std::uint8_t round8[8];
      if (!util::ReadFully(parent_fd, round8, 8)) {
        WorkerDie(rank, "truncated step frame");
      }
      const int round =
          static_cast<int>(util::WireReader(round8, 8).Fixed64());
      rt.RunRound(round, peer, reply);
    } else if (op == kOpRankCollect) {
      rt.Collect(reply);
    } else {
      WorkerDie(rank, "bad opcode from parent");
    }
    util::WireWriter w(len8, len8 + 8);
    w.Fixed64(reply.size());
    if (!util::WriteFully(parent_fd, len8, 8) ||
        (!reply.empty() &&
         !util::WriteFully(parent_fd, reply.data(), reply.size()))) {
      WorkerDie(rank, "parent died (rank reply)");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------

std::uint64_t PackRankBuffers(
    const std::uint64_t* rank_bounds, int num_ranks,
    std::vector<std::vector<OutMessage>>& outbox,
    std::vector<std::uint64_t>& seg_bytes,
    std::vector<std::uint64_t>& send_displ,
    std::vector<std::vector<std::uint8_t>>& send_buf,
    std::vector<util::WireWriter>& seg) {
  const int R = num_ranks;
  const std::uint64_t* rb = rank_bounds;

  // Count pass by src rank: exact wire bytes per (src, dst) segment.
  seg_bytes.assign(static_cast<std::size_t>(R) * R, 0);
  for (int s = 0; s < R; ++s) {
    CountSegmentBytes(rb, R, outbox, rb[s], rb[s + 1],
                      seg_bytes.data() + static_cast<std::size_t>(s) * R);
  }

  // Displacement rows + send-buffer sizing (MPI_Alltoallv's sdispls).
  send_displ.assign(static_cast<std::size_t>(R) * (R + 1), 0);
  send_buf.resize(R);
  std::uint64_t total_bytes = 0;
  for (int s = 0; s < R; ++s) {
    std::uint64_t run = 0;
    for (int d = 0; d < R; ++d) {
      send_displ[static_cast<std::size_t>(s) * (R + 1) + d] = run;
      run += seg_bytes[static_cast<std::size_t>(s) * R + d];
    }
    send_displ[static_cast<std::size_t>(s) * (R + 1) + R] = run;
    send_buf[s].resize(run);
    total_bytes += run;
  }

  // Pack pass by src rank — the shared codec, so the segment encoding
  // (and thus byte accounting) is identical to SerializedTransport's.
  // Outboxes are consumed here.
  for (int s = 0; s < R; ++s) {
    seg.clear();
    for (int d = 0; d < R; ++d) {
      std::uint8_t* base =
          send_buf[s].data() +
          send_displ[static_cast<std::size_t>(s) * (R + 1) + d];
      seg.emplace_back(base,
                       base + seg_bytes[static_cast<std::size_t>(s) * R + d]);
    }
    PackSegments(rb, R, outbox, rb[s], rb[s + 1], seg.data());
  }
  return total_bytes;
}

std::uint64_t UnpackRankBuffers(
    const std::uint64_t* rank_bounds, int num_ranks,
    const std::vector<std::uint64_t>& seg_bytes,
    const std::vector<std::vector<std::uint8_t>>& recv_buf,
    std::vector<std::vector<InMessage>>& inbox) {
  const int R = num_ranks;
  std::uint64_t received = 0;
  for (int r = 0; r < R; ++r) {
    std::uint64_t off = 0;
    for (int s = 0; s < R; ++s) {
      const std::uint64_t len = seg_bytes[static_cast<std::size_t>(s) * R + r];
      DecodeSegment(recv_buf[r].data() + off, len, rank_bounds[r],
                    rank_bounds[r + 1], inbox);
      off += len;
    }
    received += off;
  }
  return received;
}

ProcessTransport::~ProcessTransport() { Shutdown(); }

namespace {

// Test-only startup fault injection (InjectStartFault): which 1-based
// resource allocation of the next TryStart fails, and the call-order
// counter that TryStart resets on entry. socketpair() and fork() calls
// share one counter so a test can hit any point of the topology build.
int g_fault_nth = 0;
int g_alloc_count = 0;

bool AllocFaultArmed() {
  ++g_alloc_count;
  if (g_fault_nth != 0 && g_alloc_count == g_fault_nth) {
    g_fault_nth = 0;  // one-shot
    errno = EMFILE;
    return true;
  }
  return false;
}

int CheckedSocketpair(int fds[2]) {
  if (AllocFaultArmed()) return -1;
  return ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
}

pid_t CheckedFork() {
  if (AllocFaultArmed()) return -1;
  return ::fork();
}

}  // namespace

void ProcessTransport::InjectStartFault(int nth) { g_fault_nth = nth; }

void ProcessTransport::Start(NodeId n, int num_ranks,
                             const std::uint64_t* rank_bounds) {
  std::string error;
  KCORE_CHECK_MSG(TryStart(n, num_ranks, rank_bounds, &error),
                  "ProcessTransport::Start failed: " << error);
}

bool ProcessTransport::TryStart(NodeId n, int num_ranks,
                                const std::uint64_t* rank_bounds,
                                std::string* error) {
  KCORE_CHECK_MSG(!started_, "ProcessTransport::Start() called twice");
  KCORE_CHECK_MSG(num_ranks >= 1, "ProcessTransport needs >= 1 rank, got "
                                      << num_ranks);
  g_alloc_count = 0;
  n_ = n;
  num_ranks_ = num_ranks;
  rank_bounds_.assign(rank_bounds, rank_bounds + num_ranks + 1);

  const int R = num_ranks_;
  // Fail up front, with an actionable message, rather than mid-topology
  // with EMFILE: while forking, the parent briefly holds both ends of
  // every pair — 2R parent<->worker fds plus R(R-1) peer fds.
  struct rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
    const std::uint64_t need =
        2ULL * R + static_cast<std::uint64_t>(R) * (R - 1) + 64;  // headroom
    KCORE_CHECK_MSG(need <= nofile.rlim_cur,
                    "ProcessTransport with " << R << " ranks needs ~" << need
                        << " file descriptors but RLIMIT_NOFILE is "
                        << nofile.rlim_cur
                        << " — lower the rank count or raise ulimit -n");
  }
  // All socketpairs are created before the first fork so every worker
  // sees the complete topology and can close exactly what it does not
  // own. pc[r] = parent<->worker r; pp[i][j] (i < j) = worker i <->
  // worker j, end [0] for the lower rank. Every slot starts at -1 so
  // the failure paths can close exactly what exists.
  std::vector<std::array<int, 2>> pc(R, {-1, -1});
  std::vector<std::vector<std::array<int, 2>>> pp(R);
  for (int r = 0; r < R; ++r) pp[r].assign(R, {-1, -1});

  auto close_all = [&] {
    for (auto& p : pc) {
      for (int& fd : p) {
        if (fd >= 0) {
          ::close(fd);
          fd = -1;
        }
      }
    }
    for (auto& row : pp) {
      for (auto& p : row) {
        for (int& fd : p) {
          if (fd >= 0) {
            ::close(fd);
            fd = -1;
          }
        }
      }
    }
  };

  for (int r = 0; r < R; ++r) {
    if (CheckedSocketpair(pc[r].data()) != 0) {
      const int err = errno;
      pc[r] = {-1, -1};  // contents are undefined after a failed call
      close_all();
      *error = "socketpair(parent, rank " + std::to_string(r) +
               ") failed, errno " + std::to_string(err);
      return false;
    }
  }
  for (int i = 0; i < R; ++i) {
    for (int j = i + 1; j < R; ++j) {
      if (CheckedSocketpair(pp[i][j].data()) != 0) {
        const int err = errno;
        pp[i][j] = {-1, -1};
        close_all();
        *error = "socketpair(rank " + std::to_string(i) + ", rank " +
                 std::to_string(j) + ") failed, errno " + std::to_string(err);
        return false;
      }
    }
  }

  pids_.assign(R, -1);
  parent_fd_.assign(R, -1);
  for (int r = 0; r < R; ++r) {
    const pid_t pid = CheckedFork();
    if (pid < 0) {
      const int err = errno;
      // Unwind: closing every fd first makes each already-forked worker
      // (blocked reading its parent pair) see EOF and exit; the kill is
      // belt-and-braces for a worker wedged elsewhere, and the blocking
      // reap guarantees no zombie outlives the failed start.
      close_all();
      for (int q = 0; q < r; ++q) {
        if (pids_[q] < 0) continue;
        ::kill(pids_[q], SIGKILL);
        pid_t got;
        int status = 0;
        do {
          got = ::waitpid(pids_[q], &status, 0);
        } while (got < 0 && errno == EINTR);
        pids_[q] = -1;
      }
      pids_.clear();
      parent_fd_.clear();
      *error = "fork of rank " + std::to_string(r) + " failed, errno " +
               std::to_string(err);
      return false;
    }
    if (pid == 0) {
      // Worker r: keep its parent-pair end and its peer ends, close the
      // rest (including every other worker's fds, inherited because all
      // pairs predate every fork).
      std::vector<int> peer(R, -1);
      for (int q = 0; q < R; ++q) {
        ::close(pc[q][0]);
        if (q != r) ::close(pc[q][1]);
      }
      for (int i = 0; i < R; ++i) {
        for (int j = i + 1; j < R; ++j) {
          if (i == r) {
            peer[j] = pp[i][j][0];
            ::close(pp[i][j][1]);
          } else if (j == r) {
            peer[i] = pp[i][j][1];
            ::close(pp[i][j][0]);
          } else {
            ::close(pp[i][j][0]);
            ::close(pp[i][j][1]);
          }
        }
      }
      // Neither main ever returns. A rank-compute worker inherits the
      // protocol object through the fork (PrepareRankCompute ran before
      // this point), but its authoritative per-node state arrives over
      // the socket in the init frame.
      if (rank_compute_) {
        RankWorkerMain(r, R, pc[r][1], peer, rank_setup_.protocol);
      }
      WorkerMain(r, R, pc[r][1], peer);  // never returns
    }
    pids_[r] = pid;
  }

  // Parent keeps only its end of each worker pair; the peer pairs belong
  // to the workers alone (so a dead worker surfaces as EOF to its peers,
  // not as a silently-open descriptor here).
  for (int r = 0; r < R; ++r) {
    ::close(pc[r][1]);
    parent_fd_[r] = pc[r][0];
  }
  for (int i = 0; i < R; ++i) {
    for (int j = i + 1; j < R; ++j) {
      ::close(pp[i][j][0]);
      ::close(pp[i][j][1]);
    }
  }
  started_ = true;

  if (rank_compute_) SendRankInitFrames();
  return true;
}

void ProcessTransport::SendRankInitFrames() {
  const int R = num_ranks_;
  const RankComputeSetup& s = rank_setup_;
  const std::uint64_t* rb = rank_bounds_.data();
  std::vector<std::uint8_t> state;

  // Mode 0 ships rank r every edge incident to [rb[r], rb[r+1]), in
  // global edge-id order so the worker-built adjacency (sorted by (to,
  // edge)) matches the full graph's parallel-edge tie order bit for bit.
  // The edge counts come from one pass of owner lookups; each frame's
  // pass then tests its slice's bounds directly.
  std::vector<std::uint64_t> m_r(R, 0);
  if (s.graph_path.empty()) {
    for (const graph::Edge& edge : s.graph->edges()) {
      const int ou = OwnerIndex(rb, R, edge.u);
      const int ov = OwnerIndex(rb, R, edge.v);
      ++m_r[ou];
      if (ov != ou) ++m_r[ov];
    }
  }

  for (int r = 0; r < R; ++r) {
    body_.clear();
    util::WireAppender a(body_);
    a.Fixed64(s.seed);
    a.Varint(s.payload_limit);
    a.Varint(s.track_quiescence ? 1 : 0);
    a.Varint(n_);
    a.Varint(static_cast<std::uint64_t>(R));
    for (std::uint64_t b : rank_bounds_) a.Fixed64(b);
    if (!s.graph_path.empty()) {
      a.Varint(1);  // mode: worker-side LoadBinarySlice
      a.Varint(s.graph_path.size());
      a.Raw(s.graph_path.data(), s.graph_path.size());
    } else {
      a.Varint(0);  // mode: wire-serialized slice
      a.Varint(m_r[r]);
      const std::uint64_t lo = rb[r], hi = rb[r + 1];
      for (const graph::Edge& edge : s.graph->edges()) {
        if ((edge.u < lo || edge.u >= hi) && (edge.v < lo || edge.v >= hi)) {
          continue;
        }
        a.Varint(edge.u);
        a.Varint(edge.v);
        a.Double(edge.w);
      }
    }
    for (NodeId v = static_cast<NodeId>(rb[r]);
         v < static_cast<NodeId>(rb[r + 1]); ++v) {
      state.clear();
      util::WireAppender sa(state);
      s.protocol->SaveNodeState(v, sa);
      a.Varint(state.size());
      a.Raw(state.data(), state.size());
    }

    std::uint8_t hdr[16];
    util::WireWriter w(hdr, hdr + 16);
    w.Fixed64(kOpRankInit);
    w.Fixed64(body_.size());
    if (!util::WriteFully(parent_fd_[r], hdr, 16) ||
        (!body_.empty() &&
         !util::WriteFully(parent_fd_[r], body_.data(), body_.size()))) {
      ReportDeadWorker(r, "receiving its init frame");
    }
  }
}

void ProcessTransport::PrepareRankCompute(const RankComputeSetup& setup) {
  KCORE_CHECK_MSG(!started_,
                  "PrepareRankCompute must precede ProcessTransport::Start()");
  KCORE_CHECK_MSG(setup.protocol != nullptr,
                  "PrepareRankCompute needs a protocol");
  KCORE_CHECK_MSG(setup.graph != nullptr || !setup.graph_path.empty(),
                  "PrepareRankCompute needs a graph or a graph path");
  rank_setup_ = setup;
  rank_compute_ = true;
}

RankRoundResult ProcessTransport::RankStep(int round) {
  {
    util::MutexLock lk(teardown_mu_);
    KCORE_CHECK_MSG(started_ && !shutdown_,
                    "ProcessTransport::RankStep outside Start()..Shutdown()");
  }
  KCORE_CHECK_MSG(rank_compute_,
                  "RankStep without PrepareRankCompute — the workers are "
                  "running the byte-shuttle loop");
  const int R = num_ranks_;
  std::uint8_t hdr[16];
  util::WireWriter w(hdr, hdr + 16);
  w.Fixed64(kOpRankStep);
  w.Fixed64(static_cast<std::uint64_t>(round));
  for (int r = 0; r < R; ++r) {
    if (!util::WriteFully(parent_fd_[r], hdr, 16)) {
      ReportDeadWorker(r, "receiving its step frame");
    }
  }

  // Merge the stats partials in fixed rank order: sums for the volume
  // counters, max for max_entries, OR for the quiescence flag, and an
  // exact union for the distinct-value census (slices can broadcast the
  // same value, so summing per-slice counts would overcount).
  RankRoundResult out{};
  distinct_.Clear();
  for (int r = 0; r < R; ++r) {
    std::uint8_t len8[8];
    if (!util::ReadFully(parent_fd_[r], len8, 8)) {
      ReportDeadWorker(r, "returning its round stats");
    }
    reply_.resize(util::WireReader(len8, 8).Fixed64());
    if (!reply_.empty() &&
        !util::ReadFully(parent_fd_[r], reply_.data(), reply_.size())) {
      ReportDeadWorker(r, "returning its round stats");
    }
    util::WireReader br(reply_.data(), reply_.size());
    out.active_nodes += br.Varint();
    out.messages += br.Varint();
    out.entries += br.Varint();
    out.max_entries = std::max(out.max_entries,
                               static_cast<std::size_t>(br.Varint()));
    out.bytes_sent += br.Varint();
    out.bytes_received += br.Varint();
    out.bcast_bytes_sent += br.Varint();
    out.bcast_bytes_received += br.Varint();
    out.bcast_bytes_per_neighbor += br.Varint();
    out.num_halted += br.Varint();
    out.changed = br.Varint() != 0 || out.changed;
    const std::uint64_t k = br.Varint();
    for (std::uint64_t i = 0; i < k; ++i) distinct_.Insert(br.Fixed64());
    bcast_bytes_shipped_ += br.Varint();
    KCORE_CHECK_MSG(!br.failed() && br.remaining() == 0,
                    "malformed stats reply from rank " << r);
  }
  out.distinct_values = distinct_.size();
  return out;
}

void ProcessTransport::CollectRankState(Protocol& p,
                                        std::vector<Payload>& prev_bcast,
                                        std::vector<char>& prev_has,
                                        std::vector<char>& halted) {
  {
    util::MutexLock lk(teardown_mu_);
    KCORE_CHECK_MSG(
        started_ && !shutdown_,
        "ProcessTransport::CollectRankState outside Start()..Shutdown()");
  }
  KCORE_CHECK_MSG(rank_compute_, "CollectRankState without PrepareRankCompute");
  const int R = num_ranks_;
  std::uint8_t op8[8];
  util::WireWriter w(op8, op8 + 8);
  w.Fixed64(kOpRankCollect);
  for (int r = 0; r < R; ++r) {
    if (!util::WriteFully(parent_fd_[r], op8, 8)) {
      ReportDeadWorker(r, "receiving its collect frame");
    }
  }
  for (int r = 0; r < R; ++r) {
    std::uint8_t len8[8];
    if (!util::ReadFully(parent_fd_[r], len8, 8)) {
      ReportDeadWorker(r, "returning its collected state");
    }
    reply_.resize(util::WireReader(len8, 8).Fixed64());
    if (!reply_.empty() &&
        !util::ReadFully(parent_fd_[r], reply_.data(), reply_.size())) {
      ReportDeadWorker(r, "returning its collected state");
    }
    util::WireReader br(reply_.data(), reply_.size());
    for (NodeId v = static_cast<NodeId>(rank_bounds_[r]);
         v < static_cast<NodeId>(rank_bounds_[r + 1]); ++v) {
      halted[v] = br.Varint() != 0 ? 1 : 0;
      const bool has = br.Varint() != 0;
      prev_has[v] = has ? 1 : 0;
      if (has) {
        prev_bcast[v].resize(br.Varint());
        for (double& x : prev_bcast[v]) x = br.Double();
      } else {
        prev_bcast[v].clear();
      }
      const std::uint64_t state_len = br.Varint();
      body_.resize(state_len);
      KCORE_CHECK_MSG(br.TryRaw(body_.data(), state_len),
                      "truncated collect body from rank " << r);
      util::WireReader sr(body_.data(), body_.size());
      p.LoadNodeState(v, sr);
      KCORE_CHECK_MSG(!sr.failed() && sr.remaining() == 0,
                      "protocol state block length mismatch for node " << v);
    }
    KCORE_CHECK_MSG(!br.failed() && br.remaining() == 0,
                    "malformed collect reply from rank " << r);
  }
}

void ProcessTransport::ReportDeadWorker(int rank, const char* stage) {
  int status = 0;
  const pid_t got = ::waitpid(pids_[rank], &status, WNOHANG);
  std::string detail = "still running (socket error)";
  if (got == pids_[rank]) {
    pids_[rank] = -1;  // reaped here; Shutdown must not wait again
    if (WIFEXITED(status)) {
      detail = "exited with status " + std::to_string(WEXITSTATUS(status));
    } else if (WIFSIGNALED(status)) {
      detail = "killed by signal " + std::to_string(WTERMSIG(status));
    }
  } else if (got < 0) {
    detail = "already reaped";
  }
  KCORE_CHECK_MSG(false, "process transport rank " << rank << " died while "
                             << stage << ": " << detail);
  ::abort();  // silence "noreturn function returns": the macro hides
              // CheckFailed's [[noreturn]] behind a conditional
}

WireVolume ProcessTransport::Exchange(const ExchangeContext& ctx) {
  {
    util::MutexLock lk(teardown_mu_);
    KCORE_CHECK_MSG(started_ && !shutdown_,
                    "ProcessTransport::Exchange outside Start()..Shutdown()");
  }
  KCORE_CHECK_MSG(ctx.num_ranks == num_ranks_,
                  "rank topology changed mid-run: Start() saw "
                      << num_ranks_ << " ranks, Exchange sees "
                      << ctx.num_ranks);
  auto& outbox = *ctx.outbox;
  auto& inbox = *ctx.inbox;
  const int R = num_ranks_;
  const std::uint64_t* rb = rank_bounds_.data();

  // Count + pack (shared with the MPI flavor). Runs on the caller — the
  // parent is the data's home; the per-rank parallelism of this backend
  // lives in the worker processes.
  const std::uint64_t total_bytes =
      PackRankBuffers(rb, R, outbox, seg_bytes_, send_displ_, send_buf_,
                      seg_writers_);
  recv_buf_.resize(R);

  // Ship every src rank its framed send buffer: opcode, count row,
  // displacement row, contiguous payload.
  frame_.resize(static_cast<std::size_t>(1 + R + R + 1) * 8);
  for (int r = 0; r < R; ++r) {
    util::WireWriter w(frame_.data(), frame_.data() + frame_.size());
    w.Fixed64(kOpRound);
    for (int d = 0; d < R; ++d) {
      w.Fixed64(seg_bytes_[static_cast<std::size_t>(r) * R + d]);
    }
    for (int d = 0; d <= R; ++d) {
      w.Fixed64(send_displ_[static_cast<std::size_t>(r) * (R + 1) + d]);
    }
    if (!util::WriteFully(parent_fd_[r], frame_.data(), frame_.size()) ||
        (!send_buf_[r].empty() &&
         !util::WriteFully(parent_fd_[r], send_buf_[r].data(),
                           send_buf_[r].size()))) {
      ReportDeadWorker(r, "sending its round frame");
    }
  }

  // Read every dst rank's combined receive buffer back: per-src count
  // row (verified against this side's seg_bytes column — the row made
  // TWO socket hops to get back here), then the concatenated segments.
  reply_rows_.resize(static_cast<std::size_t>(R) * 8);
  for (int r = 0; r < R; ++r) {
    if (!util::ReadFully(parent_fd_[r], reply_rows_.data(),
                         reply_rows_.size())) {
      ReportDeadWorker(r, "returning its exchanged segments");
    }
    util::WireReader hr(reply_rows_.data(), reply_rows_.size());
    std::uint64_t total = 0;
    for (int s = 0; s < R; ++s) {
      const std::uint64_t got = hr.Fixed64();
      const std::uint64_t want =
          seg_bytes_[static_cast<std::size_t>(s) * R + r];
      KCORE_CHECK_MSG(got == want,
                      "rank " << r << " returned " << got
                              << " bytes from src rank " << s << ", expected "
                              << want << " — segment corrupted in transit");
      total += got;
    }
    recv_buf_[r].resize(total);
    if (!recv_buf_[r].empty() &&
        !util::ReadFully(parent_fd_[r], recv_buf_[r].data(),
                         recv_buf_[r].size())) {
      ReportDeadWorker(r, "returning its exchanged segments");
    }
  }

  // Unpack: inboxes are rebuilt EXCLUSIVELY from the bytes that came
  // back off the sockets. Clear (and pre-size, when the census ran
  // parallel) every inbox first, then decode each dst rank's buffer in
  // ascending src-rank order — ascending src rank x ascending sender id
  // within a segment = sender-id-sorted inboxes, the conformance
  // contract.
  ClearAndReserveInboxes(ctx, 0, n_);
  UnpackRankBuffers(rb, R, seg_bytes_, recv_buf_, inbox);

  // bytes_received = what actually arrived over the parent sockets. The
  // per-segment audit already happened above (the reply rows, verified
  // against this side's seg_bytes columns after two socket hops), and
  // DecodeSegment checked every segment's structure — so this sum
  // equals total_bytes by construction rather than by a redundant check.
  std::uint64_t received = 0;
  for (int r = 0; r < R; ++r) received += recv_buf_[r].size();
  return WireVolume{static_cast<std::size_t>(total_bytes),
                    static_cast<std::size_t>(received)};
}

bool ProcessTransport::Shutdown() {
  // Held across the whole teardown (including the reap loop): a
  // concurrent second call must not observe shutdown_ == true and
  // report a verdict before the workers are actually down.
  util::MutexLock lk(teardown_mu_);
  if (!started_ || shutdown_) return clean_shutdown_;
  shutdown_ = true;
  clean_shutdown_ = true;
  std::uint8_t op8[8];
  util::WireWriter w(op8, op8 + 8);
  w.Fixed64(kOpShutdown);
  for (int r = 0; r < num_ranks_; ++r) {
    if (parent_fd_[r] >= 0) {
      // Best-effort: a dead worker just means EPIPE here, which the
      // reaping below turns into a non-clean status.
      (void)util::WriteFully(parent_fd_[r], op8, 8);
      ::close(parent_fd_[r]);
      parent_fd_[r] = -1;
    }
  }
  for (int r = 0; r < num_ranks_; ++r) {
    if (pids_[r] < 0) {
      clean_shutdown_ = false;  // died (and was reaped) mid-run
      continue;
    }
    int status = 0;
    pid_t got;
    do {
      got = ::waitpid(pids_[r], &status, 0);
    } while (got < 0 && errno == EINTR);
    if (got != pids_[r] || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      clean_shutdown_ = false;
    }
    pids_[r] = -1;
  }
  return clean_shutdown_;
}

}  // namespace kcore::distsim
