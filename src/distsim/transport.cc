#include "distsim/transport.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "distsim/process_transport.h"
#include "distsim/thread_pool.h"
#include "util/function_ref.h"
#include "util/logging.h"
#include "util/wire.h"

namespace kcore::distsim {

namespace {

using graph::NodeId;

// Runs body(shard, begin, end) over the context's partition — on the pool
// when one is attached (a full barrier: every shard finishes before this
// returns), inline on the caller otherwise. Note the pool skips empty
// shards' bodies; transports must not rely on a body running for them.
void RunSharded(
    const ExchangeContext& ctx,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body) {
  if (ctx.pool != nullptr) {
    ctx.pool->ParallelFor(
        std::span<const std::uint64_t>(ctx.bounds,
                                       static_cast<std::size_t>(ctx.num_shards) + 1),
        body);
  } else {
    for (int s = 0; s < ctx.num_shards; ++s) {
      body(s, ctx.bounds[s], ctx.bounds[s + 1]);
    }
  }
}

}  // namespace

std::uint64_t WireMessageBytes(std::uint64_t from, const OutMessage& m) {
  return util::VarintSize(from) + util::VarintSize(m.to) +
         util::VarintSize(m.payload.size()) + 8 * m.payload.size();
}

void Transport::PrepareRankCompute(const RankComputeSetup& setup) {
  (void)setup;
  KCORE_CHECK_MSG(false, "transport '" << name()
                             << "' does not support per-rank compute");
}

RankRoundResult Transport::RankStep(int round) {
  (void)round;
  KCORE_CHECK_MSG(false, "transport '" << name()
                             << "' does not support per-rank compute");
  return RankRoundResult{};
}

void Transport::CollectRankState(Protocol& p, std::vector<Payload>& prev_bcast,
                                 std::vector<char>& prev_has,
                                 std::vector<char>& halted) {
  (void)p;
  (void)prev_bcast;
  (void)prev_has;
  (void)halted;
  KCORE_CHECK_MSG(false, "transport '" << name()
                             << "' does not support per-rank compute");
}

// (Empty cells [b, b) can never own anything — upper_bound steps past
// them.)
int OwnerIndex(const std::uint64_t* bounds, int cells, NodeId u) {
  const std::uint64_t* end = bounds + cells + 1;
  return static_cast<int>(
             std::upper_bound(bounds, end, static_cast<std::uint64_t>(u)) -
             bounds) -
         1;
}

void CountSegmentBytes(const std::uint64_t* bounds, int cells,
                       const std::vector<std::vector<OutMessage>>& outbox,
                       std::uint64_t begin, std::uint64_t end,
                       std::uint64_t* row) {
  for (std::uint64_t v = begin; v < end; ++v) {
    for (const OutMessage& m : outbox[v]) {
      row[OwnerIndex(bounds, cells, m.to)] += WireMessageBytes(v, m);
    }
  }
}

void PackSegments(const std::uint64_t* bounds, int cells,
                  std::vector<std::vector<OutMessage>>& outbox,
                  std::uint64_t begin, std::uint64_t end,
                  util::WireWriter* seg) {
  for (std::uint64_t v = begin; v < end; ++v) {
    for (OutMessage& m : outbox[v]) {
      util::WireWriter& w = seg[OwnerIndex(bounds, cells, m.to)];
      w.Varint(v);
      w.Varint(m.to);
      w.Varint(m.payload.size());
      for (double x : m.payload) w.Double(x);
    }
    outbox[v].clear();
  }
}

void DecodeSegment(const std::uint8_t* data, std::uint64_t len,
                   std::uint64_t lo, std::uint64_t hi,
                   std::vector<std::vector<InMessage>>& inbox) {
  util::WireReader r(data, len);
  while (r.remaining() > 0) {
    const NodeId from = static_cast<NodeId>(r.Varint());
    const NodeId to = static_cast<NodeId>(r.Varint());
    const std::uint64_t plen = r.Varint();
    InMessage msg;
    msg.from = from;
    msg.payload.resize(plen);
    for (std::uint64_t k = 0; k < plen; ++k) msg.payload[k] = r.Double();
    KCORE_CHECK_MSG(to >= lo && to < hi,
                    "packed segment routed message for receiver "
                        << to << " to the wrong dst cell ["
                        << lo << ", " << hi << ")");
    inbox[to].push_back(std::move(msg));
  }
}

void ClearAndReserveInboxes(const ExchangeContext& ctx, std::uint64_t begin,
                            std::uint64_t end) {
  auto& inbox = *ctx.inbox;
  const std::size_t n = ctx.n;
  for (std::uint64_t u = begin; u < end; ++u) {
    inbox[u].clear();
    if (ctx.counts != nullptr) {
      // Pre-size from the census columns (live rows only).
      std::uint32_t cnt = 0;
      for (int s = 0; s < ctx.num_shards; ++s) {
        if (ctx.shard_sent[s]) {
          cnt += ctx.counts[static_cast<std::size_t>(s) * n + u];
        }
      }
      inbox[u].reserve(cnt);
    }
  }
}

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSharedMemory:
      return "shared";
    case TransportKind::kSerialized:
      return "serialized";
    case TransportKind::kProcess:
      return "process";
  }
  return "unknown";
}

bool ParseTransportKind(std::string_view name, TransportKind* out) {
  if (name == "shared") {
    *out = TransportKind::kSharedMemory;
    return true;
  }
  if (name == "serialized") {
    *out = TransportKind::kSerialized;
    return true;
  }
  if (name == "process") {
    *out = TransportKind::kProcess;
    return true;
  }
  return false;
}

std::unique_ptr<Transport> MakeTransport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSharedMemory:
      return std::make_unique<SharedMemoryTransport>();
    case TransportKind::kSerialized:
      return std::make_unique<SerializedTransport>();
    case TransportKind::kProcess:
      return std::make_unique<ProcessTransport>();
  }
  KCORE_CHECK_MSG(false, "unknown TransportKind");
  return nullptr;
}

WireVolume SharedMemoryTransport::Exchange(const ExchangeContext& ctx) {
  auto& outbox = *ctx.outbox;
  auto& inbox = *ctx.inbox;

  if (ctx.counts == nullptr) {
    // Sequential delivery: iterate senders in id order so each inbox ends
    // up sorted by sender id. Payloads move; nothing is copied.
    for (auto& ib : inbox) ib.clear();
    for (NodeId v = 0; v < ctx.n; ++v) {
      for (OutMessage& m : outbox[v]) {
        inbox[m.to].push_back(InMessage{v, std::move(m.payload)});
      }
      outbox[v].clear();
    }
    return WireVolume{};
  }

  // Offset pass, sharded by RECEIVER: turn each receiver's per-shard
  // counts column into running block offsets (shard s's messages to u
  // start after every earlier shard's) and pre-size the inbox. Clearing
  // stale inboxes rides along. (Receiver sweeps are per-id independent,
  // so ANY partition works here — sharing the sender boundaries is just
  // uniformity.)
  const std::size_t n = ctx.n;
  RunSharded(ctx, [&](int, std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t u = b; u < e; ++u) {
      std::uint32_t run = 0;
      for (int s = 0; s < ctx.num_shards; ++s) {
        if (!ctx.shard_sent[s]) continue;
        std::uint32_t& c = ctx.counts[static_cast<std::size_t>(s) * n + u];
        const std::uint32_t count = c;
        c = run;
        run += count;
      }
      inbox[u].clear();
      inbox[u].resize(run);
    }
  });

  // Write pass, sharded by SENDER on the same boundaries the census
  // counted with (CRITICAL — the offset rows are per census shard): move
  // every message into its receiver's pre-sized slot. Within a shard
  // senders run in ascending id order and shard blocks are laid out in
  // shard order, so each inbox comes out sorted by sender id —
  // bit-identical to the sequential push_back delivery. Writes to a given
  // inbox land at disjoint indices and never reallocate: race-free.
  RunSharded(ctx, [&](int shard, std::uint64_t b, std::uint64_t e) {
    std::uint32_t* cursor = ctx.counts + static_cast<std::size_t>(shard) * n;
    for (std::uint64_t v = b; v < e; ++v) {
      for (OutMessage& m : outbox[v]) {
        InMessage& slot = inbox[m.to][cursor[m.to]++];
        slot.from = static_cast<NodeId>(v);
        slot.payload = std::move(m.payload);
      }
      outbox[v].clear();
    }
  });
  return WireVolume{};
}

WireVolume SerializedTransport::Exchange(const ExchangeContext& ctx) {
  auto& outbox = *ctx.outbox;
  auto& inbox = *ctx.inbox;
  const int S = ctx.num_shards;

  seg_bytes_.assign(static_cast<std::size_t>(S) * S, 0);
  send_displ_.assign(static_cast<std::size_t>(S) * (S + 1), 0);
  send_buf_.resize(S);
  recv_buf_.resize(S);
  recv_bytes_.assign(S, 0);

  // Count pass, sharded by SRC shard: exact wire bytes this shard sends
  // to every dst shard. (Empty shards keep their zeroed row.)
  RunSharded(ctx, [&](int s, std::uint64_t b, std::uint64_t e) {
    CountSegmentBytes(ctx.bounds, S, outbox, b, e,
                      seg_bytes_.data() + static_cast<std::size_t>(s) * S);
  });

  // Displacement rows (prefix sums per src shard) + send-buffer sizing on
  // the caller — the O(S^2) bookkeeping an MPI backend would feed
  // straight into MPI_Alltoallv's sdispls.
  std::uint64_t total_bytes = 0;
  for (int s = 0; s < S; ++s) {
    std::uint64_t run = 0;
    for (int d = 0; d < S; ++d) {
      send_displ_[static_cast<std::size_t>(s) * (S + 1) + d] = run;
      run += seg_bytes_[static_cast<std::size_t>(s) * S + d];
    }
    send_displ_[static_cast<std::size_t>(s) * (S + 1) + S] = run;
    send_buf_[s].resize(run);
    total_bytes += run;
  }

  // Pack pass, sharded by SRC shard: encode every message at its dst
  // segment's cursor (PackSegments walks senders in ascending id order,
  // so segments come out sender-ordered). Outboxes are consumed here.
  RunSharded(ctx, [&](int s, std::uint64_t b, std::uint64_t e) {
    std::vector<util::WireWriter> seg;
    seg.reserve(S);
    for (int d = 0; d < S; ++d) {
      std::uint8_t* base =
          send_buf_[s].data() +
          send_displ_[static_cast<std::size_t>(s) * (S + 1) + d];
      seg.emplace_back(base,
                       base + seg_bytes_[static_cast<std::size_t>(s) * S + d]);
    }
    PackSegments(ctx.bounds, S, outbox, b, e, seg.data());
  });

  // Exchange, sharded by DST shard: gather every src's (src -> dst)
  // segment into one contiguous receive buffer, src shards in order —
  // the alltoallv. In-process this is a memcpy; over MPI it would be the
  // collective itself, with identical counts and displacements.
  RunSharded(ctx, [&](int d, std::uint64_t, std::uint64_t) {
    std::uint64_t total = 0;
    for (int s = 0; s < S; ++s) {
      total += seg_bytes_[static_cast<std::size_t>(s) * S + d];
    }
    recv_buf_[d].resize(total);
    std::uint64_t off = 0;
    for (int s = 0; s < S; ++s) {
      const std::uint64_t len = seg_bytes_[static_cast<std::size_t>(s) * S + d];
      if (len > 0) {
        std::memcpy(recv_buf_[d].data() + off,
                    send_buf_[s].data() +
                        send_displ_[static_cast<std::size_t>(s) * (S + 1) + d],
                    len);
      }
      off += len;
    }
  });

  // Unpack pass, sharded by DST shard: decode segments in src-shard order
  // and append per receiver. Segment order (ascending src shard) x
  // in-segment order (ascending sender id) = globally ascending sender
  // order per inbox — the conformance contract.
  RunSharded(ctx, [&](int d, std::uint64_t b, std::uint64_t e) {
    ClearAndReserveInboxes(ctx, b, e);
    std::uint64_t off = 0;
    for (int s = 0; s < S; ++s) {
      const std::uint64_t len = seg_bytes_[static_cast<std::size_t>(s) * S + d];
      DecodeSegment(recv_buf_[d].data() + off, len, b, e, inbox);
      off += len;
    }
    recv_bytes_[d] = off;
  });

  std::uint64_t received = 0;
  for (int d = 0; d < S; ++d) received += recv_bytes_[d];
  KCORE_CHECK_MSG(received == total_bytes,
                  "serialized exchange lost bytes: packed "
                      << total_bytes << ", decoded " << received);
  return WireVolume{static_cast<std::size_t>(total_bytes),
                    static_cast<std::size_t>(received)};
}

}  // namespace kcore::distsim
