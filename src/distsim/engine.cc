#include "distsim/engine.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "distsim/thread_pool.h"
#include "distsim/transport.h"
#include "util/logging.h"
#include "util/wire.h"

namespace kcore::distsim {

// Beyond the adjacency and broadcast slots it reads inline, NodeContext
// forwards every call to the runtime that minted it — the engine (full
// graph) or a rank worker's slice runtime.

NodeId NodeContext::n() const { return rt_->RtN(); }

double NodeContext::weighted_degree() const {
  return rt_->RtWeightedDegree(id_);
}

std::span<const InMessage> NodeContext::Messages() const {
  return rt_->RtMessages(id_);
}

void NodeContext::Broadcast(std::span<const double> p) {
  rt_->RtBroadcast(id_, p);
}

void NodeContext::Send(NodeId neighbor, Payload p) {
  rt_->RtSend(id_, neighbor, std::move(p));
}

util::Rng& NodeContext::Rng() { return rt_->RtRng(id_); }

void NodeContext::Halt() { rt_->RtHalt(id_); }

// Shared by the engine and the worker-side slice runtime so the CONGEST
// checks stay identical (and so do their failure messages).
void CheckPayloadLimit(std::size_t limit, std::size_t size, bool broadcast) {
  if (limit == 0) return;
  KCORE_CHECK_MSG(size <= limit,
                  "CONGEST violation: " << (broadcast ? "broadcast" : "p2p message")
                      << " of " << size << " entries exceeds the limit "
                      << limit);
}

void CheckSendAdjacent(std::span<const graph::AdjEntry> nbrs, NodeId from,
                       NodeId to) {
  // Locality check: only adjacent nodes are reachable.
  const auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), to,
      [](const graph::AdjEntry& a, NodeId x) { return a.to < x; });
  KCORE_CHECK_MSG(it != nbrs.end() && it->to == to,
                  "Send target " << to << " not adjacent to " << from);
}

namespace {
std::atomic<std::uint64_t> g_sleep_generation{0};
}  // namespace

std::uint64_t Protocol::SleepGeneration() {
  return g_sleep_generation.load(std::memory_order_acquire);
}

void Protocol::WakeSleepers() {
  g_sleep_generation.fetch_add(1, std::memory_order_acq_rel);
}

void Protocol::SaveNodeState(NodeId v, util::WireAppender& out) const {
  (void)v;
  (void)out;
  KCORE_CHECK_MSG(false,
                  "protocol claims SupportsRankCompute() but does not "
                  "implement SaveNodeState()");
}

void Protocol::LoadNodeState(NodeId v, util::WireReader& in) {
  (void)v;
  (void)in;
  KCORE_CHECK_MSG(false,
                  "protocol claims SupportsRankCompute() but does not "
                  "implement LoadNodeState()");
}

NodeId Engine::RtN() const { return graph_.num_nodes(); }

double Engine::RtWeightedDegree(NodeId v) const {
  return graph_.WeightedDegree(v);
}

std::span<const InMessage> Engine::RtMessages(NodeId v) const {
  return inbox_[v];
}

void Engine::RtBroadcast(NodeId v, std::span<const double> p) {
  CheckPayloadLimit(payload_limit_, p.size(), /*broadcast=*/true);
  bcast_.Stage(v, p);
}

void Engine::RtSend(NodeId v, NodeId neighbor, Payload p) {
  CheckSendAdjacent(graph_.Neighbors(v), v, neighbor);
  CheckPayloadLimit(payload_limit_, p.size(), /*broadcast=*/false);
  outbox_[v].push_back(OutMessage{neighbor, std::move(p)});
}

util::Rng& Engine::RtRng(NodeId v) {
  EnsureNodeRng();
  return node_rng_[v];
}

void Engine::RtHalt(NodeId v) { halted_[v] = 1; }

Engine::Engine(const graph::Graph& g, int num_threads)
    : graph_(g),
      num_threads_(std::max(1, num_threads)),
      transport_(std::make_unique<SharedMemoryTransport>()) {
  const NodeId n = g.num_nodes();
  bcast_.Reset(n);
  frontier_.Reset(0, n);
  outbox_.resize(n);
  inbox_.resize(n);
  halted_.assign(n, 0);
}

Engine::~Engine() = default;

void Engine::SetSeed(std::uint64_t seed) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetSeed() must precede Start()");
  master_seed_ = seed;
}

void Engine::SetParallelCutoff(NodeId cutoff) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetParallelCutoff() must precede Start()");
  parallel_cutoff_ = cutoff;
}

void Engine::SetShardBalancing(bool enabled) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetShardBalancing() must precede Start()");
  balance_shards_ = enabled;
}

void Engine::SetRebalanceInterval(int rounds) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetRebalanceInterval() must precede Start()");
  KCORE_CHECK_MSG(rounds >= 0, "rebalance interval must be >= 0, got "
                                   << rounds);
  rebalance_every_ = rounds;
}

void Engine::SetTransport(std::unique_ptr<Transport> transport) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetTransport() must precede Start()");
  KCORE_CHECK_MSG(transport != nullptr, "SetTransport() needs a transport");
  transport_ = std::move(transport);
}

void Engine::SetRankCount(int ranks) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetRankCount() must precede Start()");
  KCORE_CHECK_MSG(ranks >= 1, "rank count must be >= 1, got " << ranks);
  num_ranks_ = ranks;
}

void Engine::SetPerRankCompute(bool enabled) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetPerRankCompute() must precede Start()");
  per_rank_compute_ = enabled;
}

void Engine::SetGraphPath(std::string path) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "SetGraphPath() must precede Start()");
  graph_path_ = std::move(path);
}

void Engine::BuildShardBounds() {
  const NodeId n = graph_.num_nodes();
  std::vector<std::uint64_t> weights(n);
  for (NodeId v = 0; v < n; ++v) {
    // One round touches a live node's slot once (the +1) and walks its
    // incident edges in both the compute update and the collect census /
    // broadcast fan-out (the degree). Halted nodes skip compute but are
    // still scanned by the collect sweep, so they keep unit weight.
    weights[v] =
        halted_[v] ? 1 : static_cast<std::uint64_t>(graph_.Degree(v)) + 1;
  }
  shard_bounds_ = ThreadPool::WeightedShardBounds(weights, pool_->num_shards());
  compute_chunks_ = ThreadPool::WeightedShardBounds(
      weights, pool_->num_shards() * kComputeChunksPerThread);
}

std::span<const std::uint64_t> Engine::ComputeChunks() {
  if (balance_shards_) return compute_chunks_;
  if (compute_chunks_.empty()) {
    const int chunks = pool_->num_shards() * kComputeChunksPerThread;
    const NodeId n = graph_.num_nodes();
    compute_chunks_.resize(static_cast<std::size_t>(chunks) + 1);
    for (int c = 0; c < chunks; ++c) {
      compute_chunks_[c] = ThreadPool::ShardBounds(0, n, c, chunks).first;
    }
    compute_chunks_[chunks] = n;
  }
  return compute_chunks_;
}

std::span<const std::uint64_t> Engine::ActiveBounds() {
  if (UseParallelPhases()) {
    if (balance_shards_) return shard_bounds_;
    if (equal_bounds_.empty()) {
      const int shards = pool_->num_shards();
      const NodeId n = graph_.num_nodes();
      equal_bounds_.resize(static_cast<std::size_t>(shards) + 1);
      for (int s = 0; s < shards; ++s) {
        equal_bounds_[s] = ThreadPool::ShardBounds(0, n, s, shards).first;
      }
      equal_bounds_[shards] = n;
    }
    return equal_bounds_;
  }
  // Sequential: the whole range is one shard.
  if (equal_bounds_.empty()) {
    equal_bounds_ = {0, graph_.num_nodes()};
  }
  return equal_bounds_;
}

void Engine::ForSharded(
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body) {
  pool_->ParallelFor(ActiveBounds(), body);
}

void Engine::EnsureNodeRng() {
  // First draw materializes every node's stream (concurrent first draws
  // from several shards block on the flag; later draws take the atomic
  // fast path). Streams are keyed forks of the master: which node
  // triggered construction cannot influence any stream.
  std::call_once(node_rng_once_, [this] {
    util::Rng master(master_seed_);
    node_rng_.reserve(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      node_rng_.push_back(master.ForkKeyed(v));
    }
  });
}

bool Engine::UseParallelPhases() const {
  // Graphs under the cutoff stay sequential: the dispatch barrier costs
  // more than the phases themselves.
  return num_threads_ > 1 && graph_.num_nodes() >= parallel_cutoff_;
}

void NodeRuntime::VisitRange(Protocol& p, int round, NodeId begin,
                             NodeId end, const graph::Graph& g,
                             BroadcastStore& store, Frontier& frontier,
                             const std::vector<char>& halted,
                             const std::vector<std::vector<OutMessage>>& outbox,
                             std::size_t list, const FanOutTable* fan,
                             RoundPartial& part) {
  frontier.Sweep(begin, end, [&](NodeId v) {
    // A halted node is visited once more, the round after it halts, to
    // settle its broadcast absent.
    if (!halted[v]) {
      NodeContext ctx = MakeContext(v, round, g.Neighbors(v), store);
      if (round == 0) {
        p.Init(ctx);
      } else {
        p.Round(ctx);
      }
      if (halted[v]) {
        ++part.halts;
        frontier.Wake(v);
      } else if (!SleepRequested(ctx)) {
        ++part.awake;
        frontier.Wake(v);
      }
      for (const OutMessage& m : outbox[v]) {
        ++part.p2p_messages;
        part.p2p_entries += m.payload.size();
        part.p2p_max_entries =
            std::max(part.p2p_max_entries, m.payload.size());
      }
    }
    if (store.Settle(v, list)) {
      part.tally.Change(v, g.Degree(v), store.Visible(v), store.Staged(v),
                        fan);
      if (frontier.pushing()) frontier.Push(g, v);
    }
  });
}

void NodeRuntime::WakeForNextRound(
    Frontier& frontier, const graph::Graph& g,
    std::span<const NodeId> delivered,
    const std::vector<std::vector<InMessage>>& inbox, bool any_p2p, NodeId lo,
    NodeId hi, std::size_t sleepers) {
  const bool pushed = frontier.pushing();
  if (pushed && sleepers > 0) {
    for (const NodeId u : delivered) frontier.Push(g, u);
    if (any_p2p) {
      for (NodeId v = lo; v < hi; ++v) {
        if (!inbox[v].empty()) frontier.Wake(v);
      }
    }
  }
  frontier.EndRound(/*push=*/sleepers > 0);
  // This round's changes woke nobody: visit every node once.
  if (!pushed && sleepers > 0) frontier.WakeAll();
}

std::size_t Engine::MergeCensus(RoundStats& stats) {
  // Chunk partials merge in chunk order; every merged quantity (sums,
  // maxes, the value counts) is independent of which thread ran which
  // chunk.
  std::size_t total_p2p = 0;
  std::size_t p2p_entries = 0;
  awake_next_ = 0;
  for (const RoundPartial& part : partials_) {
    census_.Merge(part.tally);
    max_entries_per_message_ = std::max(
        {max_entries_per_message_, part.tally.max_entries,
         part.p2p_max_entries});
    total_p2p += part.p2p_messages;
    p2p_entries += part.p2p_entries;
    num_halted_ += part.halts;
    awake_next_ += part.awake;
  }
  stats.messages = census_.messages + total_p2p;
  stats.entries = census_.entries + p2p_entries;
  stats.distinct_values = census_.values.size();
  stats.bcast_bytes_sent = census_.fanout_bytes;
  stats.bcast_bytes_received = census_.fanout_bytes;
  stats.bcast_bytes_per_neighbor = census_.neighbor_bytes;
  return total_p2p;
}

void Engine::CountP2pRows() {
  const NodeId n = graph_.num_nodes();
  const int shards = pool_->num_shards();
  p2p_offsets_.resize(static_cast<std::size_t>(shards) * n);
  shard_sent_.assign(shards, 0);
  // Sharded by SENDER over the round's partition. A shard's per-receiver
  // in-degree row spans ALL receivers (it counts by sender range), so it
  // must be re-zeroed before counting — but only when the range actually
  // staged p2p traffic. Shards that sent nothing (including empty
  // trailing shards, whose body never runs at all) leave their row
  // stale and their shard_sent_ flag 0, which is how the transport skips
  // stale rows.
  ForSharded([&](int shard, std::uint64_t b, std::uint64_t e) {
    bool any = false;
    for (std::uint64_t v = b; v < e && !any; ++v) {
      any = !outbox_[v].empty();
    }
    if (!any) return;
    std::uint32_t* row =
        p2p_offsets_.data() + static_cast<std::size_t>(shard) * n;
    std::fill(row, row + n, 0u);
    for (std::uint64_t v = b; v < e; ++v) {
      for (const OutMessage& m : outbox_[v]) ++row[m.to];
    }
    shard_sent_[shard] = 1;
  });
}

void Engine::CollectRound(int round) {
  RoundStats stats;
  stats.round = round;
  // Every node not halted when the round began, whether it ran or slept
  // (halting mid-round still counts the round it halted in).
  stats.active_nodes = graph_.num_nodes() - num_halted_;

  const bool parallel = UseParallelPhases();
  const std::size_t total_p2p = MergeCensus(stats);

  if (total_p2p == 0) {
    // No traffic staged this round: at most, last round's deliveries need
    // clearing. Broadcast-only protocols take this path every round and
    // never touch the transport.
    if (inboxes_dirty_) {
      if (parallel) {
        ForSharded([&](int, std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t u = b; u < e; ++u) inbox_[u].clear();
        });
      } else {
        for (auto& ib : inbox_) ib.clear();
      }
      inboxes_dirty_ = false;
    }
  } else {
    // Hand the staged traffic to the transport. The count rows and the
    // exchange share the round's partition (ActiveBounds), which the
    // count/offset contract depends on.
    if (parallel) CountP2pRows();
    const std::span<const std::uint64_t> bounds = ActiveBounds();
    ExchangeContext ctx;
    ctx.n = graph_.num_nodes();
    ctx.num_shards = static_cast<int>(bounds.size()) - 1;
    ctx.bounds = bounds.data();
    ctx.pool = parallel ? pool_.get() : nullptr;
    ctx.outbox = &outbox_;
    ctx.inbox = &inbox_;
    ctx.counts = parallel ? p2p_offsets_.data() : nullptr;
    ctx.shard_sent = parallel ? shard_sent_.data() : nullptr;
    ctx.num_ranks = num_ranks_;
    ctx.rank_bounds = rank_bounds_.data();
    const WireVolume wire = transport_->Exchange(ctx);
    stats.bytes_sent = wire.bytes_sent;
    stats.bytes_received = wire.bytes_received;
    inboxes_dirty_ = true;
  }

  PublishRound(total_p2p > 0);
  // Every p2p message staged this round sits in some inbox now, so the
  // round moved traffic iff total_p2p > 0.
  if (track_quiescence_) {
    changed_ = total_p2p > 0 || bcast_.PublishedDiffers();
  }

  history_.push_back(stats);
}

void Engine::PublishRound(bool delivered_p2p) {
  const std::size_t lists = bcast_.num_lists();
  if (lists > 1) {
    pool_->ParallelForDynamic(
        list_bounds_, [&](int, std::uint64_t begin, std::uint64_t end) {
          for (std::uint64_t l = begin; l < end; ++l) bcast_.ApplyChanges(l);
        });
    bcast_.EndPublish();
  } else {
    bcast_.Publish();
  }
  const NodeId n = graph_.num_nodes();
  WakeForNextRound(frontier_, graph_, {}, inbox_, delivered_p2p, 0, n,
                   n - num_halted_ - awake_next_);
}

void Engine::ComputePhase(Protocol& p, int round) {
  const NodeId n = graph_.num_nodes();
  // A state load since the last round (Protocol::WakeSleepers) may have
  // changed what a sleeping node's Round would stage: visit them all.
  const std::uint64_t generation = Protocol::SleepGeneration();
  if (generation != sleep_generation_) {
    sleep_generation_ = generation;
    frontier_.WakeAll();
  }
  const FanOutTable* fan = fan_.empty() ? nullptr : &fan_;
  if (!UseParallelPhases()) {
    partials_.resize(1);
    partials_[0].Clear();
    bcast_.SetLists(1);
    VisitRange(p, round, 0, n, graph_, bcast_, frontier_, halted_, outbox_, 0,
               fan, partials_[0]);
    return;
  }
  // Disjoint contiguous id chunks; per-node state writes never alias and
  // every chunk's census partial and change list are its own (merged in
  // chunk order), so this is race-free and bit-identical to the
  // sequential order whichever thread runs a chunk. The pool persists
  // across rounds — workers are created once per engine.
  if (!pool_) pool_ = std::make_unique<ThreadPool>(num_threads_);
  // Degree-weighted boundaries are built on the Start() sweep and
  // refreshed on the rebalance interval — always here, between rounds,
  // so the count rows and the exchange of a round share one fixed
  // partition (the count/offset delivery scheme depends on it).
  if (balance_shards_ &&
      (shard_bounds_.empty() ||
       (rebalance_every_ > 0 && round > 0 && round % rebalance_every_ == 0))) {
    BuildShardBounds();
  }
  const std::span<const std::uint64_t> chunks = ComputeChunks();
  const std::size_t num_chunks = chunks.size() - 1;
  partials_.resize(num_chunks);
  for (RoundPartial& part : partials_) part.Clear();
  bcast_.SetLists(num_chunks);
  if (list_bounds_.size() != num_chunks + 1) {
    list_bounds_.resize(num_chunks + 1);
    for (std::size_t l = 0; l <= num_chunks; ++l) list_bounds_[l] = l;
  }
  pool_->ParallelForDynamic(
      chunks, [&](int chunk, std::uint64_t begin, std::uint64_t end) {
        VisitRange(p, round, static_cast<NodeId>(begin),
                   static_cast<NodeId>(end), graph_, bcast_, frontier_, halted_,
                   outbox_, static_cast<std::size_t>(chunk), fan,
                   partials_[chunk]);
      });
}

void Engine::Start(Protocol& p) {
  KCORE_CHECK_MSG(round_ == 0 && history_.empty(),
                  "Start() must be the first call");
  // Rank-topology validation lives HERE, not in SetRankCount, because
  // only now are both sides known: every rank must own a non-empty node
  // slice (an empty slice would make rank_bounds ownership degenerate
  // and a per-rank worker with nothing to compute), so ranks are capped
  // by the node count. The one-node-zero-rank edge: an empty graph
  // still admits the trivial 1-rank topology.
  const NodeId n = graph_.num_nodes();
  KCORE_CHECK_MSG(
      static_cast<std::uint64_t>(num_ranks_) <= std::max<std::uint64_t>(n, 1),
      "rank count " << num_ranks_ << " exceeds the node count " << n
                    << " — every rank must own a non-empty node slice");
  // Rank topology: the equal-count ownership split, mirroring
  // ActiveBounds' equal-count construction but fixed for the whole run.
  // The transport's Start() hook runs BEFORE the first compute phase —
  // and therefore before the engine lazily creates its thread pool — so
  // a forking backend (ProcessTransport) forks while this engine has
  // spawned no threads.
  rank_bounds_.resize(static_cast<std::size_t>(num_ranks_) + 1);
  for (int r = 0; r < num_ranks_; ++r) {
    rank_bounds_[r] = ThreadPool::ShardBounds(0, n, r, num_ranks_).first;
  }
  rank_bounds_[num_ranks_] = n;
  // Room for a typical run's per-round stats up front, so steady-state
  // rounds do not reallocate the history (longer runs grow it amortized).
  history_.reserve(kHistoryReserve);
  if (num_ranks_ > 1 && !per_rank_compute_) {
    fan_.Build(graph_, rank_bounds_.data(), 0, n);
  }
  if (per_rank_compute_) {
    // Coordinator mode: arm the transport with everything the workers
    // need to own their slices (protocol for Save/LoadNodeState, graph
    // or its binio path for the slice, seed for the per-node RNG
    // streams, payload limit for the CONGEST checks), then fork and run
    // round 0 worker-side.
    KCORE_CHECK_MSG(transport_->SupportsRankCompute(),
                    "per-rank compute needs a transport that supports it; '"
                        << transport_->name() << "' does not");
    KCORE_CHECK_MSG(p.SupportsRankCompute(),
                    "per-rank compute needs a protocol implementing the "
                    "Save/LoadNodeState hooks");
    RankComputeSetup setup;
    setup.protocol = &p;
    setup.graph = &graph_;
    setup.graph_path = graph_path_;
    setup.seed = master_seed_;
    setup.payload_limit = payload_limit_;
    setup.track_quiescence = track_quiescence_;
    transport_->PrepareRankCompute(setup);
    transport_->Start(n, num_ranks_, rank_bounds_.data());
    RankRound(0);
    return;
  }
  transport_->Start(n, num_ranks_, rank_bounds_.data());
  ComputePhase(p, 0);
  CollectRound(0);
}

void Engine::RankRound(int round) {
  const RankRoundResult r = transport_->RankStep(round);
  RoundStats stats;
  stats.round = round;
  stats.active_nodes = r.active_nodes;
  stats.messages = r.messages;
  stats.entries = r.entries;
  stats.distinct_values = r.distinct_values;
  stats.bytes_sent = r.bytes_sent;
  stats.bytes_received = r.bytes_received;
  stats.bcast_bytes_sent = r.bcast_bytes_sent;
  stats.bcast_bytes_received = r.bcast_bytes_received;
  stats.bcast_bytes_per_neighbor = r.bcast_bytes_per_neighbor;
  max_entries_per_message_ = std::max(max_entries_per_message_, r.max_entries);
  rank_num_halted_ = r.num_halted;
  changed_ = r.changed;
  history_.push_back(stats);
}

RoundStats Engine::Step(Protocol& p) {
  const int round = ++round_;
  if (per_rank_compute_) {
    RankRound(round);
    return history_.back();
  }
  ComputePhase(p, round);
  CollectRound(round);
  return history_.back();
}

void Engine::FetchRankState(Protocol& p) {
  if (!per_rank_compute_) return;
  KCORE_CHECK_MSG(!history_.empty(), "FetchRankState() before Start()");
  // The transport hook fills per-node vectors; load them into the
  // visible slots (once per fetch, not per round).
  const NodeId n = graph_.num_nodes();
  std::vector<Payload> bcast(n);
  std::vector<char> has(n, 0);
  transport_->CollectRankState(p, bcast, has, halted_);
  for (NodeId v = 0; v < n; ++v) {
    if (has[v]) {
      const std::span<double> dst = bcast_.ClaimVisible(v, bcast[v].size());
      std::copy(bcast[v].begin(), bcast[v].end(), dst.begin());
    } else {
      bcast_.ClearVisible(v);
    }
  }
}

void Engine::Run(Protocol& p, int rounds) {
  Start(p);
  for (int t = 0; t < rounds; ++t) Step(p);
}

int Engine::RunUntilQuiescent(Protocol& p, int max_rounds) {
  // Every round records whether it changed anything (changed_; see
  // track_quiescence_). Under per-rank compute each worker reports its
  // slice and the coordinator ORs them — slices partition the nodes, so
  // that is exactly the in-engine predicate. The flag must be set before
  // Start(), which ships it to the workers in the init frame.
  track_quiescence_ = true;
  Start(p);
  int executed = 0;
  while (executed < max_rounds) {
    Step(p);
    ++executed;
    if (!changed_) return executed;
  }
  return executed;
}

Totals Engine::totals() const {
  Totals t;
  t.rounds = round_;
  for (const RoundStats& r : history_) {
    t.messages += r.messages;
    t.entries += r.entries;
    t.bytes_sent += r.bytes_sent;
    t.bytes_received += r.bytes_received;
    t.bcast_bytes_sent += r.bcast_bytes_sent;
    t.bcast_bytes_received += r.bcast_bytes_received;
    t.bcast_bytes_per_neighbor += r.bcast_bytes_per_neighbor;
  }
  t.max_entries_per_message = max_entries_per_message_;
  return t;
}

std::size_t Engine::num_halted() const {
  // Coordinator mode: the workers own the halted flags; their summed
  // slice counts from the last round's reports are the live answer
  // (halted_ itself only syncs on FetchRankState).
  if (per_rank_compute_ && !history_.empty()) return rank_num_halted_;
  return num_halted_;
}

}  // namespace kcore::distsim
