// True multi-process transport backend: fork + alltoallv over
// Unix-domain socketpairs.
//
// SerializedTransport (transport.h) proves the MPI-shaped
// pack/alltoallv/unpack contract inside one address space;
// ProcessTransport is the same contract with the address-space boundary
// made real. Start() forks one WORKER PROCESS per rank; every round's
// staged point-to-point traffic crosses three genuine process
// boundaries before any of it reaches an inbox:
//
//     engine (parent)                 workers (one per rank)
//     ---------------                 ----------------------
//     pack per-(src,dst) segments
//     frame -> rank r  ------------>  worker r reads its send buffer
//                                     workers exchange (src,dst)
//                                     segments peer-to-peer over
//                                     socketpairs (the alltoallv)
//     unpack inboxes   <------------  worker r returns the segments
//                                     addressed to rank r, src-ordered
//
// Nothing on the unpack path reads parent memory the workers could have
// shared: inboxes are rebuilt exclusively from bytes that came back off
// the sockets, so a framing or routing bug cannot be masked by the
// fork's copy-on-write pages. The frame layout (count row, then
// displacement row, then contiguous payload — util::Wire fixed64 rows
// around the exact segment encoding SerializedTransport pins) is
// documented byte-for-byte in docs/TRANSPORTS.md.
//
// Ranks vs shards: the rank partition (ExchangeContext::rank_bounds,
// plumbed from Engine::SetRankCount) is fixed for the whole run and
// independent of the per-round thread shards — an 8-thread engine can
// exchange over 2 ranks or a sequential engine over 8. Segment order
// (ascending src rank, ascending sender id within a segment) makes the
// unpacked inboxes sender-id-sorted, bit-identical to the sequential
// shared-memory delivery; WireMessageBytes keeps the reported wire
// volume byte-identical to SerializedTransport's at any topology.
//
// Lifecycle: workers are forked by Start() — before the engine spawns
// its thread pool — and torn down by Shutdown() (idempotent, also run
// by the destructor): each worker gets a shutdown frame, its socket is
// closed, and it is reaped with waitpid. A worker that dies mid-run
// surfaces as a KCORE_CHECK failure naming the rank and its wait status
// on the next frame the parent moves (EPIPE/EOF on the socketpair), not
// as a hang. Workers exit via _exit so they never run the parent's
// destructors or flush its stdio buffers.
//
// KCORE_WITH_MPI (CMake option) additionally builds the experimental
// MPI flavor of this design — same hub/worker framing with the
// socketpair legs replaced by MPI point-to-point messages and the peer
// exchange by MPI_Alltoallv; see mpi_transport.cc.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "distsim/transport.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/u64_set.h"
#include "util/wire.h"

namespace kcore::distsim {

class ProcessTransport final : public Transport {
 public:
  ProcessTransport() = default;
  // Tears the workers down (Shutdown()).
  ~ProcessTransport() override;

  ProcessTransport(const ProcessTransport&) = delete;
  ProcessTransport& operator=(const ProcessTransport&) = delete;

  const char* name() const override { return "process"; }

  // Forks num_ranks workers and wires the socketpair topology: one
  // parent<->worker pair per rank plus one pair per unordered worker
  // pair. Called exactly once by Engine::Start() while the engine is
  // still single-threaded. KCORE_CHECK-fails if the topology cannot be
  // built (TryStart is the non-aborting flavor).
  void Start(graph::NodeId n, int num_ranks,
             const std::uint64_t* rank_bounds) override;

  // Non-aborting topology construction: returns false (and fills
  // *error) when a socketpair() or fork() fails mid-topology — after
  // closing every fd created so far and killing + reaping every worker
  // already forked, so a failed start leaks neither descriptors nor
  // zombie children and the transport can be started again (or
  // discarded) cleanly.
  bool TryStart(graph::NodeId n, int num_ranks,
                const std::uint64_t* rank_bounds, std::string* error);

  // Test-only fault injection for the startup failure path: the nth
  // (1-based) resource allocation of the next TryStart/Start —
  // socketpair() and fork() calls counted together in call order —
  // fails with a synthetic EMFILE. One-shot: disarms when it fires;
  // pass 0 to disarm manually. Not thread-safe (tests only).
  static void InjectStartFault(int nth);

  // Per-rank compute (Engine::SetPerRankCompute): Start() forks workers
  // that own their node slice end to end — slice graph (wire-serialized
  // from the setup's Graph, or loaded worker-side via LoadBinarySlice
  // when graph_path is set), per-node protocol state
  // (Protocol::Save/LoadNodeState), and per-node RNG streams rebuilt
  // from the master seed. Each RankStep drives one synchronous round:
  // workers run the compute phase over their slice, exchange p2p
  // segments AND the once-per-neighbor-owning-rank broadcast fan-out
  // (only the broadcasts that changed, plus tombstones; receivers carry
  // the rest) over the same peer socketpairs, and return RoundStats
  // partials the parent merges in fixed rank order. The init/step/collect frame
  // layouts are tabulated in docs/TRANSPORTS.md.
  bool SupportsRankCompute() const override { return true; }
  void PrepareRankCompute(const RankComputeSetup& setup) override;
  RankRoundResult RankStep(int round) override;
  void CollectRankState(Protocol& p, std::vector<Payload>& prev_bcast,
                        std::vector<char>& prev_has,
                        std::vector<char>& halted) override;

  // One round's exchange: pack by (src rank, dst rank), ship every src
  // rank its framed send buffer, let the workers run the socketpair
  // alltoallv, read each dst rank's combined receive buffer back, and
  // deserialize into sender-id-sorted inboxes. Reports the packed
  // segment bytes as sent and the decoded bytes as received (equal by
  // construction, byte-identical to SerializedTransport's accounting).
  WireVolume Exchange(const ExchangeContext& ctx) override;

  // Sends every live worker a shutdown frame, closes the sockets, and
  // reaps the workers. Idempotent; returns true iff every worker exited
  // cleanly (status 0). The destructor calls this, so tests only need it
  // to assert teardown explicitly.
  bool Shutdown();

  // Per-rank compute: the broadcast fan-out bytes the workers actually
  // wrote to their peers since Start — records and tombstones for the
  // broadcasts that changed. RoundStats::bcast_bytes_sent keeps the
  // model count instead (every broadcast, every round), which the
  // conformance battery pins equal to the in-engine census.
  std::uint64_t bcast_bytes_shipped() const { return bcast_bytes_shipped_; }

  // Introspection for lifecycle tests and diagnostics.
  bool started() const { return started_; }
  int num_workers() const { return static_cast<int>(pids_.size()); }
  pid_t worker_pid(int rank) const { return pids_[rank]; }

 private:
  // KCORE_CHECK-fails with the rank's wait status after an EPIPE/EOF on
  // its socket. Never returns.
  [[noreturn]] void ReportDeadWorker(int rank, const char* stage);

  // Builds and ships every rank its init frame (per-rank compute only):
  // seed, limits, rank bounds, graph slice (wire edges or binio path),
  // and the per-owned-node protocol state blocks — one frame at a time,
  // from edge owners looked up once for all ranks.
  void SendRankInitFrames();

  graph::NodeId n_ = 0;
  int num_ranks_ = 0;
  std::vector<std::uint64_t> rank_bounds_;
  // Topology state: written by Start() while the engine is still
  // single-threaded, mutated afterwards only from the engine thread
  // (Exchange/ReportDeadWorker/Shutdown are same-thread by contract) —
  // not lock-protected by design.
  std::vector<pid_t> pids_;
  std::vector<int> parent_fd_;  // parent's end of each worker's pair
  bool started_ = false;

  // Teardown serialization: Shutdown() can be reached twice — an
  // explicit test/owner call racing the destructor — so the idempotence
  // check-and-set and the reap loop run under teardown_mu_; the second
  // caller blocks until the first finishes and then sees its verdict.
  util::Mutex teardown_mu_;
  bool shutdown_ KCORE_GUARDED_BY(teardown_mu_) = false;
  bool clean_shutdown_ KCORE_GUARDED_BY(teardown_mu_) = false;

  // Pack/unpack scratch, persistent across rounds (vectors only grow).
  std::vector<std::uint64_t> seg_bytes_;   // [src * R + dst] byte counts
  std::vector<std::uint64_t> send_displ_;  // [src * (R+1)] prefix sums
  std::vector<std::vector<std::uint8_t>> send_buf_;  // one per src rank
  std::vector<std::vector<std::uint8_t>> recv_buf_;  // one per dst rank
  std::vector<util::WireWriter> seg_writers_;        // one per dst rank
  std::vector<std::uint8_t> frame_;       // outgoing frame-header scratch
  std::vector<std::uint8_t> reply_rows_;  // incoming reply-row scratch

  // Per-rank compute state: armed by PrepareRankCompute before Start()
  // forks (so workers inherit the setup — and through it the protocol
  // object — copy-on-write; the authoritative per-node state still
  // crosses the socket in the init frames).
  bool rank_compute_ = false;
  RankComputeSetup rank_setup_;
  std::vector<std::uint8_t> body_;   // frame-body scratch (init/step/collect)
  std::vector<std::uint8_t> reply_;  // worker reply-body scratch
  util::U64Set distinct_;            // RankStep's distinct-value union
  std::uint64_t bcast_bytes_shipped_ = 0;
};

// Hub-side orchestration shared by the socketpair and MPI flavors
// (both pack the engine's outboxes the same way before their exchange
// legs diverge; built unconditionally so the compile-gated MPI file
// cannot drift from the tested path).

// Counts and packs every staged message into one contiguous buffer per
// src rank (segments in ascending dst-rank order, sender-ordered within
// a segment — the shared codec of transport.h). Fills seg_bytes
// ([src * R + dst] counts), send_displ ([src * (R+1)] prefix rows, the
// alltoallv sdispls), and send_buf (one buffer per src rank); consumes
// the outboxes. Returns the total packed bytes. `seg` is the caller's
// segment-writer scratch, kept so rounds do not reallocate it.
std::uint64_t PackRankBuffers(
    const std::uint64_t* rank_bounds, int num_ranks,
    std::vector<std::vector<OutMessage>>& outbox,
    std::vector<std::uint64_t>& seg_bytes,
    std::vector<std::uint64_t>& send_displ,
    std::vector<std::vector<std::uint8_t>>& send_buf,
    std::vector<util::WireWriter>& seg);

// Decodes every dst rank's combined receive buffer (segments in
// ascending src-rank order, lengths from seg_bytes) into the inboxes,
// which the caller must have cleared. Returns the total decoded bytes
// (== PackRankBuffers' return for a lossless exchange).
std::uint64_t UnpackRankBuffers(
    const std::uint64_t* rank_bounds, int num_ranks,
    const std::vector<std::uint64_t>& seg_bytes,
    const std::vector<std::vector<std::uint8_t>>& recv_buf,
    std::vector<std::vector<InMessage>>& inbox);

#ifdef KCORE_WITH_MPI
// Experimental MPI flavor (mpi_transport.cc, built only with
// -DKCORE_WITH_MPI=ON): the engine runs on MPI rank 0 and uses
// MPI_Alltoallv across MPI_COMM_WORLD in place of the socketpair peer
// exchange. Every rank except 0 must call MpiTransportWorkerMain()
// after MPI_Init and exit with its return value.
std::unique_ptr<Transport> MakeMpiTransport();
int MpiTransportWorkerMain();
#endif

}  // namespace kcore::distsim
