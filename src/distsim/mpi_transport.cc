// Experimental MPI flavor of the process transport (built only with
// -DKCORE_WITH_MPI=ON; see process_transport.h for the design it
// mirrors). The hub/worker architecture is IDENTICAL to the socketpair
// backend — the engine runs on MPI rank 0, ships every worker rank its
// framed send buffer, the ranks exchange packed per-(src, dst) segments
// collectively, and the combined receive buffers travel back to rank 0
// for the unpack — with the transport legs swapped:
//
//   parent->worker frame (opcode/counts/displs/payload)  ->  MPI_Send
//   worker<->worker socketpair alltoallv                 ->  MPI_Alltoallv
//   worker->parent reply (counts/segments)               ->  MPI_Send
//
// Deployment contract: mpirun launches the SAME binary on every rank;
// rank 0 builds the graph and the engine (with
// Engine::SetRankCount(world_size) and this transport), every other
// rank calls MpiTransportWorkerMain() right after MPI_Init and exits
// with its return value. The segment encoding and ordering invariants
// are exactly ProcessTransport's, so the conformance contract carries
// over unchanged; this file is compile-gated and NOT exercised by the
// default test suite (the container has no MPI toolchain), hence
// "experimental" — treat it as a worked example of porting the frame
// protocol onto a real collective, and validate with the conformance
// battery under mpirun before relying on it (CI runs tools/mpi_smoke
// under mpirun -np 4 when the toolchain is present).
//
// Per-rank compute (Engine::SetPerRankCompute) is NOT supported here:
// this backend stays a byte shuttle — the compute phase runs on rank 0
// and only packed segments cross ranks. SupportsRankCompute() is left
// at the base-class default (false), so an engine configured for
// per-rank compute on this transport fails loudly at Start() instead
// of silently computing on the hub. Porting it means replaying
// ProcessTransport's INIT/STEP/COLL frames over MPI_Send and running
// SliceRuntime (process_transport.cc) inside each rank's receive loop.
#include "distsim/process_transport.h"

#ifdef KCORE_WITH_MPI

#include <mpi.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/wire.h"

namespace kcore::distsim {

namespace {

using graph::NodeId;

constexpr int kTagFrame = 71;
constexpr int kTagReply = 72;

// MPI_Send/Recv with the same null-buffer guard CheckedAlltoallv needs:
// pedantic implementations reject a null pointer even for zero counts,
// and an empty std::vector's data() is null.
int SendBytes(const std::vector<std::uint8_t>& buf, int dst, int tag) {
  static std::uint8_t dummy = 0;
  const void* p = buf.empty() ? &dummy : buf.data();
  return MPI_Send(p, static_cast<int>(buf.size()), MPI_BYTE, dst, tag,
                  MPI_COMM_WORLD);
}

int RecvBytes(std::vector<std::uint8_t>& buf, int src, int tag) {
  static std::uint8_t dummy = 0;
  void* p = buf.empty() ? &dummy : buf.data();
  MPI_Status st;
  return MPI_Recv(p, static_cast<int>(buf.size()), MPI_BYTE, src, tag,
                  MPI_COMM_WORLD, &st);
}

// Round/shutdown control travels as one broadcast int so every rank
// leaves its receive loop together.
enum MpiOp : int { kMpiRound = 1, kMpiShutdown = 2 };

void CheckedAlltoallv(const std::vector<std::uint8_t>& send,
                      const std::vector<int>& send_counts,
                      const std::vector<int>& send_displ,
                      std::vector<std::uint8_t>& recv,
                      const std::vector<int>& recv_counts,
                      const std::vector<int>& recv_displ) {
  // MPI_Alltoallv rejects null buffers on some implementations even for
  // zero counts; keep one live byte around.
  static std::uint8_t dummy = 0;
  const void* sb = send.empty() ? &dummy : send.data();
  void* rb = recv.empty() ? &dummy : recv.data();
  KCORE_CHECK_MSG(
      MPI_Alltoallv(sb, send_counts.data(), send_displ.data(), MPI_BYTE, rb,
                    recv_counts.data(), recv_displ.data(),
                    MPI_BYTE, MPI_COMM_WORLD) == MPI_SUCCESS,
      "MPI_Alltoallv failed");
}

// The R x R segment-byte matrix is broadcast so every rank can derive
// both its send row and its receive column — the counts/displacements
// an alltoallv needs on both sides.
void BcastSegBytes(std::vector<std::uint64_t>& seg_bytes, int R) {
  seg_bytes.resize(static_cast<std::size_t>(R) * R);
  KCORE_CHECK_MSG(MPI_Bcast(seg_bytes.data(), R * R, MPI_UINT64_T, 0,
                            MPI_COMM_WORLD) == MPI_SUCCESS,
                  "MPI_Bcast of the segment matrix failed");
}

void RowsToIntCounts(const std::vector<std::uint64_t>& seg_bytes, int R,
                     int rank, std::vector<int>& send_counts,
                     std::vector<int>& send_displ,
                     std::vector<int>& recv_counts,
                     std::vector<int>& recv_displ) {
  send_counts.assign(R, 0);
  send_displ.assign(R, 0);
  recv_counts.assign(R, 0);
  recv_displ.assign(R, 0);
  // MPI_Alltoallv takes int counts AND int displacements, so the
  // running totals are bounded too — sum in 64 bits and check both, or
  // a >2 GiB per-rank round would hand the collective garbage displs.
  std::int64_t srun = 0, rrun = 0;
  for (int d = 0; d < R; ++d) {
    const std::uint64_t out = seg_bytes[static_cast<std::size_t>(rank) * R + d];
    const std::uint64_t in = seg_bytes[static_cast<std::size_t>(d) * R + rank];
    KCORE_CHECK_MSG(out <= INT32_MAX && in <= INT32_MAX,
                    "segment exceeds MPI_Alltoallv's int counts");
    KCORE_CHECK_MSG(srun <= INT32_MAX && rrun <= INT32_MAX,
                    "per-rank round volume exceeds MPI_Alltoallv's int "
                    "displacements");
    send_counts[d] = static_cast<int>(out);
    send_displ[d] = static_cast<int>(srun);
    srun += send_counts[d];
    recv_counts[d] = static_cast<int>(in);
    recv_displ[d] = static_cast<int>(rrun);
    rrun += recv_counts[d];
  }
  KCORE_CHECK_MSG(srun <= INT32_MAX && rrun <= INT32_MAX,
                  "per-rank round volume exceeds MPI_Alltoallv's int range");
}

class MpiTransport final : public Transport {
 public:
  const char* name() const override { return "mpi"; }

  void Start(NodeId n, int num_ranks,
             const std::uint64_t* rank_bounds) override {
    int initialized = 0;
    MPI_Initialized(&initialized);
    KCORE_CHECK_MSG(initialized, "MpiTransport requires MPI_Init first");
    int world = 0, self = 0;
    MPI_Comm_size(MPI_COMM_WORLD, &world);
    MPI_Comm_rank(MPI_COMM_WORLD, &self);
    KCORE_CHECK_MSG(self == 0, "the engine must run on MPI rank 0");
    KCORE_CHECK_MSG(world == num_ranks,
                    "Engine::SetRankCount(" << num_ranks
                        << ") != MPI world size " << world);
    n_ = n;
    num_ranks_ = num_ranks;
    rank_bounds_.assign(rank_bounds, rank_bounds + num_ranks + 1);
    started_ = true;
  }

  ~MpiTransport() override { Shutdown(); }

  void Shutdown() {
    if (!started_ || shutdown_) return;
    shutdown_ = true;
    int op = kMpiShutdown;
    MPI_Bcast(&op, 1, MPI_INT, 0, MPI_COMM_WORLD);
  }

  WireVolume Exchange(const ExchangeContext& ctx) override {
    KCORE_CHECK_MSG(started_ && !shutdown_, "Exchange outside Start..Shutdown");
    KCORE_CHECK_MSG(ctx.num_ranks == num_ranks_, "rank topology changed");
    auto& outbox = *ctx.outbox;
    auto& inbox = *ctx.inbox;
    const int R = num_ranks_;
    const std::uint64_t* rb = rank_bounds_.data();

    // Count + pack — the hub-side orchestration shared with the
    // socketpair backend (PackRankBuffers in process_transport.cc).
    const std::uint64_t total_bytes =
        PackRankBuffers(rb, R, outbox, seg_bytes_, send_displ_, send_buf_,
                        seg_writers_);

    // Control + counts to everyone, then each worker rank its buffer.
    int op = kMpiRound;
    MPI_Bcast(&op, 1, MPI_INT, 0, MPI_COMM_WORLD);
    BcastSegBytes(seg_bytes_, R);
    for (int r = 1; r < R; ++r) {
      KCORE_CHECK_MSG(SendBytes(send_buf_[r], r, kTagFrame) == MPI_SUCCESS,
                      "MPI_Send of rank " << r << "'s send buffer failed");
    }

    // Rank 0 participates in the collective with its own row/column.
    std::vector<int> sc, sd, rc, rd;
    RowsToIntCounts(seg_bytes_, R, 0, sc, sd, rc, rd);
    std::uint64_t col0 = 0;
    for (int s = 0; s < R; ++s) {
      col0 += seg_bytes_[static_cast<std::size_t>(s) * R];
    }
    recv_buf_.resize(R);
    recv_buf_[0].resize(col0);
    CheckedAlltoallv(send_buf_[0], sc, sd, recv_buf_[0], rc, rd);

    // Collect the other ranks' combined receive buffers.
    for (int r = 1; r < R; ++r) {
      std::uint64_t col = 0;
      for (int s = 0; s < R; ++s) {
        col += seg_bytes_[static_cast<std::size_t>(s) * R + r];
      }
      recv_buf_[r].resize(col);
      KCORE_CHECK_MSG(RecvBytes(recv_buf_[r], r, kTagReply) == MPI_SUCCESS,
                      "MPI_Recv of rank " << r << "'s receive buffer failed");
    }

    // Unpack — the shared hub-side orchestration again. DecodeSegment
    // audits every segment's structure; the decoded total equals
    // total_bytes by construction (buffers were sized from seg_bytes_).
    ClearAndReserveInboxes(ctx, 0, n_);
    const std::uint64_t received =
        UnpackRankBuffers(rb, R, seg_bytes_, recv_buf_, inbox);
    return WireVolume{static_cast<std::size_t>(total_bytes),
                      static_cast<std::size_t>(received)};
  }

 private:
  NodeId n_ = 0;
  int num_ranks_ = 0;
  bool started_ = false;
  bool shutdown_ = false;
  std::vector<std::uint64_t> rank_bounds_;
  std::vector<std::uint64_t> seg_bytes_;
  std::vector<std::uint64_t> send_displ_;
  std::vector<std::vector<std::uint8_t>> send_buf_, recv_buf_;
  std::vector<util::WireWriter> seg_writers_;
};

}  // namespace

std::unique_ptr<Transport> MakeMpiTransport() {
  return std::make_unique<MpiTransport>();
}

int MpiTransportWorkerMain() {
  int world = 0, self = 0;
  MPI_Comm_size(MPI_COMM_WORLD, &world);
  MPI_Comm_rank(MPI_COMM_WORLD, &self);
  KCORE_CHECK_MSG(self != 0, "rank 0 drives the engine, not the worker loop");
  const int R = world;
  std::vector<std::uint64_t> seg_bytes;
  std::vector<std::uint8_t> send_buf, recv_buf;
  std::vector<int> sc, sd, rc, rd;
  for (;;) {
    int op = 0;
    if (MPI_Bcast(&op, 1, MPI_INT, 0, MPI_COMM_WORLD) != MPI_SUCCESS) {
      return 1;
    }
    if (op == kMpiShutdown) return 0;
    if (op != kMpiRound) return 1;
    BcastSegBytes(seg_bytes, R);
    RowsToIntCounts(seg_bytes, R, self, sc, sd, rc, rd);
    std::uint64_t out = 0, in = 0;
    for (int d = 0; d < R; ++d) {
      out += static_cast<std::uint64_t>(sc[d]);
      in += static_cast<std::uint64_t>(rc[d]);
    }
    send_buf.resize(out);
    recv_buf.resize(in);
    if (RecvBytes(send_buf, 0, kTagFrame) != MPI_SUCCESS) return 1;
    CheckedAlltoallv(send_buf, sc, sd, recv_buf, rc, rd);
    if (SendBytes(recv_buf, 0, kTagReply) != MPI_SUCCESS) return 1;
  }
}

}  // namespace kcore::distsim

#endif  // KCORE_WITH_MPI
