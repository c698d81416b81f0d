// Persistent worker pool for the round scheduler.
//
// The simulator executes the compute phase of every synchronous round as a
// parallel-for over node ids. Spawning std::threads per round costs more
// than the compute phase itself on small graphs (thread creation is
// ~10-50us each; a round over 100k light nodes is comparable), so the
// pool keeps its workers alive across rounds and hands them one statically
// partitioned shard per ParallelFor call — or, for ParallelForDynamic,
// many small chunks that idle threads claim, so a thread the OS delays
// does not hold up the barrier with a fixed share.
//
// Determinism contract: the shard for a given (range, shard index) is a
// fixed contiguous id interval, independent of scheduling order. Callers
// guarantee disjoint writes per id, so results are bit-identical to a
// sequential sweep no matter how the OS interleaves the workers. The
// contract holds for ANY ascending contiguous partition, not just the
// equal-count one — the bounded ParallelFor/ParallelReduce overloads
// accept caller-precomputed boundaries (e.g. WeightedShardBounds, which
// equalizes per-shard cost on skewed inputs) and keep the same guarantee.
// How the pool slots into the engine's round pipeline (and how thread
// shards relate to the transport layer's rank partition) is mapped in
// docs/ARCHITECTURE.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "util/function_ref.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace kcore::distsim {

class ThreadPool {
 public:
  // Total parallelism including the calling thread: `num_threads` >= 1
  // means num_threads - 1 background workers plus the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of shards every ParallelFor splits into (caller + workers).
  int num_shards() const { return static_cast<int>(workers_.size()) + 1; }

  // Splits [begin, end) into num_shards() equal contiguous chunks and
  // runs body(chunk_begin, chunk_end) on each, one chunk per thread.
  // Blocks until every chunk finishes. The caller executes shard 0, so a
  // single-shard pool degenerates to a plain loop with zero locking.
  // If body throws on any shard the pool drains (all shards finish or
  // fail), then one of the exceptions is rethrown here on the caller's
  // thread; the pool stays usable afterwards.
  void ParallelFor(
      std::uint64_t begin, std::uint64_t end,
      util::FunctionRef<void(std::uint64_t, std::uint64_t)> body);

  // Shard-indexed variant: body(shard, chunk_begin, chunk_end) — the same
  // static partition, with the shard index exposed so each chunk can use
  // shard-private scratch (offset rows, partial buffers) without a merge.
  void ParallelFor(
      std::uint64_t begin, std::uint64_t end,
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body);

  // Sharded map-reduce. Like ParallelFor, but body also receives its shard
  // index so each shard can accumulate partials into a slot the caller
  // owns; after the barrier, merge(shard) runs on the caller's thread for
  // every shard in ascending order. The fixed merge order is the
  // determinism hook: order-sensitive reductions (floating-point sums,
  // container concatenation) come out identical at any thread count.
  // merge is skipped entirely when the range is empty, and is not run if
  // any body shard threw (the exception is rethrown first).
  void ParallelReduce(
      std::uint64_t begin, std::uint64_t end,
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body,
      util::FunctionRef<void(int)> merge);

  // Bounded variants: run over a caller-precomputed partition instead of
  // the equal-count split. `bounds` must be ascending with exactly
  // num_shards() + 1 entries; shard s executes [bounds[s], bounds[s+1])
  // (empty shards allowed — their body is skipped). Everything else —
  // barrier, exception drain, merge-in-shard-order — matches the
  // range-based overloads, so swapping partitions cannot change results,
  // only per-shard load.
  void ParallelFor(
      std::span<const std::uint64_t> bounds,
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body);
  void ParallelReduce(
      std::span<const std::uint64_t> bounds,
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body,
      util::FunctionRef<void(int)> merge);

  // Dynamic variant: `chunks` is an ascending partition with at least two
  // entries, usually many more chunks than threads. Thread t (the caller
  // is thread 0) first runs chunk t, then claims the next unclaimed chunk,
  // until none is left; running chunk c calls body(c, chunks[c],
  // chunks[c + 1]) (empty chunks are skipped). So a thread the OS delays,
  // or whose core another process shares, ends up with fewer chunks
  // instead of holding the barrier with a fixed share, while every thread
  // still runs at least one chunk per call (per-thread scratch a body
  // grows on its first chunk is warm after the first call). Which thread
  // runs chunk c >= num_shards() depends on timing, so a body indexes its
  // accumulators by chunk and the caller merges them in chunk order.
  // Barrier and exception drain match ParallelFor.
  void ParallelForDynamic(
      std::span<const std::uint64_t> chunks,
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body);

  // The contiguous chunk [begin, end) is split into for a given shard —
  // pure arithmetic, exposed so callers and tests can pin the static
  // partition the determinism contract rests on. Returns an empty range
  // (b == e) for shards past the end of a short range.
  static std::pair<std::uint64_t, std::uint64_t> ShardBounds(
      std::uint64_t begin, std::uint64_t end, int shard, int num_shards);

  // Weighted partition of [0, weights.size()): boundaries (num_shards + 1
  // entries, bounds[0] == 0, bounds.back() == weights.size(), ascending)
  // chosen greedily so each shard carries approximately its fair share of
  // the total weight. Each shard's target is a fair share of the weight
  // REMAINING after the earlier shards closed, and an item that would
  // overshoot the target joins the shard only if that lands closer to it
  // than stopping short — so a hub whose weight dwarfs the average ends
  // up alone in its own shard (wherever its id falls) while the later
  // shards re-split the rest instead of coming out empty. All-zero
  // weights fall back to the equal-count split. Feed the result to the
  // bounded ParallelFor/ParallelReduce overloads above.
  static std::vector<std::uint64_t> WeightedShardBounds(
      std::span<const std::uint64_t> weights, int num_shards);

 private:
  // Runs body sharded over [begin, end) and blocks until the barrier;
  // rethrows the first shard failure. Shared by ParallelFor/Reduce.
  // `bounds` (nullable) overrides the equal-count split with explicit
  // per-shard boundaries (num_shards() + 1 entries).
  // `num_chunks` > 0 makes `bounds` a chunk list (num_chunks + 1
  // entries) claimed dynamically instead of one boundary per shard.
  void Dispatch(
      std::uint64_t begin, std::uint64_t end, const std::uint64_t* bounds,
      util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body,
      std::size_t num_chunks = 0);
  // KCORE_CHECKs the bounded-overload contract (size, monotonicity).
  void CheckBounds(std::span<const std::uint64_t> bounds) const;
  void WorkerLoop(int shard);
  // Reads the job descriptor fields lock-free: they are published under
  // mu_ before generation_ is bumped (Dispatch) and stay frozen until
  // pending_ drains, and a worker only gets here after observing the
  // new generation under mu_ — the mutex release/acquire pair is the
  // happens-before edge. The analysis cannot express that protocol, so
  // the function opts out rather than taking a redundant lock on the
  // hot path.
  void RunShard(int shard) KCORE_NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::thread> workers_;

  util::Mutex mu_;
  std::condition_variable work_cv_;   // signals a new generation
  std::condition_variable done_cv_;   // signals pending_ hit zero
  std::uint64_t generation_ KCORE_GUARDED_BY(mu_) = 0;  // bumped per job
  int pending_ KCORE_GUARDED_BY(mu_) = 0;  // workers still in this job
  bool stop_ KCORE_GUARDED_BY(mu_) = false;

  // First exception a worker shard raised this job (rethrown by
  // ParallelFor after the drain).
  std::exception_ptr error_ KCORE_GUARDED_BY(mu_);

  // Current job descriptor: written under mu_ by Dispatch, read
  // lock-free by RunShard under the generation protocol above, cleared
  // under mu_ by the drain.
  const util::FunctionRef<void(int, std::uint64_t, std::uint64_t)>* body_
      KCORE_GUARDED_BY(mu_) = nullptr;
  std::uint64_t job_begin_ KCORE_GUARDED_BY(mu_) = 0;
  std::uint64_t job_end_ KCORE_GUARDED_BY(mu_) = 0;
  // Explicit per-shard boundaries for the current job (bounded
  // overloads); null means the equal-count ShardBounds split.
  const std::uint64_t* job_bounds_ KCORE_GUARDED_BY(mu_) = nullptr;
  // Dynamic jobs (ParallelForDynamic): the chunk count (0 for a static
  // job) and the next unclaimed chunk, reset by Dispatch before the
  // generation is bumped.
  std::size_t job_chunks_ KCORE_GUARDED_BY(mu_) = 0;
  std::atomic<std::size_t> next_chunk_{0};
};

}  // namespace kcore::distsim
