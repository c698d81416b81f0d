#include "distsim/thread_pool.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "util/logging.h"

namespace kcore::distsim {

ThreadPool::ThreadPool(int num_threads) {
  KCORE_CHECK_MSG(num_threads >= 1,
                  "ThreadPool needs num_threads >= 1, got " << num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int shard = 1; shard < num_threads; ++shard) {
    workers_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::pair<std::uint64_t, std::uint64_t> ThreadPool::ShardBounds(
    std::uint64_t begin, std::uint64_t end, int shard, int num_shards) {
  const std::uint64_t chunk =
      (end - begin + static_cast<std::uint64_t>(num_shards) - 1) /
      static_cast<std::uint64_t>(num_shards);
  const std::uint64_t b =
      std::min(end, begin + static_cast<std::uint64_t>(shard) * chunk);
  const std::uint64_t e = std::min(end, b + chunk);
  return {b, e};
}

std::vector<std::uint64_t> ThreadPool::WeightedShardBounds(
    std::span<const std::uint64_t> weights, int num_shards) {
  KCORE_CHECK_MSG(num_shards >= 1,
                  "WeightedShardBounds needs num_shards >= 1, got "
                      << num_shards);
  const std::uint64_t n = weights.size();
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(num_shards) + 1,
                                    n);
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  if (total == 0) {
    // Nothing to equalize; tile by count so every id is still covered.
    for (int s = 0; s < num_shards; ++s) {
      bounds[s] = ShardBounds(0, n, s, num_shards).first;
    }
    return bounds;
  }
  std::uint64_t cursor = 0;
  std::uint64_t remaining = total;
  for (int s = 0; s < num_shards; ++s) {
    bounds[s] = cursor;
    // Fair share of the weight still unassigned: ceil(remaining / shards
    // left). A hub heavier than the share closes its shard immediately
    // and the later shards re-split what is left.
    const auto left = static_cast<std::uint64_t>(num_shards - s);
    const std::uint64_t share = (remaining + left - 1) / left;
    std::uint64_t taken = 0;
    while (cursor < n && taken < share) {
      const std::uint64_t w = weights[cursor];
      // An item that overshoots the share joins this shard only if that
      // lands closer to the fair share than stopping short does. Without
      // this, a hub in the MIDDLE of a shard's range gets swallowed along
      // with its whole prefix (one shard carrying prefix + hub, later
      // shards empty — worse than no balancing); closing early leaves the
      // hub to open the next shard, which then takes it alone.
      if (taken > 0 && taken + w > share &&
          taken + w - share > share - taken) {
        break;
      }
      taken += w;
      ++cursor;
    }
    remaining -= taken;
  }
  bounds[num_shards] = n;  // trailing zero-weight ids ride the last shard
  return bounds;
}

void ThreadPool::RunShard(int shard) {
  if (job_chunks_ > 0) {
    // Chunk `shard` is this thread's own first claim; the shared counter
    // starts past the first num_shards() chunks.
    std::size_t c = static_cast<std::size_t>(shard);
    while (c < job_chunks_) {
      if (job_bounds_[c] < job_bounds_[c + 1]) {
        (*body_)(static_cast<int>(c), job_bounds_[c], job_bounds_[c + 1]);
      }
      c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::uint64_t b, e;
  if (job_bounds_ != nullptr) {
    b = job_bounds_[shard];
    e = job_bounds_[shard + 1];
  } else {
    std::tie(b, e) = ShardBounds(job_begin_, job_end_, shard, num_shards());
  }
  if (b < e) (*body_)(shard, b, e);
}

void ThreadPool::WorkerLoop(int shard) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      util::MutexLock lk(mu_);
      // Explicit wait loop (not the predicate overload): the analysis
      // sees guarded reads in this function's scope, not in a lambda it
      // cannot attribute the capability to.
      while (!stop_ && generation_ == seen) work_cv_.wait(lk.native());
      if (stop_) return;
      seen = generation_;
    }
    std::exception_ptr error;
    try {
      RunShard(shard);
    } catch (...) {
      // Must not escape the thread entry (std::terminate); stash the
      // first failure for ParallelFor to rethrow on the caller's thread.
      error = std::current_exception();
    }
    {
      util::MutexLock lk(mu_);
      if (error && !error_) error_ = std::move(error);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelFor(
    std::uint64_t begin, std::uint64_t end,
    util::FunctionRef<void(std::uint64_t, std::uint64_t)> body) {
  Dispatch(begin, end, nullptr,
           [&body](int, std::uint64_t b, std::uint64_t e) { body(b, e); });
}

void ThreadPool::ParallelFor(
    std::uint64_t begin, std::uint64_t end,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body) {
  Dispatch(begin, end, nullptr, body);
}

void ThreadPool::ParallelFor(
    std::span<const std::uint64_t> bounds,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body) {
  CheckBounds(bounds);
  Dispatch(bounds.front(), bounds.back(), bounds.data(), body);
}

void ThreadPool::ParallelReduce(
    std::uint64_t begin, std::uint64_t end,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body,
    util::FunctionRef<void(int)> merge) {
  if (begin >= end) return;
  Dispatch(begin, end, nullptr, body);
  // Merge strictly in shard order on this thread: the reduction sees the
  // same partial order no matter how the shards were scheduled.
  for (int shard = 0; shard < num_shards(); ++shard) merge(shard);
}

void ThreadPool::ParallelReduce(
    std::span<const std::uint64_t> bounds,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body,
    util::FunctionRef<void(int)> merge) {
  CheckBounds(bounds);
  if (bounds.front() >= bounds.back()) return;
  Dispatch(bounds.front(), bounds.back(), bounds.data(), body);
  for (int shard = 0; shard < num_shards(); ++shard) merge(shard);
}

void ThreadPool::ParallelForDynamic(
    std::span<const std::uint64_t> chunks,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body) {
  KCORE_CHECK_MSG(chunks.size() >= 2,
                  "dynamic dispatch needs at least one chunk (two "
                  "boundaries), got " << chunks.size() << " boundaries");
  for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
    KCORE_CHECK_MSG(chunks[c] <= chunks[c + 1],
                    "chunk boundaries must be ascending; chunks["
                        << c << "]=" << chunks[c] << " > chunks[" << c + 1
                        << "]=" << chunks[c + 1]);
  }
  Dispatch(chunks.front(), chunks.back(), chunks.data(), body,
           chunks.size() - 1);
}

void ThreadPool::CheckBounds(std::span<const std::uint64_t> bounds) const {
  KCORE_CHECK_MSG(
      bounds.size() == static_cast<std::size_t>(num_shards()) + 1,
      "bounded dispatch needs num_shards + 1 = " << num_shards() + 1
          << " boundaries, got " << bounds.size());
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    KCORE_CHECK_MSG(bounds[s] <= bounds[s + 1],
                    "shard boundaries must be ascending; bounds["
                        << s << "]=" << bounds[s] << " > bounds[" << s + 1
                        << "]=" << bounds[s + 1]);
  }
}

void ThreadPool::Dispatch(
    std::uint64_t begin, std::uint64_t end, const std::uint64_t* bounds,
    util::FunctionRef<void(int, std::uint64_t, std::uint64_t)> body,
    std::size_t num_chunks) {
  if (begin >= end) return;
  const int shards = num_shards();
  if (shards == 1) {
    if (num_chunks == 0) {
      body(0, begin, end);
      return;
    }
    for (std::size_t c = 0; c < num_chunks; ++c) {
      if (bounds[c] < bounds[c + 1]) {
        body(static_cast<int>(c), bounds[c], bounds[c + 1]);
      }
    }
    return;
  }
  {
    util::MutexLock lk(mu_);
    body_ = &body;
    job_begin_ = begin;
    job_end_ = end;
    job_bounds_ = bounds;
    job_chunks_ = num_chunks;
    next_chunk_.store(static_cast<std::size_t>(shards),
                      std::memory_order_relaxed);
    pending_ = shards - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  // Workers hold a raw pointer to `body` until pending_ hits zero, so if
  // the caller's shard throws we must still wait for them before the
  // stack (and the callable `body` refers to) unwinds.
  const auto drain = [this] {
    util::MutexLock lk(mu_);
    while (pending_ != 0) done_cv_.wait(lk.native());
    body_ = nullptr;
    job_bounds_ = nullptr;
    job_chunks_ = 0;
    return std::exchange(error_, nullptr);
  };
  try {
    RunShard(0);  // the caller is shard 0
  } catch (...) {
    drain();
    throw;  // a caller-shard throw wins over any stashed worker error
  }
  if (std::exception_ptr error = drain()) std::rethrow_exception(error);
}

}  // namespace kcore::distsim
