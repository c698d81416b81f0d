// ThreadPool is the primitive the whole determinism story stands on: a
// fixed static partition (ShardBounds), disjoint-write parallel sweeps
// (ParallelFor), and order-pinned reductions (ParallelReduce, merge in
// shard order on the caller). These tests pin the partition arithmetic,
// the exception drain-and-rethrow contract, long-lived reuse across
// generations, the reduce merge order, and the dynamic chunk claiming of
// ParallelForDynamic (every chunk once, own chunk first, work shed by a
// delayed thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "distsim/thread_pool.h"

namespace kcore::distsim {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<int> hits(10000, 0);
  pool.ParallelFor(0, hits.size(), [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ShardBoundsPartitionTheRange) {
  // The static partition must tile [begin, end): contiguous, ascending,
  // disjoint, and exhaustive — for ranges shorter than, equal to, and far
  // longer than the shard count.
  for (int shards : {1, 2, 3, 7, 8}) {
    for (std::uint64_t range : {0ull, 1ull, 5ull, 8ull, 100ull, 10001ull}) {
      const std::uint64_t begin = 13;
      const std::uint64_t end = begin + range;
      std::uint64_t cursor = begin;
      for (int s = 0; s < shards; ++s) {
        const auto [b, e] = ThreadPool::ShardBounds(begin, end, s, shards);
        EXPECT_LE(b, e) << "shards=" << shards << " range=" << range;
        if (b < e) {
          EXPECT_EQ(b, cursor) << "gap before shard " << s;
          cursor = e;
        }
      }
      EXPECT_EQ(cursor, end) << "shards=" << shards << " range=" << range;
    }
  }
}

TEST(ThreadPool, ShardIndexedForMatchesShardBounds) {
  ThreadPool pool(4);
  const std::uint64_t kEnd = 1003;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen(
      pool.num_shards(), {0, 0});
  pool.ParallelFor(0, kEnd, [&](int shard, std::uint64_t b, std::uint64_t e) {
    seen[shard] = {b, e};
  });
  for (int s = 0; s < pool.num_shards(); ++s) {
    EXPECT_EQ(seen[s], ThreadPool::ShardBounds(0, kEnd, s, pool.num_shards()))
        << "shard " << s;
  }
}

TEST(ThreadPool, ReusableAcrossManyGenerations) {
  // One pool, hundreds of jobs: a generation-counter bug (lost wakeup,
  // double dispatch, stale body pointer) shows up as a wrong sum or hang.
  ThreadPool pool(4);
  std::vector<std::uint64_t> acc(5000, 0);
  for (int round = 0; round < 300; ++round) {
    pool.ParallelFor(0, acc.size(), [&](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t i = b; i < e; ++i) acc[i] += i;
    });
  }
  for (std::uint64_t i = 0; i < acc.size(); ++i) EXPECT_EQ(acc[i], 300 * i);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(8);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](std::uint64_t, std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  pool.ParallelFor(0, 3, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, WorkerExceptionDrainsAndRethrows) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.ParallelFor(0, 1000,
                         [&](std::uint64_t b, std::uint64_t) {
                           ran.fetch_add(1);
                           if (b != 0) throw std::runtime_error("shard boom");
                         }),
        std::runtime_error);
    // Every shard ran before the rethrow (the drain guarantee), and the
    // pool stays usable for the next job.
    EXPECT_EQ(ran.load(), pool.num_shards());
    std::vector<int> hits(100, 0);
    pool.ParallelFor(0, hits.size(), [&](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t i = b; i < e; ++i) hits[i] = 1;
    });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, CallerShardExceptionWinsAndDrains) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  // Shard 0 runs on the caller; its exception propagates only after the
  // workers finished (they hold a pointer to the body otherwise).
  EXPECT_THROW(pool.ParallelFor(0, 1000,
                                [&](std::uint64_t b, std::uint64_t) {
                                  ran.fetch_add(1);
                                  if (b == 0) throw std::logic_error("caller");
                                }),
               std::logic_error);
  EXPECT_EQ(ran.load(), pool.num_shards());
  std::vector<int> hits(64, 0);
  pool.ParallelFor(0, hits.size(), [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i] = 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelReduceMergesInShardOrder) {
  ThreadPool pool(8);
  const std::uint64_t kEnd = 4321;
  std::vector<std::uint64_t> partial(pool.num_shards(), 0);
  std::vector<int> merge_order;
  std::uint64_t total = 0;
  pool.ParallelReduce(
      0, kEnd,
      [&](int shard, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) partial[shard] += i;
      },
      [&](int shard) {
        merge_order.push_back(shard);
        total += partial[shard];
      });
  EXPECT_EQ(total, kEnd * (kEnd - 1) / 2);
  ASSERT_EQ(merge_order.size(), static_cast<std::size_t>(pool.num_shards()));
  for (int s = 0; s < pool.num_shards(); ++s) EXPECT_EQ(merge_order[s], s);
}

TEST(ThreadPool, ParallelReduceEmptyRangeSkipsMerge) {
  ThreadPool pool(4);
  int merges = 0;
  pool.ParallelReduce(
      9, 9, [&](int, std::uint64_t, std::uint64_t) {},
      [&](int) { ++merges; });
  EXPECT_EQ(merges, 0);
}

TEST(ThreadPool, ParallelReduceBodyThrowSkipsMerge) {
  ThreadPool pool(4);
  int merges = 0;
  EXPECT_THROW(pool.ParallelReduce(
                   0, 1000,
                   [&](int shard, std::uint64_t, std::uint64_t) {
                     if (shard == 2) throw std::runtime_error("partial boom");
                   },
                   [&](int) { ++merges; }),
               std::runtime_error);
  // A failed map phase must not feed a half-baked reduction.
  EXPECT_EQ(merges, 0);
}

TEST(ThreadPool, SingleThreadDegeneratesToPlainLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_shards(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, hits.size(), [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  std::uint64_t total = 0;
  std::uint64_t partial = 0;
  pool.ParallelReduce(
      0, 100,
      [&](int shard, std::uint64_t b, std::uint64_t e) {
        EXPECT_EQ(shard, 0);
        for (std::uint64_t i = b; i < e; ++i) partial += i;
      },
      [&](int) { total += partial; });
  EXPECT_EQ(total, 4950u);
}

// Every weighted partition must tile [0, n): size num_shards + 1, pinned
// endpoints, monotone boundaries — for uniform, skewed, zero, and
// hub-dominated weights, including more shards than items.
TEST(ThreadPool, WeightedShardBoundsInvariants) {
  std::vector<std::vector<std::uint64_t>> weight_sets;
  weight_sets.push_back({});                          // empty range
  weight_sets.push_back(std::vector<std::uint64_t>(100, 1));  // uniform
  weight_sets.push_back(std::vector<std::uint64_t>(57, 0));   // all zero
  {
    std::vector<std::uint64_t> hub_first(801, 1);
    hub_first[0] = 100000;  // single hub at the front
    weight_sets.push_back(std::move(hub_first));
  }
  {
    std::vector<std::uint64_t> hub_last(801, 1);
    hub_last.back() = 100000;  // single hub at the back
    weight_sets.push_back(std::move(hub_last));
  }
  {
    std::vector<std::uint64_t> ramp(301);
    for (std::size_t i = 0; i < ramp.size(); ++i) {
      ramp[i] = (i * 2654435761u) % 97;  // arbitrary mix incl. zeros
    }
    weight_sets.push_back(std::move(ramp));
  }
  weight_sets.push_back({5, 1, 1});  // fewer items than shards

  for (const auto& w : weight_sets) {
    for (int shards : {1, 2, 3, 7, 8, 32}) {
      const std::vector<std::uint64_t> bounds =
          ThreadPool::WeightedShardBounds(w, shards);
      ASSERT_EQ(bounds.size(), static_cast<std::size_t>(shards) + 1)
          << "n=" << w.size() << " shards=" << shards;
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), w.size());
      for (int s = 0; s < shards; ++s) {
        EXPECT_LE(bounds[s], bounds[s + 1])
            << "n=" << w.size() << " shards=" << shards << " s=" << s;
      }
    }
  }
}

TEST(ThreadPool, WeightedShardBoundsIsolateAHub) {
  // Star-shaped weights: one id carries more weight than everything else
  // combined. The equal-count split dumps the hub plus 1/8 of the leaves
  // on shard 0; the weighted split must give the hub its own shard and
  // spread the leaves over the rest, strictly shrinking the max load.
  std::vector<std::uint64_t> w(801, 1);
  w[0] = 1000;
  const int shards = 8;
  const auto shard_weight = [&w](std::uint64_t b, std::uint64_t e) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = b; i < e; ++i) sum += w[i];
    return sum;
  };
  std::uint64_t equal_max = 0, weighted_max = 0;
  const std::vector<std::uint64_t> bounds =
      ThreadPool::WeightedShardBounds(w, shards);
  for (int s = 0; s < shards; ++s) {
    const auto [eb, ee] = ThreadPool::ShardBounds(0, w.size(), s, shards);
    equal_max = std::max(equal_max, shard_weight(eb, ee));
    weighted_max =
        std::max(weighted_max, shard_weight(bounds[s], bounds[s + 1]));
  }
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 1u);  // the hub closes shard 0 by itself
  EXPECT_EQ(weighted_max, 1000u);
  EXPECT_GT(equal_max, weighted_max);
}

TEST(ThreadPool, WeightedShardBoundsIsolateAMidRangeHub) {
  // Regression: a hub whose id falls in the MIDDLE of a shard's range
  // must not be swallowed along with its prefix. 250 unit ids followed by
  // a 1000-weight hub at id 250, 4 shards: a greedy that always takes the
  // crossing item puts all 1250 weight in shard 0 and leaves shards 1-3
  // empty — strictly worse than not balancing. Closing early instead
  // yields {prefix} {hub alone} and max load 1000 (the optimum).
  std::vector<std::uint64_t> w(251, 1);
  w[250] = 1000;
  const std::vector<std::uint64_t> bounds =
      ThreadPool::WeightedShardBounds(w, 4);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 250u);  // the ones, closed short of the hub
  EXPECT_EQ(bounds[2], 251u);  // the hub alone
  std::uint64_t max_load = 0;
  for (int s = 0; s < 4; ++s) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = bounds[s]; i < bounds[s + 1]; ++i) sum += w[i];
    max_load = std::max(max_load, sum);
  }
  EXPECT_EQ(max_load, 1000u);
}

TEST(ThreadPool, WeightedShardBoundsZeroWeightsFallBackToEqualCount) {
  const std::vector<std::uint64_t> w(100, 0);
  for (int shards : {1, 4, 8}) {
    const std::vector<std::uint64_t> bounds =
        ThreadPool::WeightedShardBounds(w, shards);
    for (int s = 0; s < shards; ++s) {
      const auto [b, e] = ThreadPool::ShardBounds(0, w.size(), s, shards);
      EXPECT_EQ(bounds[s], b) << "shard " << s;
      EXPECT_EQ(bounds[s + 1], e) << "shard " << s;
    }
  }
}

TEST(ThreadPool, BoundedParallelForRunsExactlyTheGivenPartition) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_shards(), 4);
  // Deliberately lopsided, with one empty shard in the middle.
  const std::vector<std::uint64_t> bounds{0, 10, 10, 500, 1003};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen(
      pool.num_shards(), {1, 0});  // sentinel: body did not run
  std::vector<int> hits(1003, 0);
  pool.ParallelFor(bounds,
                   [&](int shard, std::uint64_t b, std::uint64_t e) {
                     seen[shard] = {b, e};
                     for (std::uint64_t i = b; i < e; ++i) hits[i] += 1;
                   });
  EXPECT_EQ(seen[0], (std::pair<std::uint64_t, std::uint64_t>{0, 10}));
  EXPECT_EQ(seen[1], (std::pair<std::uint64_t, std::uint64_t>{1, 0}))
      << "empty shard body must be skipped";
  EXPECT_EQ(seen[2], (std::pair<std::uint64_t, std::uint64_t>{10, 500}));
  EXPECT_EQ(seen[3], (std::pair<std::uint64_t, std::uint64_t>{500, 1003}));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, BoundedParallelReduceMergesInShardOrder) {
  ThreadPool pool(4);
  const std::vector<std::uint64_t> bounds{0, 1, 1, 900, 1000};
  std::vector<std::uint64_t> partial(pool.num_shards(), 0);
  std::vector<int> merge_order;
  std::uint64_t total = 0;
  pool.ParallelReduce(
      bounds,
      [&](int shard, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) partial[shard] += i;
      },
      [&](int shard) {
        merge_order.push_back(shard);
        total += partial[shard];
      });
  EXPECT_EQ(total, 1000u * 999u / 2u);
  ASSERT_EQ(merge_order.size(), static_cast<std::size_t>(pool.num_shards()));
  for (int s = 0; s < pool.num_shards(); ++s) EXPECT_EQ(merge_order[s], s);
}

TEST(ThreadPool, BoundedEmptyRangeSkipsBodyAndMerge) {
  ThreadPool pool(4);
  const std::vector<std::uint64_t> bounds{5, 5, 5, 5, 5};
  int calls = 0, merges = 0;
  pool.ParallelFor(bounds,
                   [&](int, std::uint64_t, std::uint64_t) { ++calls; });
  pool.ParallelReduce(
      bounds, [&](int, std::uint64_t, std::uint64_t) { ++calls; },
      [&](int) { ++merges; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(merges, 0);
}

TEST(ThreadPool, BoundedMatchesWeightedShardBoundsEndToEnd) {
  // The intended composition: WeightedShardBounds output drives a bounded
  // sweep; every id is visited exactly once regardless of skew.
  ThreadPool pool(8);
  std::vector<std::uint64_t> w(2000, 1);
  w[0] = 50000;
  w[777] = 10000;
  const std::vector<std::uint64_t> bounds =
      ThreadPool::WeightedShardBounds(w, pool.num_shards());
  std::vector<int> hits(w.size(), 0);
  pool.ParallelFor(bounds, [&](int, std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, DynamicRunsEveryChunkExactlyOnce) {
  // Lopsided chunks with empty ones among them, over many generations:
  // each non-empty chunk runs once with its index and exact bounds, empty
  // chunks never, and every id is covered once per call.
  ThreadPool pool(4);
  std::vector<std::uint64_t> chunks{0, 3, 3, 40, 41, 41, 41, 500};
  for (std::uint64_t c = 600; c <= 2000; c += 100) chunks.push_back(c);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<int> hits(chunks.back(), 0);
    std::vector<int> runs(chunks.size() - 1, 0);
    std::atomic<int> bad_bounds{0};
    pool.ParallelForDynamic(
        chunks, [&](int chunk, std::uint64_t b, std::uint64_t e) {
          if (b != chunks[chunk] || e != chunks[chunk + 1]) bad_bounds += 1;
          runs[chunk] += 1;
          for (std::uint64_t i = b; i < e; ++i) hits[i] += 1;
        });
    EXPECT_EQ(bad_bounds.load(), 0);
    for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
      EXPECT_EQ(runs[c], chunks[c] < chunks[c + 1] ? 1 : 0)
          << "chunk " << c << " rep " << rep;
    }
    for (int h : hits) ASSERT_EQ(h, 1) << "rep " << rep;
  }
}

TEST(ThreadPool, DynamicThreadsStartWithTheirOwnChunk) {
  // Chunk t < num_shards() is thread t's own: chunk 0 runs on the caller
  // and the first num_shards() chunks on as many different threads, in
  // every call.
  ThreadPool pool(4);
  std::vector<std::uint64_t> chunks;
  for (std::uint64_t c = 0; c <= 64; ++c) chunks.push_back(c * 10);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::thread::id> ran_on(64);
    pool.ParallelForDynamic(chunks,
                            [&](int chunk, std::uint64_t, std::uint64_t) {
                              ran_on[chunk] = std::this_thread::get_id();
                            });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    for (int a = 0; a < pool.num_shards(); ++a) {
      for (int b = a + 1; b < pool.num_shards(); ++b) {
        EXPECT_NE(ran_on[a], ran_on[b]) << "chunks " << a << ", " << b;
      }
    }
    for (const std::thread::id& id : ran_on) EXPECT_NE(id, std::thread::id());
  }
}

TEST(ThreadPool, DynamicDelayedThreadShedsItsShare) {
  // The thread that owns chunk 1 stalls in it; the other threads take the
  // rest, where a static split would have left it a quarter of the ids.
  ThreadPool pool(4);
  std::vector<std::uint64_t> chunks;
  for (std::uint64_t c = 0; c <= 64; ++c) chunks.push_back(c);
  std::vector<std::thread::id> ran_on(64);
  pool.ParallelForDynamic(chunks,
                          [&](int chunk, std::uint64_t, std::uint64_t) {
                            if (chunk == 1) {
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(300));
                            }
                            ran_on[chunk] = std::this_thread::get_id();
                          });
  const auto by_stalled = std::count(ran_on.begin(), ran_on.end(), ran_on[1]);
  EXPECT_LT(by_stalled, 64 / pool.num_shards());
}

TEST(ThreadPool, DynamicExceptionDrainsAndRethrows) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> chunks;
  for (std::uint64_t c = 0; c <= 32; ++c) chunks.push_back(c * 4);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_THROW(pool.ParallelForDynamic(
                     chunks,
                     [&](int, std::uint64_t b, std::uint64_t) {
                       if (b == 40) throw std::runtime_error("chunk boom");
                     }),
                 std::runtime_error);
    std::vector<int> hits(chunks.back(), 0);
    pool.ParallelForDynamic(chunks,
                            [&](int, std::uint64_t b, std::uint64_t e) {
                              for (std::uint64_t i = b; i < e; ++i) hits[i] = 1;
                            });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, DynamicSingleThreadRunsChunksInOrder) {
  ThreadPool pool(1);
  const std::vector<std::uint64_t> chunks{5, 7, 7, 20};
  std::vector<int> calls;
  pool.ParallelForDynamic(chunks,
                          [&](int chunk, std::uint64_t b, std::uint64_t e) {
                            EXPECT_EQ(b, chunks[chunk]);
                            EXPECT_EQ(e, chunks[chunk + 1]);
                            calls.push_back(chunk);
                          });
  EXPECT_EQ(calls, (std::vector<int>{0, 2}));
}

TEST(ThreadPool, ManyConcurrentReducesStayIndependent) {
  // Two pools running interleaved jobs from the same thread must not
  // cross-talk (all job state is per-pool).
  ThreadPool a(3), b(5);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::uint64_t> pa(a.num_shards(), 0), pb(b.num_shards(), 0);
    std::uint64_t ta = 0, tb = 0;
    a.ParallelReduce(
        0, 1000,
        [&](int s, std::uint64_t lo, std::uint64_t hi) {
          pa[s] = hi - lo;
        },
        [&](int s) { ta += pa[s]; });
    b.ParallelReduce(
        0, 2000,
        [&](int s, std::uint64_t lo, std::uint64_t hi) {
          pb[s] = hi - lo;
        },
        [&](int s) { tb += pb[s]; });
    EXPECT_EQ(ta, 1000u);
    EXPECT_EQ(tb, 2000u);
  }
}

}  // namespace
}  // namespace kcore::distsim
