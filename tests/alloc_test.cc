// Steady-state rounds allocate nothing: a counting global operator new
// (this executable's own) brackets Engine::Step calls once two warm-up
// rounds have grown every scratch buffer — the broadcast slots, the
// per-thread Update gather and merge buffers, the census sets — to its
// high-water mark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/compact.h"
#include "distsim/engine.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kcore {
namespace {

using graph::Graph;
using graph::NodeId;

constexpr int kWarmupRounds = 2;

// A heavy-tailed graph with real weights: hubs exercise the merge path
// of Update's sort, and real weights make most broadcast values
// distinct, so the census sets reach their high-water mark in round 1.
Graph WeightedPowerLaw(NodeId n) {
  util::Rng rng(7);
  const Graph g = graph::PowerLawConfiguration(n, 2.3, 2, 300, rng);
  return graph::WithUniformWeights(g, 0.5, 3.0, rng);
}

void ExpectCompactStepsAllocateNothing(int threads) {
  const Graph g = WeightedPowerLaw(3000);
  core::CompactOptions opts;
  opts.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  opts.num_threads = threads;
  opts.balance_shards = true;
  ASSERT_GT(opts.rounds, kWarmupRounds + 1);
  distsim::Engine engine(g, threads);
  engine.SetShardBalancing(opts.balance_shards);
  core::CompactElimination proto(g, opts);

  const std::uint64_t before_start = g_allocs.load();
  engine.Start(proto);
  for (int t = 0; t < kWarmupRounds; ++t) engine.Step(proto);
  // The counter is live: set-up and warm-up do allocate.
  EXPECT_GT(g_allocs.load(), before_start);

  std::vector<std::uint64_t> allocs(opts.rounds, 0);
  for (int t = kWarmupRounds; t < opts.rounds; ++t) {
    const std::uint64_t before = g_allocs.load();
    engine.Step(proto);
    allocs[t] = g_allocs.load() - before;
  }
  for (int t = kWarmupRounds; t < opts.rounds; ++t) {
    EXPECT_EQ(allocs[t], 0u) << "round " << t + 1 << " at " << threads
                             << " threads";
  }
}

TEST(AllocationFree, CompactRoundsSequential) {
  ExpectCompactStepsAllocateNothing(1);
}

TEST(AllocationFree, CompactRoundsFourThreads) {
  ExpectCompactStepsAllocateNothing(4);
}

// Forwards to the compact protocol and snapshots the allocation counter
// when the first node of each round starts, so consecutive snapshots
// bracket one whole round inside Engine::RunUntilQuiescent: compute,
// collect, the quiescence check, and the loop around Step.
class RoundMarks final : public distsim::Protocol {
 public:
  RoundMarks(distsim::Protocol& inner, int max_rounds)
      : inner_(inner), marks_(static_cast<std::size_t>(max_rounds) + 2, 0) {}

  void Init(distsim::NodeContext& ctx) override { inner_.Init(ctx); }
  void Round(distsim::NodeContext& ctx) override {
    const int r = ctx.round();
    int seen = last_.load();
    while (seen < r && !last_.compare_exchange_weak(seen, r)) {
    }
    if (seen < r) marks_[r] = g_allocs.load();  // this thread opened round r
    inner_.Round(ctx);
  }

  std::uint64_t mark(int round) const { return marks_[round]; }

 private:
  distsim::Protocol& inner_;
  std::atomic<int> last_{0};
  std::vector<std::uint64_t> marks_;
};

void ExpectQuiescentRunAllocatesNothing(int threads) {
  // Integer weights: Montresor et al.'s run-to-convergence setting, where
  // the surviving numbers settle after finitely many rounds.
  util::Rng rng(9);
  const Graph g = graph::WithIntegerWeights(
      graph::PowerLawConfiguration(2000, 2.3, 2, 200, rng), 4, rng);
  const int max_rounds = 60;
  core::CompactOptions opts;
  opts.rounds = max_rounds;
  opts.num_threads = threads;
  core::CompactElimination proto(g, opts);
  RoundMarks marks(proto, max_rounds);
  distsim::Engine engine(g, threads);
  const int executed = engine.RunUntilQuiescent(marks, max_rounds);
  const std::uint64_t end = g_allocs.load();
  ASSERT_LT(executed, max_rounds) << "did not reach quiescence";
  ASSERT_GT(executed, kWarmupRounds + 1);
  for (int r = kWarmupRounds + 1; r <= executed; ++r) {
    const std::uint64_t next = r < executed ? marks.mark(r + 1) : end;
    EXPECT_EQ(next - marks.mark(r), 0u)
        << "round " << r << " of " << executed << " at " << threads
        << " threads";
  }
}

TEST(AllocationFree, QuiescentRunRoundsSequential) {
  ExpectQuiescentRunAllocatesNothing(1);
}

TEST(AllocationFree, QuiescentRunRoundsFourThreads) {
  ExpectQuiescentRunAllocatesNothing(4);
}

}  // namespace
}  // namespace kcore
