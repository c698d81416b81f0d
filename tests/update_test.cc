#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/update.h"
#include "util/rng.h"

namespace kcore::core {
namespace {

std::vector<std::uint32_t> Identity(std::size_t d) {
  std::vector<std::uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

// UpdateStep with the auxiliary subset N requested.
struct Result {
  double b = 0.0;
  std::vector<std::uint32_t> chosen;
};
Result Update(std::span<const double> values, std::span<const double> weights,
              std::span<std::uint32_t> order) {
  Result r;
  r.b = UpdateStep(values, weights, order, &r.chosen);
  return r;
}

TEST(UpdateStep, EmptyInput) {
  std::vector<std::uint32_t> order;
  const Result r = Update({}, {}, order);
  EXPECT_DOUBLE_EQ(r.b, 0.0);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(UpdateStep, SingleNeighbor) {
  // One neighbor with value 5, weight 2: the best b with
  // sum_{b_i >= b} w_i >= b is b = 2 (s <= b_1 case).
  std::vector<double> values{5.0};
  std::vector<double> weights{2.0};
  auto order = Identity(1);
  const Result r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 2.0);
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 0u);
}

TEST(UpdateStep, SingleNeighborValueCaps) {
  // Value 1.5, weight 10: b capped by the neighbor's value.
  std::vector<double> values{1.5};
  std::vector<double> weights{10.0};
  auto order = Identity(1);
  const Result r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 1.5);
  // N must satisfy sum_{N} w <= b: the neighbor (weight 10) cannot be in.
  EXPECT_TRUE(r.chosen.empty());
}

TEST(UpdateStep, AllInfiniteValuesGiveDegree) {
  // Round 1 of the compact procedure: all neighbors broadcast +inf, so
  // b becomes the weighted degree and N contains everyone.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values{inf, inf, inf};
  std::vector<double> weights{1.0, 2.0, 3.0};
  auto order = Identity(3);
  const Result r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 6.0);
  EXPECT_EQ(r.chosen.size(), 3u);
}

TEST(UpdateStep, PaperStyleExample) {
  // values 1,2,3 weights 1 each: f(b)=|{i: b_i>=b}|. b=2: f=2>=2. b=3:
  // f=1 < 3. So max b = 2; N = {indices with value >= 2} trimmed to
  // sum <= 2 -> both (weights 1+1 = 2 <= 2).
  std::vector<double> values{1.0, 2.0, 3.0};
  std::vector<double> weights{1.0, 1.0, 1.0};
  auto order = Identity(3);
  const Result r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 2.0);
  std::vector<std::uint32_t> chosen = r.chosen;
  std::sort(chosen.begin(), chosen.end());
  EXPECT_EQ(chosen, (std::vector<std::uint32_t>{1, 2}));
}

TEST(UpdateStep, InvariantSumAtMostB) {
  util::Rng rng(1);
  for (int it = 0; it < 500; ++it) {
    const std::size_t d = 1 + rng.NextBounded(12);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = rng.NextDouble(0, 10);
      weights[i] = rng.NextDouble(0.1, 3);
    }
    auto order = Identity(d);
    const Result r = Update(values, weights, order);
    double sum = 0.0;
    for (std::uint32_t i : r.chosen) {
      sum += weights[i];
      // Every chosen neighbor must have value >= b.
      EXPECT_GE(values[i], r.b - 1e-12);
    }
    EXPECT_LE(sum, r.b + 1e-9) << "Definition III.7 first invariant";
  }
}

TEST(UpdateStep, MatchesBruteForceMaximum) {
  util::Rng rng(2);
  for (int it = 0; it < 500; ++it) {
    const std::size_t d = 1 + rng.NextBounded(10);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      // Use small integers so brute-force candidate enumeration is exact.
      values[i] = static_cast<double>(rng.NextBounded(8));
      weights[i] = static_cast<double>(1 + rng.NextBounded(4));
    }
    auto order = Identity(d);
    const Result r = Update(values, weights, order);
    const double brute = UpdateValueBruteForce(values, weights);
    EXPECT_NEAR(r.b, brute, 1e-9);
  }
}

TEST(UpdateStep, ResultSatisfiesFeasibility) {
  // f(b) = sum_{values >= b} w >= b must hold at the returned b, and fail
  // for slightly larger b (maximality).
  util::Rng rng(3);
  for (int it = 0; it < 300; ++it) {
    const std::size_t d = 1 + rng.NextBounded(10);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = rng.NextDouble(0, 5);
      weights[i] = rng.NextDouble(0.1, 2);
    }
    auto order = Identity(d);
    const Result r = Update(values, weights, order);
    const auto f = [&](double b) {
      double s = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        if (values[i] >= b) s += weights[i];
      }
      return s;
    };
    EXPECT_GE(f(r.b), r.b - 1e-9);
    const double bump = r.b * 1e-6 + 1e-9;
    EXPECT_LT(f(r.b + bump), r.b + bump) << "b not maximal";
  }
}

TEST(UpdateStep, StableTieBreakPrefersEarlierOrder) {
  // Two neighbors with identical values: the persistent order decides who
  // enters N when only one fits.
  std::vector<double> values{2.0, 2.0};
  std::vector<double> weights{2.0, 2.0};
  auto order = Identity(2);
  const Result r = Update(values, weights, order);
  // b = 2 (f(2) = 4 >= 2); N keeps sum <= 2 -> exactly one neighbor, the
  // LAST in sorted order; stability keeps {0,1} order, so neighbor 1.
  EXPECT_DOUBLE_EQ(r.b, 2.0);
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 1u);
}

TEST(UpdateStep, OrderPersistsAcrossCalls) {
  // After sorting by round-1 values, a tie in round 2 must preserve the
  // round-1 order (most-recent-first lexicographic rule).
  std::vector<double> v1{3.0, 1.0, 2.0};
  std::vector<double> w{1.0, 1.0, 1.0};
  auto order = Identity(3);
  (void)UpdateStep(v1, w, order);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
  // Round 2: all equal -> stable sort keeps {1, 2, 0}.
  std::vector<double> v2{5.0, 5.0, 5.0};
  (void)UpdateStep(v2, w, order);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(UpdateStep, ZeroWeightsHandled) {
  std::vector<double> values{4.0, 4.0};
  std::vector<double> weights{0.0, 0.0};
  auto order = Identity(2);
  const Result r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 0.0);
}

TEST(UpdateStep, MonotoneInValues) {
  // Raising any neighbor's value can only raise (or keep) b.
  util::Rng rng(4);
  for (int it = 0; it < 200; ++it) {
    const std::size_t d = 1 + rng.NextBounded(8);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = rng.NextDouble(0, 5);
      weights[i] = rng.NextDouble(0.1, 2);
    }
    auto o1 = Identity(d);
    const double b1 = UpdateStep(values, weights, o1);
    auto bumped = values;
    bumped[rng.NextBounded(d)] += rng.NextDouble(0, 3);
    auto o2 = Identity(d);
    const double b2 = UpdateStep(bumped, weights, o2);
    EXPECT_GE(b2, b1 - 1e-12);
  }
}

// The reference UpdateStep: std::stable_sort of the persisted order, then
// the same threshold scan, with N copied out.
Result ReferenceUpdate(const std::vector<double>& values,
                       const std::vector<double>& weights,
                       std::vector<std::uint32_t>& order) {
  Result r;
  const std::size_t d = values.size();
  if (d == 0) return r;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] < values[b];
                   });
  double s = 0.0;
  for (std::size_t i = d; i-- > 0;) {
    s += weights[order[i]];
    const double prev =
        i > 0 ? values[order[i - 1]] : -std::numeric_limits<double>::infinity();
    if (s > prev) {
      const double bi = values[order[i]];
      const std::size_t first = s <= bi ? i : i + 1;
      r.b = s <= bi ? s : bi;
      r.chosen.assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                      order.end());
      return r;
    }
  }
  ADD_FAILURE() << "reference scan fell through";
  return r;
}

TEST(UpdateStep, SortMatchesStableSortReference) {
  // Every stable sort yields the same permutation, so UpdateStep's own
  // sort must agree with std::stable_sort on the order it leaves behind,
  // on b (bit for bit), and on N — across repeated calls on the same
  // persisted order, with heavy ties, +inf and 0 among the values, and d
  // on both sides of the insertion-sort cutoff.
  const double inf = std::numeric_limits<double>::infinity();
  util::Rng rng(12);
  std::vector<std::uint32_t> chosen;
  for (int it = 0; it < 300; ++it) {
    const std::size_t d = rng.NextBounded(301);
    std::vector<double> values(d), weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      switch (rng.NextBounded(4)) {
        case 0: weights[i] = 1.0; break;
        case 1: weights[i] = 0.0; break;
        default: weights[i] = rng.NextDouble(0.1, 3.0);
      }
      values[i] = inf;
    }
    std::vector<std::uint32_t> order = Identity(d), ref_order = Identity(d);
    for (int call = 0; call < 6; ++call) {
      for (std::size_t i = 0; i < d; ++i) {
        // Mostly small integers (heavy ties); some +inf, 0, and reals.
        // Every other call only lowers a few values, so the persisted
        // order arrives nearly sorted, as in the compact protocol.
        if (call % 2 == 1 && rng.NextBounded(8) != 0) continue;
        switch (rng.NextBounded(6)) {
          case 0: values[i] = inf; break;
          case 1: values[i] = 0.0; break;
          case 2: values[i] = rng.NextDouble(0.0, 10.0); break;
          default: values[i] = static_cast<double>(rng.NextBounded(5));
        }
      }
      const double b = UpdateStep(values, weights, order, &chosen);
      const Result ref = ReferenceUpdate(values, weights, ref_order);
      ASSERT_EQ(order, ref_order) << "d=" << d << " call=" << call;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(b),
                std::bit_cast<std::uint64_t>(ref.b))
          << "d=" << d << " call=" << call;
      ASSERT_EQ(chosen, ref.chosen) << "d=" << d << " call=" << call;
      // Without an output vector the order and b come out the same.
      std::vector<std::uint32_t> again = ref_order;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(UpdateStep(values, weights, again)),
                std::bit_cast<std::uint64_t>(ref.b));
      EXPECT_EQ(again, ref_order);
    }
  }
}

}  // namespace
}  // namespace kcore::core
