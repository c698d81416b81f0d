#include "core/update.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace kcore::core {

namespace {

// Runs of at most this many entries are insertion-sorted; the merges
// start above it. Short adjacency lists (most nodes on sparse graphs)
// never touch the merge buffer.
constexpr std::size_t kInsertionRun = 32;

// Stable insertion sort of [first, last) by values ascending: O(length
// + inversions), i.e. near-linear on the nearly sorted persisted order.
void InsertionSort(std::uint32_t* first, std::uint32_t* last,
                   const double* values) {
  if (first == last) return;
  for (std::uint32_t* i = first + 1; i != last; ++i) {
    const std::uint32_t x = *i;
    const double key = values[x];
    std::uint32_t* j = i;
    for (; j != first && key < values[*(j - 1)]; --j) *j = *(j - 1);
    *j = x;
  }
}

// This thread's Update scratch: ThreadUpdateInputs' gather buffers and
// UpdateStep's merge buffer (which ThreadUpdateInputs' reserve sizes too).
thread_local std::vector<double> tl_values, tl_weights;
thread_local std::vector<std::uint32_t> tl_merge_buf;

// Stable sort of `order` by values ascending: insertion-sorted runs of
// kInsertionRun, then bottom-up merges of adjacent runs. A merge copies
// its left run into `buf` and merges back, taking the left entry on ties
// (stability); adjacent runs already in order are left as they are.
void StableSortByValue(std::span<std::uint32_t> order, const double* values,
                       std::vector<std::uint32_t>& buf) {
  const std::size_t d = order.size();
  std::uint32_t* a = order.data();
  for (std::size_t lo = 0; lo < d; lo += kInsertionRun) {
    InsertionSort(a + lo, a + std::min(d, lo + kInsertionRun), values);
  }
  if (d <= kInsertionRun) return;
  if (buf.size() < d) buf.resize(d);  // a left run is shorter than d
  for (std::size_t width = kInsertionRun; width < d; width *= 2) {
    for (std::size_t lo = 0; lo + width < d; lo += 2 * width) {
      const std::size_t mid = lo + width;
      const std::size_t hi = std::min(d, mid + width);
      if (!(values[a[mid]] < values[a[mid - 1]])) continue;  // in order
      std::copy(a + lo, a + mid, buf.data());
      const std::uint32_t* l = buf.data();
      const std::uint32_t* const l_end = buf.data() + (mid - lo);
      std::size_t r = mid;
      std::size_t out = lo;
      while (l != l_end && r != hi) {
        a[out++] = values[a[r]] < values[*l] ? a[r++] : *l++;
      }
      std::copy(l, l_end, a + out);  // the right run's tail is in place
    }
  }
}

}  // namespace

double UpdateStep(std::span<const double> values,
                  std::span<const double> weights,
                  std::span<std::uint32_t> order,
                  std::vector<std::uint32_t>* chosen) {
  const std::size_t d = values.size();
  KCORE_CHECK(weights.size() == d && order.size() == d);
  if (chosen != nullptr) chosen->clear();
  if (d == 0) return 0.0;  // b = 0, N = {}

  // Stable sort by current values: ties keep the order induced by all past
  // rounds (most recent first), bottoming out at the caller's initial
  // id-order — the paper's tie-breaking rule.
  StableSortByValue(order, values.data(), tl_merge_buf);

  // Scan thresholds from the largest down (Algorithm 3). With sorted
  // b_1 <= ... <= b_d and suffix sum s_i = sum_{j >= i} w_j, the first
  // (largest) i with s_i > b_{i-1} yields b = min(b_i, s_i):
  //  * if s_i > b_i: b = b_i and N = {i+1..d} (then sum_N w = s_{i+1}
  //    <= b_i because the scan did not stop at i+1);
  //  * else b = s_i and N = {i..d} (sum_N w = s_i = b exactly).
  double s = 0.0;
  for (std::size_t i = d; i-- > 0;) {
    s += weights[order[i]];
    const double prev =
        i > 0 ? values[order[i - 1]] : -std::numeric_limits<double>::infinity();
    if (s > prev) {
      const double bi = values[order[i]];
      const std::size_t first = s <= bi ? i : i + 1;
      if (chosen != nullptr) {
        chosen->assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                       order.end());
      }
      return s <= bi ? s : bi;
    }
  }
  // Unreachable: the loop always stops at i == 0 (prev = -inf, s >= 0).
  KCORE_CHECK_MSG(false, "UpdateStep scan fell through");
  return 0.0;
}

UpdateInputs ThreadUpdateInputs(std::size_t d, std::size_t reserve) {
  if (tl_values.size() < d || tl_values.size() < reserve) {
    const std::size_t size = std::max(d, reserve);
    tl_values.resize(size);
    tl_weights.resize(size);
    if (tl_merge_buf.size() < size) tl_merge_buf.resize(size);
  }
  return {{tl_values.data(), d}, {tl_weights.data(), d}};
}

double UpdateValueBruteForce(std::span<const double> values,
                             std::span<const double> weights) {
  KCORE_CHECK(values.size() == weights.size());
  // Candidate thresholds: each values[i], plus each suffix-sum of weights
  // of {j : values[j] >= values[i]} (and the full sum). Evaluate
  // f(b) = sum_{values[i] >= b} weights[i] and keep the best b <= f(b).
  std::vector<double> candidates;
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    candidates.push_back(values[i]);
    total += weights[i];
  }
  candidates.push_back(total);
  for (double v : values) {
    double s = 0.0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[j] >= v) s += weights[j];
    }
    candidates.push_back(s);
  }
  double best = 0.0;
  for (double b : candidates) {
    if (b < 0.0) continue;
    double s = 0.0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[j] >= b) s += weights[j];
    }
    if (s >= b) best = std::max(best, b);
  }
  return best;
}

double RoundDownToPower(double x, double lambda) {
  if (lambda <= 0.0 || x <= 0.0 || std::isinf(x)) return x;
  // The returned value must be a CANONICAL function of the integer
  // exponent k: Fact III.9 (the discretized process computes exactly
  // round_Lambda(beta^T)) relies on "round(x) >= b iff x >= b" for b in
  // Lambda, which breaks if two inputs in the same Lambda-cell map to
  // powers differing in the last ulp. Hence: derive k, correct k (not the
  // power) under floating-point drift, and always materialize the power
  // through the same std::pow call.
  const double log_base = std::log1p(lambda);
  const double base = 1.0 + lambda;
  double k = std::floor(std::log(x) / log_base);
  const auto power = [&](double kk) { return std::pow(base, kk); };
  while (power(k) > x) k -= 1.0;
  while (power(k + 1.0) <= x) k += 1.0;
  return power(k);
}

}  // namespace kcore::core
