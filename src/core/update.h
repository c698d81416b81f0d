// Algorithm 3 of the paper: the Update subroutine.
//
// Given the neighbors' current surviving numbers b_i and the incident edge
// weights w_i, Update returns the maximum real b such that
//     sum_{i : b_i >= b} w_i >= b,
// together with an auxiliary subset N ⊆ {i : b_i >= b} satisfying the
// invariant sum_{i in N} w_i <= b (Definition III.7). N is the in-neighbor
// set for the min-max edge orientation.
//
// Tie-breaking (crucial for Lemma III.11): equal b_i are ordered by the
// lexicographic order of the surviving numbers from all past iterations,
// most recent first, with node identity as the final consistent
// tie-breaker. The paper notes this is equivalent to keeping a persistent
// ordering of the neighbors and STABLE-sorting it by the current b_i each
// round — which is exactly what this implementation does: the caller owns
// `order` (initialized to the identity / id order) and passes it back
// every round; UpdateStep stable-sorts it in place. The order is nearly
// sorted from one round to the next, so the sort is an insertion sort on
// short runs with buffered merges above them, skipping merges of runs
// already in order. Every stable sort yields the same permutation, so
// the choice of sort cannot change a result.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace kcore::core {

// values[i], weights[i]: neighbor i's surviving number and edge weight.
// order: permutation of [0, d) persisted across rounds by the caller;
// stable-sorted in place by values ascending. Returns the new surviving
// number b. When `chosen` is non-null it is overwritten with the
// auxiliary subset N: indices into values/weights, in ascending sorted
// position (largest b_i last); callers that need only b pass nullptr and
// copy nothing. d == 0 yields b = 0, N = {}. Once the calling thread's
// merge buffer (and *chosen) have grown to d, a call allocates nothing.
double UpdateStep(std::span<const double> values,
                  std::span<const double> weights,
                  std::span<std::uint32_t> order,
                  std::vector<std::uint32_t>* chosen = nullptr);

// This thread's gather buffers for UpdateStep's values and weights, each
// at least d long. They grow and never shrink, so a protocol that
// gathers its neighbors' values every node-round allocates nothing once
// warm. `reserve` is a bound on every d the caller will ask for (say the
// graph's maximum degree): the first growth sizes the buffers, and
// UpdateStep's merge buffer, to it, so a thread allocates once however
// the engine's dynamic compute chunks spread the nodes over threads. The
// contents are scratch, valid until the thread's next call.
struct UpdateInputs {
  std::span<double> values;
  std::span<double> weights;
};
UpdateInputs ThreadUpdateInputs(std::size_t d, std::size_t reserve = 0);

// Reference brute-force for tests: the maximum b such that
// sum_{i: values[i] >= b} weights[i] >= b (no auxiliary subset). The
// supremum is always attained either at some values[i] or at a suffix sum.
double UpdateValueBruteForce(std::span<const double> values,
                             std::span<const double> weights);

// Rounds x down to the next power of (1 + lambda) (Lambda-discretization
// of Algorithm 2). lambda == 0 or x in {0, +inf} returns x unchanged.
double RoundDownToPower(double x, double lambda);

}  // namespace kcore::core
