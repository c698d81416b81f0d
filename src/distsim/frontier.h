// Which nodes a round visits: the wake set behind NodeContext::Sleep,
// shared by the engine and the rank workers (process_transport.cc). The
// policy that fills it is NodeRuntime::VisitRange / WakeForNextRound
// (engine.h).
//
// A node that calls Sleep() in its Round is not visited again until a
// neighbor's visible broadcast changes (presence included) or a p2p
// message reaches it; until then the runtime treats it exactly as if its
// Round had re-staged its visible broadcast. Every other live node runs
// every round. Two bytes per node say "visit this round" and "visit next
// round"; EndRound swaps them. During a round's sweep, a node that ran
// and did not sleep sets its own next byte (Wake), and so does a node
// that halted, so that the next round settles its broadcast absent; a
// node whose broadcast changes sets its neighbors' (Push), right after
// its own visit, while its adjacency is still in cache. A round pushes
// only when the round before it left sleeping nodes: a round after
// which nothing sleeps needs no wake-ups, and one that leaves sleepers
// after a round without pushes visits every node next. Visiting a
// sleeping node early is always allowed (its Round re-stages what it
// shows), so these rules only ever visit more than needed, never less.
// After Reset or WakeAll every node is visited once (round 0; a state
// load between rounds).
//
// Concurrency: a sweep over [b, e) clears only this round's bytes of
// [b, e), so sweeps over disjoint ranges may run concurrently; Wake and
// Push may run concurrently with each other and with sweeps (relaxed
// atomic stores of 1 into next round's bytes, which no sweep reads).
// Reset, WakeAll and EndRound run between rounds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/graph.h"

namespace kcore::distsim {

class Frontier {
 public:
  // Nodes [lo, hi), every one visited next round; no pushes.
  void Reset(graph::NodeId lo, graph::NodeId hi) {
    lo_ = lo;
    cur_.assign(hi - lo, 0);
    next_.assign(hi - lo, 0);
    all_ = true;
    pushing_ = false;
  }

  // Every node is visited next round.
  void WakeAll() { all_ = true; }

  // Whether this round's changed nodes wake their neighbors (Push).
  bool pushing() const { return pushing_; }

  // Calls visit(v), in ascending order, for every v in [b, e) the round
  // visits — halted ones included when their byte is set (the runtime
  // settles those without running them) — clearing v's byte first.
  template <typename Visit>
  void Sweep(graph::NodeId b, graph::NodeId e, Visit&& visit) {
    std::uint8_t* w = cur_.data();
    std::size_t i = b - lo_;
    const std::size_t end = e - lo_;
    if (all_) {
      for (; i < end; ++i) {
        w[i] = 0;
        visit(static_cast<graph::NodeId>(lo_ + i));
      }
      return;
    }
    // The set bytes are few: skip zero words.
    for (; i < end && (i % 8) != 0; ++i) Take(w, i, visit);
    for (; i + 8 <= end; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, w + i, sizeof(word));
      if (word == 0) continue;
      for (std::size_t j = i; j < i + 8; ++j) Take(w, j, visit);
    }
    for (; i < end; ++i) Take(w, i, visit);
  }

  // v is visited next round.
  void Wake(graph::NodeId v) { Set(v - lo_); }

  // v's neighbors in [lo, hi) are visited next round.
  void Push(const graph::Graph& g, graph::NodeId v) {
    for (const graph::AdjEntry& a : g.Neighbors(v)) {
      const std::size_t i = a.to - lo_;  // wraps below lo
      if (i < next_.size()) Set(i);
    }
  }

  // Ends the round: the next one visits the nodes woken during this one
  // (every node, after WakeAll), and pushes iff `push`.
  void EndRound(bool push) {
    cur_.swap(next_);
    all_ = false;
    pushing_ = push;
  }

 private:
  template <typename Visit>
  void Take(std::uint8_t* w, std::size_t i, Visit& visit) const {
    if (w[i] == 0) return;
    w[i] = 0;
    visit(static_cast<graph::NodeId>(lo_ + i));
  }

  // Reads first: a hub's neighbors are mostly woken already, and a read
  // leaves the cache line shared between the threads.
  void Set(std::size_t i) {
    std::atomic_ref<std::uint8_t> b(next_[i]);
    if (b.load(std::memory_order_relaxed) == 0) {
      b.store(1, std::memory_order_relaxed);
    }
  }

  graph::NodeId lo_ = 0;
  std::vector<std::uint8_t> cur_;   // visit this round
  std::vector<std::uint8_t> next_;  // visit next round
  bool all_ = true;                 // every node, this round
  bool pushing_ = false;
};

}  // namespace kcore::distsim
