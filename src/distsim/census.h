// The broadcast half of the round census, kept as running sums over the
// broadcasts a runtime stages — the engine over the whole graph, a rank
// worker over its owned slice — and updated per CHANGED broadcast, so a
// round where few broadcasts change costs few updates (the
// change-driven rounds of broadcast_store.h). A broadcast nobody changed
// keeps contributing what it contributed the round before.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "distsim/broadcast_store.h"
#include "graph/graph.h"
#include "util/u64_set.h"
#include "util/wire.h"

namespace kcore::distsim {

// Exact bytes one staged broadcast occupies in a packed broadcast
// segment: varint broadcaster id + varint payload length + 8 bytes per
// entry. The CONGEST fan-out rule: exactly ONE copy of this ships to
// each REMOTE rank owning at least one of the broadcaster's neighbors
// (never once per neighbor — dedup before packing), and none to the
// broadcaster's own rank, where the value is a shared-memory read.
// Absolute encoding, so the analytic in-engine census
// (RoundStats::bcast_bytes_*) and the per-rank measured volume agree
// byte for byte.
inline std::uint64_t WireBroadcastBytes(std::uint64_t v, std::size_t size) {
  return util::VarintSize(v) + util::VarintSize(size) + 8 * size;
}
inline std::uint64_t WireBroadcastBytes(std::uint64_t v,
                                        std::span<const double> p) {
  return WireBroadcastBytes(v, p.size());
}

// The broadcast fan-out of nodes [lo, hi) under a rank topology, built
// once per run by one walk of their adjacency: each node's remote ranks
// (those owning one of its neighbors, other than its own; ascending,
// deduplicated) and its number of remote neighbors. The engine prices
// RoundStats::bcast_bytes_* with it; a rank worker also routes its
// fan-out records by it.
class FanOutTable {
 public:
  // `g` holds every edge incident to [lo, hi) (the full graph or a rank's
  // slice); rank_bounds holds the ascending rank boundaries.
  void Build(const graph::Graph& g, const std::uint64_t* rank_bounds,
             graph::NodeId lo, graph::NodeId hi) {
    lo_ = lo;
    off_.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
    ranks_.clear();
    remote_nbrs_.assign(hi - lo, 0);
    int home = 0;
    for (graph::NodeId v = lo; v < hi; ++v) {
      while (v >= rank_bounds[home + 1]) ++home;
      // Owner ranks are non-decreasing along the id-sorted adjacency, so
      // a moving cursor finds each neighbor's owner and dedups the list.
      int r = 0;
      int last_remote = -1;
      for (const graph::AdjEntry& a : g.Neighbors(v)) {
        while (a.to >= rank_bounds[r + 1]) ++r;
        if (r == home) continue;
        ++remote_nbrs_[v - lo];
        if (r != last_remote) {
          ranks_.push_back(r);
          last_remote = r;
        }
      }
      off_[v - lo + 1] = ranks_.size();
    }
  }

  bool empty() const { return off_.empty(); }
  // v's remote ranks, ascending.
  std::span<const int> Ranks(graph::NodeId v) const {
    return {ranks_.data() + off_[v - lo_], off_[v - lo_ + 1] - off_[v - lo_]};
  }
  std::size_t RemoteNeighbors(graph::NodeId v) const {
    return remote_nbrs_[v - lo_];
  }

 private:
  graph::NodeId lo_ = 0;
  std::vector<std::size_t> off_;
  std::vector<int> ranks_;
  std::vector<std::uint32_t> remote_nbrs_;
};

// The census changes of one compute chunk's changed broadcasts in one
// round. Sums are modular, so they add into the running BroadcastCensus
// exactly whatever the signs.
struct BroadcastTally {
  std::uint64_t messages = 0;  // sum of degree over present broadcasts
  std::uint64_t entries = 0;   // sum of degree x payload length
  // Fan-out model bytes (with a FanOutTable): each broadcast once per
  // remote rank / once per remote neighbor.
  std::uint64_t fanout_bytes = 0;
  std::uint64_t neighbor_bytes = 0;
  // Largest payload among the broadcasts counted in (a running max over
  // rounds is the caller's).
  std::size_t max_entries = 0;
  // First-entry bit patterns of non-empty broadcasts counted in and out.
  util::U64DeltaMap values;

  // Replaces v's contribution `before` with `after` (either may be
  // absent). `degree` is v's degree; `fan` is null without a rank
  // topology.
  void Change(graph::NodeId v, std::size_t degree, BroadcastView before,
              BroadcastView after, const FanOutTable* fan) {
    Count(v, degree, before, fan, /*sign=*/-1);
    Count(v, degree, after, fan, /*sign=*/1);
    if (after) max_entries = std::max(max_entries, after.size());
  }

  // Zeroes the tally, keeping its storage.
  void Clear() {
    messages = entries = fanout_bytes = neighbor_bytes = 0;
    max_entries = 0;
    values.Clear();
  }

 private:
  void Count(graph::NodeId v, std::size_t degree, BroadcastView b,
             const FanOutTable* fan, int sign) {
    if (!b) return;
    const auto s = static_cast<std::uint64_t>(sign);  // modular +-1
    messages += s * degree;
    entries += s * degree * b.size();
    if (fan != nullptr) {
      const std::uint64_t bytes = WireBroadcastBytes(v, b.size());
      fanout_bytes += s * bytes * fan->Ranks(v).size();
      neighbor_bytes += s * bytes * fan->RemoteNeighbors(v);
    }
    if (!b.empty()) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(double));
      std::memcpy(&bits, b.begin(), sizeof(bits));
      values.Add(bits, sign);
    }
  }
};

// The running census of every broadcast a runtime stages.
struct BroadcastCensus {
  std::uint64_t messages = 0;
  std::uint64_t entries = 0;
  std::uint64_t fanout_bytes = 0;
  std::uint64_t neighbor_bytes = 0;
  // Non-empty broadcasts by first-entry bit pattern; its size() is
  // RoundStats::distinct_values.
  util::U64Multiset values;

  void Merge(const BroadcastTally& d) {
    messages += d.messages;
    entries += d.entries;
    fanout_bytes += d.fanout_bytes;
    neighbor_bytes += d.neighbor_bytes;
    d.values.ForEach(
        [&](std::uint64_t bits, std::int64_t delta) { values.Add(bits, delta); });
  }
};

}  // namespace kcore::distsim
