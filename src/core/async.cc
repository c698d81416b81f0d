#include "core/async.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "core/update.h"
#include "util/logging.h"

namespace kcore::core {
namespace {

using graph::NodeId;

struct Message {
  double time;
  NodeId to;
  std::uint32_t slot;  // index into `to`'s adjacency for the sender
  double value;
  std::uint64_t seq;   // FIFO tie-break for equal timestamps
  bool operator>(const Message& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

}  // namespace

AsyncResult RunAsyncCoreness(const graph::Graph& g, util::Rng& rng,
                             double max_delay, std::size_t message_budget) {
  KCORE_CHECK_MSG(!g.has_self_loops(), "simple graphs only");
  KCORE_CHECK(max_delay >= 1.0);
  const NodeId n = g.num_nodes();
  AsyncResult out;
  out.b.assign(n, std::numeric_limits<double>::infinity());

  // view[v][i]: last value received from neighbor #i of v.
  std::vector<std::vector<double>> view(n);
  std::vector<std::vector<std::uint32_t>> order(n);
  // For sending: the slot of v within each neighbor's adjacency.
  std::vector<std::vector<std::uint32_t>> peer_slot(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.Neighbors(v);
    view[v].assign(nbrs.size(), std::numeric_limits<double>::infinity());
    order[v].resize(nbrs.size());
    std::iota(order[v].begin(), order[v].end(), 0u);
    peer_slot[v].resize(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto peer = g.Neighbors(nbrs[i].to);
      // Find v in the neighbor's sorted adjacency.
      const auto it = std::lower_bound(
          peer.begin(), peer.end(), v,
          [](const graph::AdjEntry& a, NodeId x) { return a.to < x; });
      KCORE_CHECK(it != peer.end());
      peer_slot[v][i] = static_cast<std::uint32_t>(it - peer.begin());
    }
  }

  // Per-node delay streams, keyed forks of the caller's rng: the delays a
  // node attaches to its announcements depend only on (rng state, node id,
  // #announcements by that node), not on the global delivery interleaving
  // — the same per-entity stream discipline the synchronous engine uses.
  std::vector<util::Rng> delay_rng;
  delay_rng.reserve(n);
  for (NodeId v = 0; v < n; ++v) delay_rng.push_back(rng.ForkKeyed(v));

  std::priority_queue<Message, std::vector<Message>, std::greater<>> queue;
  std::uint64_t seq = 0;

  const auto recompute_and_send = [&](NodeId v, double now) {
    const auto nbrs = g.Neighbors(v);
    double nb = 0.0;
    if (!nbrs.empty()) {
      const std::span<double> weights =
          core::ThreadUpdateInputs(nbrs.size()).weights;
      for (std::size_t i = 0; i < nbrs.size(); ++i) weights[i] = nbrs[i].w;
      nb = core::UpdateStep(view[v], weights, order[v]);
    }
    if (nb >= out.b[v]) return;  // monotone descent only
    out.b[v] = nb;
    ++out.stats.value_changes;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      queue.push(Message{now + delay_rng[v].NextDouble(1.0, max_delay),
                         nbrs[i].to, peer_slot[v][i], nb, seq++});
    }
  };

  // Kick-off: everyone computes from the all-infinity view (yielding the
  // weighted degree) and announces it.
  for (NodeId v = 0; v < n; ++v) recompute_and_send(v, 0.0);

  while (!queue.empty()) {
    if (message_budget > 0 &&
        out.stats.messages_delivered >= message_budget) {
      break;  // failure injection: drop the rest of the traffic
    }
    out.stats.peak_in_flight =
        std::max(out.stats.peak_in_flight, queue.size());
    const Message m = queue.top();
    queue.pop();
    ++out.stats.messages_delivered;
    out.stats.virtual_makespan = m.time;
    // Stale-delivery guard: messages can arrive out of order; only a
    // strictly lower value is news (values descend monotonically).
    if (m.value >= view[m.to][m.slot]) continue;
    view[m.to][m.slot] = m.value;
    recompute_and_send(m.to, m.time);
  }
  return out;
}

}  // namespace kcore::core
