// The broadcast slots behind NodeContext::Broadcast and
// NodeContext::NeighborBroadcast — one store type for both compute
// modes: the engine holds one over the full graph, and each per-rank
// worker (process_transport.cc) holds one whose owned slots it computes
// and whose remote slots its peers' fan-out fills.
//
// Cost model: a round costs O(changes), not O(n). Every node has one
// VISIBLE slot (what its neighbors read this round) and one STAGED slot,
// and Stage writes the payload into the staged slot only when it differs
// from the visible one, bit for bit (presence, length and every entry's
// bit pattern, so 0.0 and -0.0 differ and a repeated NaN does not).
// After a node's Round, Settle decides whether its broadcast changes —
// a node that ran and staged nothing goes absent — and appends it to a
// change list (one per compute chunk, so chunks settle concurrently).
// Publish applies the lists: only the changed nodes' slots are copied
// into the visible side. A node the round did not visit (a sleeping or
// long-halted one) keeps its visible broadcast as if it had re-staged it.
//
// Slots: a fixed 24 bytes — a stamp, the payload length, and inline room
// for kInline doubles, which covers every paper family (they broadcast
// one or two reals). A longer payload spills into a per-node overflow
// vector; the overflow tables are created on the first long payload (so
// short-payload protocols never pay for them) and their vectors keep
// their capacity (Publish swaps a changed node's staged and visible
// vectors), so a protocol whose payload lengths repeat stops allocating
// after its first rounds. A staged slot counts only in the round whose
// stamp it carries, so nothing is swept between rounds.
//
// Changed stamps: one 32-bit stamp per node holds the Publish at which
// its visible broadcast last changed. NodeContext::NeighborsUnchanged
// reads it (VisibleUnchanged: present, and not changed at the latest
// Publish), O(1) per neighbor. Deliver, Retract, ClaimVisible and
// ClearVisible stamp the node changed. (The stamps compare equal again after 2^32
// rounds; no run comes near that.)
//
// Rank workers: an owner ships a remote rank its Pending changes — a
// record for a broadcast that changed, a tombstone for one that went
// absent — and the receiver, after its own Publish, Delivers the records
// and Retracts the tombstoned nodes. Every other remote slot simply
// keeps its value: with one visible slot per node, nothing needs
// carrying forward.
//
// Quiescence (Engine::RunUntilQuiescent) keeps == semantics, as a
// comparison of std::vector<double> payloads would: PublishedDiffers
// says whether the latest Publish changed any settled node's broadcast
// by ==, or whether any such node was showing a NaN (which never equals
// itself). It is kept from the change lists plus a running count of
// visible NaN-carrying broadcasts, so it costs O(changes) too.
//
// Concurrency: Stage and Settle for distinct nodes, into distinct change
// lists, may run concurrently (disjoint slots and stamps; the one-time
// overflow setup is guarded by a once_flag), and so may ApplyChanges for
// distinct lists; everything else runs between rounds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>  // std::once_flag
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace kcore::distsim {

// A read-only view of one node's broadcast: absent, or a run of doubles
// (possibly empty). Valid until the store's next Publish.
class BroadcastView {
 public:
  BroadcastView() = default;
  BroadcastView(const double* data, std::size_t size)
      : data_(data), size_(size) {}

  bool present() const { return data_ != nullptr; }
  explicit operator bool() const { return present(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double operator[](std::size_t k) const { return data_[k]; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }
  std::span<const double> span() const { return {data_, size_}; }

 private:
  const double* data_ = nullptr;  // null iff absent
  std::size_t size_ = 0;
};

class BroadcastStore {
 public:
  // Payload entries stored in the slot itself.
  static constexpr std::size_t kInline = 2;

  // Sizes the store for n nodes, every slot absent, with `lists` change
  // lists. Call once, before any other member.
  void Reset(graph::NodeId n, std::size_t lists = 1) {
    visible_.assign(n, Slot{});
    staged_.assign(n, Slot{});
    changed_at_.assign(n, 0);
    publishes_ = 0;
    nan_visible_ = 0;
    differs_ = false;
    lists_.assign(lists, ChangeList{});
  }

  // Resizes the set of change lists (between rounds; a no-op when the
  // count is unchanged).
  void SetLists(std::size_t lists) {
    if (lists != lists_.size()) lists_.resize(lists);
  }

  // The broadcast neighbors read this round.
  BroadcastView Visible(graph::NodeId v) const {
    const Slot& s = visible_[v];
    if (s.stamp == 0) return {};
    return Data(visible_overflow_, s, v);
  }

  // What v broadcasts this round once it has settled (Settle): its
  // staged payload if it changed, else its visible one — also the answer
  // for a node the round did not visit. Read before Publish.
  BroadcastView Staged(graph::NodeId v) const {
    const Slot& s = staged_[v];
    if (s.stamp != StageStamp() || s.size == kSame) return Visible(v);
    if (s.size == kGone) return {};
    return Data(staged_overflow_, s, v);
  }

  // Whether v's visible broadcast is present and bitwise equal to its
  // visible broadcast of the round before.
  bool VisibleUnchanged(graph::NodeId v) const {
    return changed_at_[v] != publishes_ && visible_[v].stamp != 0;
  }

  // Stages v's broadcast for the next round, replacing any earlier one
  // this round. Writes the payload only if it differs from v's visible
  // broadcast.
  void Stage(graph::NodeId v, std::span<const double> p) {
    Slot& s = staged_[v];
    s.stamp = StageStamp();
    if (BitwiseEqual(p, Visible(v))) {
      s.size = kSame;
      return;
    }
    const std::span<double> dst = Claim(staged_overflow_, s, v, p.size());
    std::copy(p.begin(), p.end(), dst.begin());
  }

  // Called once for v after a round ran v (or in place of running a
  // halted v): a v that staged nothing this round goes absent. Returns
  // true — and appends v to change list `list` — iff v's broadcast
  // differs from its visible one, in which case Visible(v) is the old
  // broadcast and Staged(v) the new one until Publish.
  bool Settle(graph::NodeId v, std::size_t list) {
    Slot& s = staged_[v];
    if (s.stamp != StageStamp()) {
      if (visible_[v].stamp == 0) return false;  // absent stays absent
      s.stamp = StageStamp();
      s.size = kGone;
    } else if (s.size == kSame) {
      return false;
    }
    ChangeList& l = lists_[list];
    if (l.stamp != StageStamp()) {
      l.nodes.clear();
      l.stamp = StageStamp();
      l.differs = false;
      l.nan_delta = 0;
    }
    l.nodes.push_back(v);
    const BroadcastView before = Visible(v);
    const BroadcastView after = Staged(v);
    l.differs = l.differs || !ValueEqual(before, after);
    l.nan_delta += (HasNaN(after) ? 1 : 0) - (HasNaN(before) ? 1 : 0);
    return true;
  }

  std::size_t num_lists() const { return lists_.size(); }

  // The nodes list `list` settled as changed this round (before Publish).
  std::span<const graph::NodeId> Pending(std::size_t list) const {
    return ListAt(list, StageStamp());
  }
  // The nodes of list `list` whose change the latest Publish applied.
  std::span<const graph::NodeId> Changes(std::size_t list) const {
    return ListAt(list, publishes_);
  }

  // The changed slots of list `list` become visible. Safe concurrently
  // for distinct lists; Publish (or ApplyChanges over every list, then
  // EndPublish) ends the round.
  void ApplyChanges(std::size_t list) {
    for (const graph::NodeId v : Pending(list)) {
      const Slot& s = staged_[v];
      Slot& d = visible_[v];
      changed_at_[v] = publishes_ + 1;
      if (s.size == kGone) {
        d.stamp = 0;
        continue;
      }
      d.stamp = 1;
      d.size = s.size;
      if (s.size <= kInline) {
        std::copy(s.inline_data, s.inline_data + s.size, d.inline_data);
      } else {
        std::swap(visible_overflow_[v], staged_overflow_[v]);
      }
    }
  }
  void EndPublish() {
    differs_ = nan_visible_ > 0;
    for (const ChangeList& l : lists_) {
      if (l.stamp != StageStamp()) continue;
      differs_ = differs_ || l.differs;
      nan_visible_ += l.nan_delta;
    }
    ++publishes_;
  }
  void Publish() {
    for (std::size_t l = 0; l < lists_.size(); ++l) ApplyChanges(l);
    EndPublish();
  }

  // Whether the latest Publish changed a settled node's broadcast by ==
  // (see "Quiescence" above).
  bool PublishedDiffers() const { return differs_; }

  // After a Publish, on a rank worker: makes p the visible broadcast of
  // a node it does not own (a peer's fan-out record), stamped changed.
  void Deliver(graph::NodeId v, std::span<const double> p) {
    const std::span<double> dst = ClaimVisible(v, p.size());
    std::copy(p.begin(), p.end(), dst.begin());
  }
  // After a Publish, on a rank worker: a tombstone — the owner withdrew
  // v's broadcast (halted or silent).
  void Retract(graph::NodeId v) { ClearVisible(v); }

  // Marks v's visible slot present (and changed) with `size` entries and
  // returns them for the caller to fill: the coordinator loading fetched
  // worker state, and Deliver.
  std::span<double> ClaimVisible(graph::NodeId v, std::size_t size) {
    changed_at_[v] = publishes_;
    Slot& s = visible_[v];
    s.stamp = 1;
    return Claim(visible_overflow_, s, v, size);
  }
  void ClearVisible(graph::NodeId v) {
    visible_[v].stamp = 0;
    changed_at_[v] = publishes_;
  }

 private:
  // Staged-slot sizes that carry no payload: the staged broadcast equals
  // the visible one, or the node goes absent.
  static constexpr std::uint32_t kSame = ~std::uint32_t{0};
  static constexpr std::uint32_t kGone = kSame - 1;

  struct Slot {
    // Visible: 1 iff present. Staged: the StageStamp of the round that
    // wrote it (stale in every later round).
    std::uint32_t stamp = 0;
    std::uint32_t size = 0;
    double inline_data[kInline] = {};
  };
  // One chunk's changed nodes for the round whose StageStamp it carries,
  // with what quiescence needs of them. A cache line each: chunks on
  // different threads append to their lists concurrently.
  struct alignas(64) ChangeList {
    std::uint32_t stamp = 0;
    std::vector<graph::NodeId> nodes;
    bool differs = false;         // some change differs by ==
    std::int64_t nan_delta = 0;  // NaN-carrying broadcasts gained
  };

  // The stamp of this round's stages: the Publish that will end it.
  std::uint32_t StageStamp() const { return publishes_ + 1; }

  std::span<const graph::NodeId> ListAt(std::size_t list,
                                        std::uint32_t stamp) const {
    const ChangeList& l = lists_[list];
    if (l.stamp != stamp) return {};
    return l.nodes;
  }

  static BroadcastView Data(const std::vector<std::vector<double>>& overflow,
                            const Slot& s, graph::NodeId v) {
    return {s.size <= kInline ? s.inline_data : overflow[v].data(), s.size};
  }

  // Presence, length and entry bit patterns all equal.
  static bool BitwiseEqual(std::span<const double> p, BroadcastView b) {
    return b.present() && b.size() == p.size() &&
           (p.empty() ||
            std::memcmp(p.data(), b.begin(), p.size() * sizeof(double)) == 0);
  }
  // Presence equal and entries equal by == (as std::vector<double>).
  static bool ValueEqual(BroadcastView a, BroadcastView b) {
    if (a.present() != b.present()) return false;
    return !a.present() || std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  static bool HasNaN(BroadcastView b) {
    return std::any_of(b.begin(), b.end(),
                       [](double x) { return std::isnan(x); });
  }

  std::span<double> Claim(std::vector<std::vector<double>>& overflow, Slot& s,
                          graph::NodeId v, std::size_t size) {
    s.size = static_cast<std::uint32_t>(size);
    if (size <= kInline) return {s.inline_data, size};
    std::call_once(overflow_once_, [this] {
      visible_overflow_.resize(visible_.size());
      staged_overflow_.resize(staged_.size());
    });
    std::vector<double>& o = overflow[v];
    o.resize(size);
    return o;
  }

  std::vector<Slot> visible_, staged_;
  // Per-node storage for payloads longer than kInline; empty until the
  // first one (then sized n, both at once).
  std::vector<std::vector<double>> visible_overflow_, staged_overflow_;
  std::vector<std::uint32_t> changed_at_;
  std::vector<ChangeList> lists_;
  std::uint32_t publishes_ = 0;
  // Visible broadcasts that carry a NaN, among nodes that settle here.
  std::int64_t nan_visible_ = 0;
  bool differs_ = false;
  std::once_flag overflow_once_;
};

}  // namespace kcore::distsim
