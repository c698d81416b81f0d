// The double-buffered broadcast slots behind NodeContext::Broadcast and
// NodeContext::NeighborBroadcast — one store type for both compute
// modes: the engine holds one over the full graph, and each per-rank
// worker (process_transport.cc) holds one whose owned slots it computes
// and whose remote slots it fills from its peers' fan-out.
//
// Layout: every node owns one fixed-size slot per buffer — a presence
// stamp, the payload length, and inline room for kInline doubles, which
// covers every paper family (they broadcast one or two reals). A longer
// payload spills into a per-node overflow vector; the overflow table is
// created on the first long payload (so short-payload protocols never
// pay for it) and its vectors keep their capacity, so a protocol whose
// payload lengths repeat stops allocating after its first rounds.
//
// Presence is an epoch stamp rather than a flag that must be cleared:
// a slot is present iff its stamp equals its buffer's epoch, and every
// Publish hands the emptied staging buffer a fresh epoch, so publishing
// is O(1) — no per-round sweep over n slots, and a worker's remote
// slots from an earlier round lapse on their own.
//
// Changed flags: every buffer also keeps one byte per node saying
// whether the node's broadcast there is bitwise equal (presence, length,
// and every entry's bit pattern) to its previous visible broadcast —
// Stage compares against Visible; on a rank worker a delivered record
// is always a change and a carried copy never is (see below). Protocols
// read the visible side through NodeContext::NeighborsUnchanged to skip
// recomputing from inputs that did not move; that test touches these n
// bytes instead of the 24-byte slots. A byte means "unchanged" only when
// it equals its buffer's current tag, and every Publish gives the
// emptied buffer a fresh tag, so stale bytes — and with them absent
// slots — read as changed without a sweep (one sweep of the n bytes
// every 255 uses of a buffer, when its byte-sized tag wraps). Reset,
// ClaimVisible and ClearVisible mark the slot changed.
//
// Change-driven fan-out: a rank worker ships a remote rank only the
// broadcasts whose staged changed byte is clear (StagedUnchanged), plus
// a tombstone for each one that went absent. The receiver, after
// Publish, Delivers the records, Retracts the tombstoned nodes, and
// Carries every other remote node it reads: the previous visible slot,
// still in the staging buffer (which only owned nodes stage into), is
// copied forward as present and unchanged — or left absent if it was.
//
// Concurrency: Stage/ClaimVisible for distinct nodes may run
// concurrently (disjoint slots and flag bytes; the one-time overflow
// setup is guarded by a once_flag); everything else runs between rounds.
// Stage writes the staging buffer's flags while neighbors read the
// visible buffer's, so the two never share a byte.
#pragma once

#include <algorithm>
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

  // Sizes both buffers for n nodes, every slot absent. Call once,
  // before any other member.
  void Reset(graph::NodeId n) {
    for (Buffer* b : {&prev_, &next_}) {
      b->slots.assign(n, Slot{});
      b->same.assign(n, 0);
      b->tag = 1;
    }
    prev_.epoch = 1;
    next_.epoch = 2;
    epoch_ = 2;
  }

  // The previous round's broadcast of v (what neighbors read).
  BroadcastView Visible(graph::NodeId v) const { return prev_.View(v); }
  // The broadcast v staged this round (what the census and packers read).
  BroadcastView Staged(graph::NodeId v) const { return next_.View(v); }

  // Whether v's visible broadcast is present and bitwise equal to its
  // visible broadcast of the round before (see "Changed flags" above).
  bool VisibleUnchanged(graph::NodeId v) const {
    return prev_.same[v] == prev_.tag;
  }

  // Whether v staged a broadcast this round that is present and bitwise
  // equal to its visible one (the flag Stage set). Read before Publish.
  bool StagedUnchanged(graph::NodeId v) const {
    return next_.same[v] == next_.tag;
  }

  // Stages v's broadcast for the next round, replacing any earlier one,
  // and flags it changed unless it equals v's visible broadcast.
  void Stage(graph::NodeId v, std::span<const double> p) {
    const bool same = BitwiseEqual(p, Visible(v));
    const std::span<double> dst = Claim(next_, v, p.size());
    std::copy(p.begin(), p.end(), dst.begin());
    next_.same[v] = same ? next_.tag : 0;
  }

  // Makes p node v's visible broadcast after a Publish, flagged changed:
  // for a rank worker decoding a peer's fan-out record for a node it
  // does not own, and the owner ships a record only when the broadcast
  // changed.
  void Deliver(graph::NodeId v, std::span<const double> p) {
    const std::span<double> dst = Claim(prev_, v, p.size());
    std::copy(p.begin(), p.end(), dst.begin());
    prev_.same[v] = 0;
  }

  // After a Publish, for a node v whose owner withdrew its broadcast (a
  // tombstone): drops v's previous visible broadcast, so Carry leaves v
  // absent this round.
  void Retract(graph::NodeId v) { next_.slots[v].stamp = 0; }

  // After a Publish, for a node v that got no record this round: keeps
  // its previous visible broadcast visible, flagged unchanged. A no-op
  // when v was delivered this round or was absent (or retracted).
  void Carry(graph::NodeId v) {
    if (prev_.slots[v].stamp == prev_.epoch) return;  // delivered
    const Slot& old = next_.slots[v];
    if (old.stamp == 0 || old.stamp != next_.retired) return;  // absent
    const std::size_t size = old.size;
    const BroadcastView from = next_.Data(v, size);
    const std::span<double> dst = Claim(prev_, v, size);
    std::copy(from.begin(), from.end(), dst.begin());
    prev_.same[v] = prev_.tag;
  }

  // Marks v's visible slot present (and changed) with `size` entries and
  // returns them for the caller to fill: the coordinator loading fetched
  // worker state.
  std::span<double> ClaimVisible(graph::NodeId v, std::size_t size) {
    prev_.same[v] = 0;
    return Claim(prev_, v, size);
  }
  void ClearVisible(graph::NodeId v) {
    prev_.slots[v].stamp = 0;
    prev_.same[v] = 0;
  }

  // Whether any node in [lo, hi) staged a broadcast that differs from
  // its visible one — in presence, length, or any entry (compared with
  // ==, as std::vector<double> equality does). Read before Publish.
  bool StagedDiffers(graph::NodeId lo, graph::NodeId hi) const {
    for (graph::NodeId v = lo; v < hi; ++v) {
      const BroadcastView a = Staged(v);
      const BroadcastView b = Visible(v);
      if (a.present() != b.present()) return true;
      if (a.present() &&
          !std::equal(a.begin(), a.end(), b.begin(), b.end())) {
        return true;
      }
    }
    return false;
  }

  // Staged broadcasts become visible; the staging buffer starts empty.
  void Publish() {
    std::swap(prev_, next_);
    next_.retired = next_.epoch;
    next_.epoch = ++epoch_;
    if (++next_.tag == 0) {
      std::fill(next_.same.begin(), next_.same.end(), std::uint8_t{0});
      next_.tag = 1;
    }
  }

 private:
  struct Slot {
    std::uint32_t stamp = 0;  // == the buffer's epoch iff present
    std::uint32_t size = 0;
    double inline_data[kInline] = {};
  };
  struct Buffer {
    std::vector<Slot> slots;
    // Per-node storage for payloads longer than kInline; empty until the
    // first one (then sized n, in both buffers at once).
    std::vector<std::vector<double>> overflow;
    // Changed flags: same[v] == tag iff v's slot was filled this epoch
    // with its previous visible broadcast, bit for bit. tag is never 0.
    std::vector<std::uint8_t> same;
    std::uint8_t tag = 1;
    std::uint32_t epoch = 0;
    // The epoch this buffer had while it was last the visible one (0:
    // never; no slot is stamped 0 while present).
    std::uint32_t retired = 0;

    BroadcastView View(graph::NodeId v) const {
      const Slot& s = slots[v];
      if (s.stamp != epoch) return {};
      return Data(v, s.size);
    }
    BroadcastView Data(graph::NodeId v, std::size_t size) const {
      return {size <= kInline ? slots[v].inline_data : overflow[v].data(),
              size};
    }
  };

  // Presence, length and entry bit patterns all equal (so 0.0 and -0.0
  // differ, and a NaN equals only its own bit pattern).
  static bool BitwiseEqual(std::span<const double> p, BroadcastView b) {
    return b.present() && b.size() == p.size() &&
           (p.empty() ||
            std::memcmp(p.data(), b.begin(), p.size() * sizeof(double)) == 0);
  }

  std::span<double> Claim(Buffer& b, graph::NodeId v, std::size_t size) {
    Slot& s = b.slots[v];
    s.stamp = b.epoch;
    s.size = static_cast<std::uint32_t>(size);
    if (size <= kInline) return {s.inline_data, size};
    std::call_once(overflow_once_, [this] {
      prev_.overflow.resize(prev_.slots.size());
      next_.overflow.resize(next_.slots.size());
    });
    std::vector<double>& o = b.overflow[v];
    o.resize(size);
    return o;
  }

  Buffer prev_, next_;
  // The last epoch handed out; strictly increasing, so a stamp left in a
  // buffer never matches a later epoch of either buffer.
  std::uint32_t epoch_ = 0;
  std::once_flag overflow_once_;
};

}  // namespace kcore::distsim
