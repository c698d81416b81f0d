// Changed stamps of distsim::BroadcastStore: what counts as a change
// (presence, length, entry bit patterns), which operations force one,
// what the change lists and the quiescence predicate hold, and that a
// rank worker's change-driven Deliver/Retract path stamps exactly what
// the engine's Stage/Settle path stamps for the same broadcast sequence,
// over many rounds.
#include "distsim/broadcast_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace kcore::distsim {
namespace {

using Bcast = std::optional<std::vector<double>>;

// One engine-style round in which node 0 runs: stage `p` (or nothing),
// settle, publish, and report whether the newly visible broadcast is
// stamped unchanged.
bool StageRound(BroadcastStore& s, const Bcast& p) {
  if (p) s.Stage(0, *p);
  s.Settle(0, 0);
  s.Publish();
  return s.VisibleUnchanged(0);
}

// The same round as a rank worker sees a node it does not own: the
// owner's store stages `p` (or nothing), settles, and ships what its
// change list holds — a record if the broadcast changed, a tombstone if
// it went absent — and the receiving worker s publishes and applies it.
bool DeltaRound(BroadcastStore& owner, BroadcastStore& s, const Bcast& p) {
  if (p) owner.Stage(0, *p);
  const bool changed = owner.Settle(0, 0);
  EXPECT_EQ(owner.Pending(0).size(), changed ? 1u : 0u);
  const BroadcastView staged = owner.Staged(0);
  const std::vector<double> payload(staged.begin(), staged.end());
  owner.Publish();
  s.Publish();
  if (changed && staged) s.Deliver(0, payload);
  if (changed && !staged) s.Retract(0);
  return s.VisibleUnchanged(0);
}

// Both present with equal lengths and entry bit patterns.
bool SameBits(const Bcast& a, const Bcast& b) {
  return a && b &&
         std::equal(a->begin(), a->end(), b->begin(), b->end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

TEST(BroadcastStoreChangedFlags, RestagingAnEqualPayloadIsUnchanged) {
  BroadcastStore s;
  s.Reset(2);
  EXPECT_FALSE(s.VisibleUnchanged(0));  // Reset: absent, so changed
  EXPECT_FALSE(StageRound(s, Bcast{{1.5}}));  // absent -> present
  EXPECT_TRUE(StageRound(s, Bcast{{1.5}}));
  EXPECT_TRUE(StageRound(s, Bcast{{1.5}}));
  // Only the last Stage of a round counts.
  s.Stage(0, std::vector<double>{9.0});
  s.Stage(0, std::vector<double>{1.5});
  EXPECT_FALSE(s.Settle(0, 0));
  s.Publish();
  EXPECT_TRUE(s.VisibleUnchanged(0));
  // Empty payloads compare equal to each other.
  EXPECT_FALSE(StageRound(s, Bcast{std::vector<double>{}}));
  EXPECT_TRUE(StageRound(s, Bcast{std::vector<double>{}}));
  // Node 1 never broadcast: absent, so changed.
  EXPECT_FALSE(s.VisibleUnchanged(1));
}

TEST(BroadcastStoreChangedFlags, ValueLengthAndPresenceChangesAreChanged) {
  BroadcastStore s;
  s.Reset(1);
  StageRound(s, Bcast{{1.0}});
  EXPECT_FALSE(StageRound(s, Bcast{{2.0}}));       // value
  EXPECT_FALSE(StageRound(s, Bcast{{2.0, 0.0}}));  // length
  EXPECT_TRUE(StageRound(s, Bcast{{2.0, 0.0}}));
  // Payloads longer than kInline live in the overflow vectors.
  EXPECT_FALSE(StageRound(s, Bcast{{2.0, 0.0, 3.0}}));
  EXPECT_TRUE(StageRound(s, Bcast{{2.0, 0.0, 3.0}}));
  EXPECT_FALSE(StageRound(s, Bcast{{2.0, 0.0, 4.0}}));
  EXPECT_FALSE(StageRound(s, Bcast{{2.0, 0.0}}));
  EXPECT_FALSE(StageRound(s, std::nullopt));  // presence: gone
  EXPECT_FALSE(StageRound(s, std::nullopt));  // absent stays changed
  EXPECT_FALSE(StageRound(s, Bcast{{2.0, 0.0}}));  // back
  EXPECT_TRUE(StageRound(s, Bcast{{2.0, 0.0}}));
}

TEST(BroadcastStoreChangedFlags, SignedZeroAndNaNCompareBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(nan) | 1u);
  BroadcastStore s;
  s.Reset(1);
  StageRound(s, Bcast{{0.0}});
  EXPECT_FALSE(StageRound(s, Bcast{{-0.0}}));
  EXPECT_TRUE(StageRound(s, Bcast{{-0.0}}));
  EXPECT_FALSE(StageRound(s, Bcast{{nan}}));
  EXPECT_TRUE(StageRound(s, Bcast{{nan}}));
  EXPECT_FALSE(StageRound(s, Bcast{{other_nan}}));

  // PublishedDiffers keeps == semantics (quiescence must not move): a
  // sign flip of zero is no difference there, a repeated NaN always is —
  // also from a node that did not run (a sleeping node re-stages it).
  StageRound(s, Bcast{{0.0}});
  EXPECT_FALSE(StageRound(s, Bcast{{-0.0}}));
  EXPECT_FALSE(s.PublishedDiffers());
  StageRound(s, Bcast{{nan}});
  EXPECT_TRUE(s.PublishedDiffers());
  EXPECT_TRUE(StageRound(s, Bcast{{nan}}));
  EXPECT_TRUE(s.PublishedDiffers());
  s.Publish();  // node 0 not settled: it keeps its NaN
  EXPECT_TRUE(s.PublishedDiffers());
  StageRound(s, Bcast{{1.0}});
  EXPECT_TRUE(s.PublishedDiffers());  // NaN -> 1.0
  StageRound(s, Bcast{{1.0}});
  EXPECT_FALSE(s.PublishedDiffers());
  s.Publish();
  EXPECT_FALSE(s.PublishedDiffers());
  StageRound(s, std::nullopt);
  EXPECT_TRUE(s.PublishedDiffers());  // present -> absent
}

TEST(BroadcastStoreChangedFlags, ChangeListsHoldExactlyTheChangedNodes) {
  // Three nodes settle into two lists; a node the round does not visit
  // (never settled) keeps its visible broadcast, as if it re-staged it.
  BroadcastStore s;
  s.Reset(4, 2);
  for (graph::NodeId v = 0; v < 4; ++v) {
    s.Stage(v, std::vector<double>{static_cast<double>(v)});
    EXPECT_TRUE(s.Settle(v, v % 2));
  }
  EXPECT_EQ(std::vector<graph::NodeId>(s.Pending(0).begin(),
                                       s.Pending(0).end()),
            (std::vector<graph::NodeId>{0, 2}));
  EXPECT_TRUE(s.Changes(0).empty());  // nothing published yet
  s.Publish();
  EXPECT_TRUE(s.Pending(0).empty());
  EXPECT_EQ(s.Changes(1).size(), 2u);
  for (graph::NodeId v = 0; v < 4; ++v) {
    EXPECT_FALSE(s.VisibleUnchanged(v));
  }

  s.Stage(0, std::vector<double>{0.0});  // same
  EXPECT_FALSE(s.Settle(0, 0));
  s.Stage(1, std::vector<double>{9.0, 8.0, 7.0});  // new, overflow
  EXPECT_TRUE(s.Settle(1, 1));
  EXPECT_TRUE(s.Settle(2, 0));  // ran, staged nothing: goes absent
  EXPECT_FALSE(s.Staged(2).present());
  EXPECT_EQ(s.Visible(2)[0], 2.0);  // neighbors still read the old one
  EXPECT_EQ(s.Staged(3)[0], 3.0);   // node 3 did not run
  s.Publish();
  EXPECT_EQ(s.Changes(0).size(), 1u);
  EXPECT_EQ(s.Changes(1).size(), 1u);
  EXPECT_TRUE(s.VisibleUnchanged(0));
  EXPECT_FALSE(s.VisibleUnchanged(1));
  EXPECT_EQ(s.Visible(1).size(), 3u);
  EXPECT_EQ(s.Visible(1)[2], 7.0);
  EXPECT_FALSE(s.Visible(2).present());
  EXPECT_FALSE(s.VisibleUnchanged(2));
  EXPECT_TRUE(s.VisibleUnchanged(3));
  EXPECT_EQ(s.Visible(3)[0], 3.0);

  // An absent node that runs silent again is no change.
  EXPECT_FALSE(s.Settle(2, 0));
  s.Publish();
  EXPECT_TRUE(s.Changes(0).empty());
  EXPECT_TRUE(s.Changes(1).empty());
  EXPECT_FALSE(s.Visible(2).present());
}

TEST(BroadcastStoreChangedFlags, ClaimAndClearVisibleMarkChanged) {
  BroadcastStore s;
  s.Reset(1);
  StageRound(s, Bcast{{4.0}});
  ASSERT_TRUE(StageRound(s, Bcast{{4.0}}));
  for (double& x : s.ClaimVisible(0, 1)) x = 4.0;  // same payload
  EXPECT_FALSE(s.VisibleUnchanged(0));
  ASSERT_TRUE(s.Visible(0).present());
  EXPECT_TRUE(StageRound(s, Bcast{{4.0}}));
  s.ClearVisible(0);
  EXPECT_FALSE(s.VisibleUnchanged(0));
  EXPECT_FALSE(s.Visible(0).present());
}

TEST(BroadcastStoreChangedFlags, WorkerDeliveryOverTwoRounds) {
  // A worker owning node 1 and reading node 0 from a peer.
  BroadcastStore peer, s;
  peer.Reset(2);
  s.Reset(2);
  s.Stage(1, std::vector<double>{7.0});
  EXPECT_TRUE(s.Settle(1, 0));
  EXPECT_FALSE(DeltaRound(peer, s, Bcast{{5.0}}));  // first delivery
  EXPECT_FALSE(s.VisibleUnchanged(1));
  s.Stage(1, std::vector<double>{7.0});
  EXPECT_FALSE(s.Settle(1, 0));
  EXPECT_TRUE(DeltaRound(peer, s, Bcast{{5.0}}));  // same: nothing shipped
  EXPECT_TRUE(s.VisibleUnchanged(1));  // owned, same as last round
  EXPECT_EQ(s.Visible(0)[0], 5.0);
  EXPECT_FALSE(DeltaRound(peer, s, Bcast{{5.0, 1.0, 2.0}}));
  EXPECT_TRUE(DeltaRound(peer, s, Bcast{{5.0, 1.0, 2.0}}));
  EXPECT_FALSE(DeltaRound(peer, s, std::nullopt));  // tombstone: absent
  EXPECT_FALSE(s.Visible(0).present());
  EXPECT_FALSE(DeltaRound(peer, s, Bcast{{5.0, 1.0, 2.0}}));
}

TEST(BroadcastStoreChangedFlags, StaleFlagsNeverReadUnchanged) {
  // An unchanged stamp must not come back to life over a long silence.
  for (bool worker : {false, true}) {
    SCOPED_TRACE(worker);
    BroadcastStore owner, s;
    owner.Reset(1);
    s.Reset(1);
    auto round = [&](BroadcastStore& into, const Bcast& p) {
      return worker ? DeltaRound(owner, into, p) : StageRound(into, p);
    };
    round(s, Bcast{{3.0}});
    ASSERT_TRUE(round(s, Bcast{{3.0}}));
    ASSERT_TRUE(round(s, Bcast{{3.0}}));
    for (int t = 0; t < 1100; ++t) {
      ASSERT_FALSE(round(s, std::nullopt)) << "silent round " << t;
    }
    EXPECT_FALSE(round(s, Bcast{{3.0}}));
    EXPECT_TRUE(round(s, Bcast{{3.0}}));
  }
}

TEST(BroadcastStoreChangedFlags, RemoteSlotKeepsAnOverflowPayload) {
  // A worker owning node 1 and reading node 0 from a peer.
  BroadcastStore s;
  s.Reset(2);
  s.Publish();
  s.Deliver(0, std::vector<double>{5.0, -0.0, 7.0});
  EXPECT_FALSE(s.VisibleUnchanged(0));
  for (int t = 0; t < 4; ++t) {
    s.Publish();
    ASSERT_TRUE(s.Visible(0).present()) << "round " << t;
    EXPECT_TRUE(s.VisibleUnchanged(0));
    ASSERT_TRUE(SameBits(Bcast{{5.0, -0.0, 7.0}},
                         Bcast{std::vector<double>(s.Visible(0).begin(),
                                                   s.Visible(0).end())}));
  }
  // A record replaces it, in either length class.
  s.Publish();
  s.Deliver(0, std::vector<double>{5.0});
  EXPECT_FALSE(s.VisibleUnchanged(0));
  EXPECT_EQ(s.Visible(0).size(), 1u);
  s.Publish();
  EXPECT_TRUE(s.VisibleUnchanged(0));
  EXPECT_EQ(s.Visible(0)[0], 5.0);
  // Owned node 1 never staged: absent, whatever happens to node 0.
  EXPECT_FALSE(s.Visible(1).present());
}

TEST(BroadcastStoreChangedFlags, RemoteSlotKeptAcrossManyPublishes) {
  BroadcastStore s;
  s.Reset(1);
  s.Publish();
  s.Deliver(0, std::vector<double>{3.0, 4.0, 5.0});
  for (int t = 0; t < 1100; ++t) {
    s.Publish();
    ASSERT_TRUE(s.VisibleUnchanged(0)) << "round " << t;
    ASSERT_EQ(s.Visible(0).size(), 3u) << "round " << t;
    ASSERT_EQ(s.Visible(0)[2], 5.0) << "round " << t;
  }
  s.Publish();
  s.Deliver(0, std::vector<double>{3.0, 4.0, 6.0});
  EXPECT_FALSE(s.VisibleUnchanged(0));
  EXPECT_EQ(s.Visible(0)[2], 6.0);
}

TEST(BroadcastStoreChangedFlags, AbsentGhostStaysAbsent) {
  BroadcastStore s;
  s.Reset(1);
  // Never delivered: nothing to read.
  for (int t = 0; t < 3; ++t) {
    s.Publish();
    EXPECT_FALSE(s.Visible(0).present());
    EXPECT_FALSE(s.VisibleUnchanged(0));
  }
  s.Publish();
  s.Deliver(0, std::vector<double>{2.0});
  s.Publish();
  ASSERT_TRUE(s.VisibleUnchanged(0));
  // A tombstone: absent now, and absent in every later round — the copy
  // from two rounds back must not come back.
  s.Publish();
  s.Retract(0);
  EXPECT_FALSE(s.Visible(0).present());
  EXPECT_FALSE(s.VisibleUnchanged(0));
  for (int t = 0; t < 600; ++t) {
    s.Publish();
    ASSERT_FALSE(s.Visible(0).present()) << "round " << t;
    ASSERT_FALSE(s.VisibleUnchanged(0)) << "round " << t;
  }
  // Back with the value it had before: present again, and changed.
  s.Publish();
  s.Deliver(0, std::vector<double>{2.0});
  EXPECT_TRUE(s.Visible(0).present());
  EXPECT_FALSE(s.VisibleUnchanged(0));
}

TEST(BroadcastStoreChangedFlags, DeliverFlagsMatchStageFlagsOverManyRounds) {
  // A random broadcast sequence (repeats, switches, silences) over many
  // rounds: the worker's change-driven fan-out and the engine's
  // Stage/Settle path must stamp every round the same, exactly when the
  // broadcast repeats bit for bit, and leave the same payload bits
  // visible.
  util::Rng rng(23);
  const std::vector<Bcast> choices = {
      std::nullopt,      Bcast{{1.0}},      Bcast{{-0.0}},
      Bcast{{0.0}},      Bcast{{1.0, 2.0}}, Bcast{{1.0, 2.0, 3.0}},
      Bcast{std::vector<double>{}}, Bcast{{1.0, 2.0, 4.0}}};
  BroadcastStore engine_side, owner, worker_side;
  engine_side.Reset(1);
  owner.Reset(1);
  worker_side.Reset(1);
  Bcast last = std::nullopt;
  std::size_t unchanged = 0;
  for (int round = 0; round < 1200; ++round) {
    Bcast next = last;
    if (rng.NextBool(0.3)) next = choices[rng.NextBounded(choices.size())];
    const bool a = StageRound(engine_side, next);
    const bool b = DeltaRound(owner, worker_side, next);
    SCOPED_TRACE(round);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, SameBits(next, last));
    const BroadcastView want = engine_side.Visible(0);
    const BroadcastView got = worker_side.Visible(0);
    ASSERT_EQ(got.present(), want.present());
    if (want) {
      ASSERT_TRUE(SameBits(Bcast{std::vector<double>(got.begin(), got.end())},
                           Bcast{std::vector<double>(want.begin(),
                                                     want.end())}));
    }
    unchanged += a ? 1 : 0;
    last = next;
  }
  EXPECT_GT(unchanged, 300u);
  EXPECT_LT(unchanged, 1100u);
}

}  // namespace
}  // namespace kcore::distsim
