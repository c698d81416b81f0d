// Changed flags of distsim::BroadcastStore: what counts as a change
// (presence, length, entry bit patterns), which operations force one,
// and that a rank worker's change-driven Deliver/Retract/Carry path
// flags exactly what the engine's Stage path flags for the same
// broadcast sequence, across the wrap of the flags' byte-sized tags.
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

// One engine-style round for node 0: stage `p` (or nothing), publish,
// and report whether the newly visible broadcast is flagged unchanged.
bool StageRound(BroadcastStore& s, const Bcast& p) {
  if (p) s.Stage(0, *p);
  s.Publish();
  return s.VisibleUnchanged(0);
}

// The same round as a rank worker sees a node it does not own: the
// owner's store stages `p` (or nothing) and decides what to ship — a
// record if the staged broadcast changed, a tombstone if it went
// absent, else nothing — and the receiving worker s publishes, applies
// it, and carries node 0.
bool DeltaRound(BroadcastStore& owner, BroadcastStore& s, const Bcast& p) {
  if (p) owner.Stage(0, *p);
  const BroadcastView staged = owner.Staged(0);
  const bool record = staged && !owner.StagedUnchanged(0);
  const bool tombstone = !staged && owner.Visible(0);
  const std::vector<double> payload(staged.begin(), staged.end());
  owner.Publish();
  s.Publish();
  if (record) s.Deliver(0, payload);
  if (tombstone) s.Retract(0);
  s.Carry(0);
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

  // StagedDiffers keeps == semantics (quiescence must not move): a sign
  // flip of zero is no difference there, a repeated NaN always is.
  s.Stage(0, std::vector<double>{0.0});
  s.Publish();
  s.Stage(0, std::vector<double>{-0.0});
  EXPECT_FALSE(s.StagedDiffers(0, 1));
  s.Publish();
  EXPECT_FALSE(s.VisibleUnchanged(0));
  s.Stage(0, std::vector<double>{nan});
  s.Publish();
  s.Stage(0, std::vector<double>{nan});
  EXPECT_TRUE(s.StagedDiffers(0, 1));
  s.Publish();
  EXPECT_TRUE(s.VisibleUnchanged(0));
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
  EXPECT_FALSE(DeltaRound(peer, s, Bcast{{5.0}}));  // first delivery
  EXPECT_FALSE(s.VisibleUnchanged(1));
  s.Stage(1, std::vector<double>{7.0});
  EXPECT_TRUE(DeltaRound(peer, s, Bcast{{5.0}}));  // same: carried
  EXPECT_TRUE(s.VisibleUnchanged(1));  // owned, same as last round
  EXPECT_EQ(s.Visible(0)[0], 5.0);
  EXPECT_FALSE(DeltaRound(peer, s, Bcast{{5.0, 1.0, 2.0}}));
  EXPECT_TRUE(DeltaRound(peer, s, Bcast{{5.0, 1.0, 2.0}}));
  EXPECT_FALSE(DeltaRound(peer, s, std::nullopt));  // tombstone: absent
  EXPECT_FALSE(s.Visible(0).present());
  EXPECT_FALSE(DeltaRound(peer, s, Bcast{{5.0, 1.0, 2.0}}));
}

TEST(BroadcastStoreChangedFlags, StaleFlagsNeverReadUnchanged) {
  // An unchanged flag written once must not come back to life when the
  // buffers' tags wrap while the node stays silent.
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

TEST(BroadcastStoreChangedFlags, CarryKeepsAnOverflowPayload) {
  // A worker owning node 1 and reading node 0 from a peer.
  BroadcastStore s;
  s.Reset(2);
  s.Publish();
  s.Deliver(0, std::vector<double>{5.0, -0.0, 7.0});
  EXPECT_FALSE(s.VisibleUnchanged(0));
  for (int t = 0; t < 4; ++t) {
    s.Publish();
    s.Carry(0);
    ASSERT_TRUE(s.Visible(0).present()) << "round " << t;
    EXPECT_TRUE(s.VisibleUnchanged(0));
    ASSERT_TRUE(SameBits(Bcast{{5.0, -0.0, 7.0}},
                         Bcast{std::vector<double>(s.Visible(0).begin(),
                                                   s.Visible(0).end())}));
  }
  // A record wins over the carry, in either length class.
  s.Publish();
  s.Deliver(0, std::vector<double>{5.0});
  s.Carry(0);
  EXPECT_FALSE(s.VisibleUnchanged(0));
  EXPECT_EQ(s.Visible(0).size(), 1u);
  s.Publish();
  s.Carry(0);
  EXPECT_TRUE(s.VisibleUnchanged(0));
  EXPECT_EQ(s.Visible(0)[0], 5.0);
  // Owned node 1 never staged: absent, whatever happens to node 0.
  EXPECT_FALSE(s.Visible(1).present());
}

TEST(BroadcastStoreChangedFlags, CarryAcrossTagWrap) {
  BroadcastStore s;
  s.Reset(1);
  s.Publish();
  s.Deliver(0, std::vector<double>{3.0, 4.0, 5.0});
  for (int t = 0; t < 1100; ++t) {
    s.Publish();
    s.Carry(0);
    ASSERT_TRUE(s.VisibleUnchanged(0)) << "round " << t;
    ASSERT_EQ(s.Visible(0).size(), 3u) << "round " << t;
    ASSERT_EQ(s.Visible(0)[2], 5.0) << "round " << t;
  }
  s.Publish();
  s.Deliver(0, std::vector<double>{3.0, 4.0, 6.0});
  s.Carry(0);
  EXPECT_FALSE(s.VisibleUnchanged(0));
  EXPECT_EQ(s.Visible(0)[2], 6.0);
}

TEST(BroadcastStoreChangedFlags, AbsentGhostStaysAbsent) {
  BroadcastStore s;
  s.Reset(1);
  // Never delivered: the carry has nothing to keep.
  for (int t = 0; t < 3; ++t) {
    s.Publish();
    s.Carry(0);
    EXPECT_FALSE(s.Visible(0).present());
    EXPECT_FALSE(s.VisibleUnchanged(0));
  }
  s.Publish();
  s.Deliver(0, std::vector<double>{2.0});
  s.Publish();
  s.Carry(0);
  ASSERT_TRUE(s.VisibleUnchanged(0));
  // A tombstone: absent now, and absent in every later round — the copy
  // from two rounds back must not come back through the carry.
  s.Publish();
  s.Retract(0);
  s.Carry(0);
  EXPECT_FALSE(s.Visible(0).present());
  EXPECT_FALSE(s.VisibleUnchanged(0));
  for (int t = 0; t < 600; ++t) {
    s.Publish();
    s.Carry(0);
    ASSERT_FALSE(s.Visible(0).present()) << "round " << t;
    ASSERT_FALSE(s.VisibleUnchanged(0)) << "round " << t;
  }
  // Back with the value it had before: present again, and changed.
  s.Publish();
  s.Deliver(0, std::vector<double>{2.0});
  s.Carry(0);
  EXPECT_TRUE(s.Visible(0).present());
  EXPECT_FALSE(s.VisibleUnchanged(0));
}

TEST(BroadcastStoreChangedFlags, DeliverFlagsMatchStageFlagsPastTagWrap) {
  // A random broadcast sequence (repeats, switches, silences) over more
  // rounds than a byte-sized tag has values: the worker's change-driven
  // fan-out and the engine's Stage path must flag every round the same,
  // exactly when the broadcast repeats bit for bit, and leave the same
  // payload bits visible.
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
