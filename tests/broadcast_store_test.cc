// Changed flags of distsim::BroadcastStore: what counts as a change
// (presence, length, entry bit patterns), which operations force one,
// and that a rank worker's Deliver path flags exactly what the engine's
// Stage path flags for the same broadcast sequence — across the wrap of
// the flags' byte-sized tags.
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

// The same round as a rank worker sees a node it does not own: publish,
// then the peer's fan-out delivers `p` (or nothing).
bool DeliverRound(BroadcastStore& s, const Bcast& p) {
  s.Publish();
  if (p) s.Deliver(0, *p);
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
  // A worker owning node 1 and decoding node 0 from a peer.
  BroadcastStore s;
  s.Reset(2);
  s.Stage(1, std::vector<double>{7.0});
  EXPECT_FALSE(DeliverRound(s, Bcast{{5.0}}));  // first delivery
  EXPECT_FALSE(s.VisibleUnchanged(1));
  s.Stage(1, std::vector<double>{7.0});
  EXPECT_TRUE(DeliverRound(s, Bcast{{5.0}}));  // same as last round
  EXPECT_TRUE(s.VisibleUnchanged(1));          // owned, same as last round
  EXPECT_EQ(s.Visible(0)[0], 5.0);
  EXPECT_FALSE(DeliverRound(s, Bcast{{5.0, 1.0, 2.0}}));
  EXPECT_TRUE(DeliverRound(s, Bcast{{5.0, 1.0, 2.0}}));
  EXPECT_FALSE(DeliverRound(s, std::nullopt));  // not delivered: absent
  EXPECT_FALSE(DeliverRound(s, Bcast{{5.0, 1.0, 2.0}}));
}

TEST(BroadcastStoreChangedFlags, DeliverFlagsMatchStageFlagsPastTagWrap) {
  // A random broadcast sequence (repeats, switches, silences) over more
  // rounds than a byte-sized tag has values: the worker's Deliver path
  // and the engine's Stage path must flag every round the same, and
  // exactly when the broadcast repeats bit for bit.
  util::Rng rng(17);
  const std::vector<Bcast> choices = {
      std::nullopt,      Bcast{{1.0}},      Bcast{{-0.0}},
      Bcast{{0.0}},      Bcast{{1.0, 2.0}}, Bcast{{1.0, 2.0, 3.0}},
      Bcast{std::vector<double>{}}};
  BroadcastStore engine_side, worker_side;
  engine_side.Reset(1);
  worker_side.Reset(1);
  Bcast last = std::nullopt;
  std::size_t unchanged = 0;
  for (int round = 0; round < 1200; ++round) {
    // Mostly repeat; sometimes switch, possibly to silence.
    Bcast next = last;
    if (rng.NextBool(0.3)) next = choices[rng.NextBounded(choices.size())];
    const bool a = StageRound(engine_side, next);
    const bool b = DeliverRound(worker_side, next);
    SCOPED_TRACE(round);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, SameBits(next, last));
    unchanged += a ? 1 : 0;
    last = next;
  }
  EXPECT_GT(unchanged, 300u);
  EXPECT_LT(unchanged, 1100u);
}

TEST(BroadcastStoreChangedFlags, StaleFlagsNeverReadUnchanged) {
  // An unchanged flag written once must not come back to life when the
  // buffers' tags wrap while the node stays silent.
  for (bool worker : {false, true}) {
    SCOPED_TRACE(worker);
    BroadcastStore s;
    s.Reset(1);
    auto round = worker ? DeliverRound : StageRound;
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

}  // namespace
}  // namespace kcore::distsim
