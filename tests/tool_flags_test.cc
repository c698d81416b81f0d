// Exit-code contract of the example binaries' shared flag helpers
// (examples/transport_flag.h): junk --transport/--ranks values, rank
// topologies that don't fit the graph, and --per-rank-compute on a
// transport that can't ship it must all exit 2 with a clear message —
// never fall through to an engine-internal abort. --threads above the
// host's cores only warns.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "transport_flag.h"
#include "util/flags.h"

namespace kcore::examples {
namespace {

// Parse a flag vector the way the tools' main() does.
util::Flags ParseArgs(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.push_back("tool");
  for (const auto& s : args) argv.push_back(s.c_str());
  util::Flags flags;
  flags.Parse(static_cast<int>(argv.size()), argv.data());
  return flags;
}

TEST(ToolFlags, AcceptsTheDocumentedValues) {
  const auto flags = ParseArgs({"--transport=process", "--ranks=4",
                                "--per-rank-compute=true"});
  const auto kind = TransportFromFlags(flags);
  EXPECT_EQ(kind, distsim::TransportKind::kProcess);
  EXPECT_EQ(RanksFromFlags(flags), 4);
  EXPECT_TRUE(PerRankComputeFromFlags(flags, kind));
  ValidateRankTopology(4, 100);  // fits: no exit
}

TEST(ToolFlags, ThreadsAboveTheCoresWarnOnceAndPassThrough) {
  bool warned = false;
  // Within the cores (or with the core count unknown): silent.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ThreadsFromFlags(ParseArgs({"--threads=4"}), 4, &warned), 4);
  EXPECT_EQ(ThreadsFromFlags(ParseArgs({"--threads=64"}), 0, &warned), 64);
  EXPECT_EQ(ThreadsFromFlags(ParseArgs({}), 4, &warned), 1);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  EXPECT_FALSE(warned);
  // Above them: the count is kept, and one warning names both numbers.
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ThreadsFromFlags(ParseArgs({"--threads=8"}), 4, &warned), 8);
  EXPECT_EQ(ThreadsFromFlags(ParseArgs({"--threads=16"}), 4, &warned), 16);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--threads=8 exceeds the 4 hardware threads"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("--threads=16"), std::string::npos) << err;
  EXPECT_TRUE(warned);
}

TEST(ToolFlagsDeath, JunkTransportExitsTwo) {
  const auto flags = ParseArgs({"--transport=carrier-pigeon"});
  EXPECT_EXIT(TransportFromFlags(flags), ::testing::ExitedWithCode(2),
              "unknown --transport");
}

TEST(ToolFlagsDeath, JunkRanksExitsTwo) {
  EXPECT_EXIT(RanksFromFlags(ParseArgs({"--ranks=0"})),
              ::testing::ExitedWithCode(2), "out of range");
  EXPECT_EXIT(RanksFromFlags(ParseArgs({"--ranks=-3"})),
              ::testing::ExitedWithCode(2), "out of range");
  EXPECT_EXIT(RanksFromFlags(ParseArgs({"--ranks=17"})),
              ::testing::ExitedWithCode(2), "out of range");
}

TEST(ToolFlagsDeath, MoreRanksThanNodesExitsTwo) {
  EXPECT_EXIT(ValidateRankTopology(8, 5), ::testing::ExitedWithCode(2),
              "exceeds the graph's node count");
}

TEST(ToolFlagsDeath, PerRankComputeNeedsProcessTransport) {
  const auto flags = ParseArgs({"--per-rank-compute=true"});
  EXPECT_EXIT(
      PerRankComputeFromFlags(flags, distsim::TransportKind::kSharedMemory),
      ::testing::ExitedWithCode(2), "requires --transport=process");
  EXPECT_EXIT(
      PerRankComputeFromFlags(flags, distsim::TransportKind::kSerialized),
      ::testing::ExitedWithCode(2), "requires --transport=process");
  // false is fine on any transport.
  EXPECT_FALSE(PerRankComputeFromFlags(
      ParseArgs({"--per-rank-compute=false"}),
      distsim::TransportKind::kSharedMemory));
}

}  // namespace
}  // namespace kcore::examples
