// The binary graph format (graph/binio.h): round trips, the mmap
// loader's rejection of every malformed-file shape, rank-sliced loading,
// and text-vs-binary load equivalence down to Compact coreness.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/compact.h"
#include "graph/binio.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "util/rng.h"
#include "util/wire.h"

namespace kcore::graph {
namespace {

std::string TempPath(const char* stem) {
  return std::string(::testing::TempDir()) + "/" + stem + ".bin";
}

void ExpectSameEdgeList(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u) << "edge " << e;
    EXPECT_EQ(a.edge(e).v, b.edge(e).v) << "edge " << e;
    EXPECT_DOUBLE_EQ(a.edge(e).w, b.edge(e).w) << "edge " << e;
  }
}

// Writes raw bytes to a temp file; the crafted-file rejection tests
// build malformed inputs with the same codec the writer uses.
void WriteRaw(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not get.
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

// A syntactically valid file: header + records (+ optional id table).
std::vector<std::uint8_t> CraftFile(std::uint64_t n,
                                    const std::vector<Edge>& edges,
                                    std::uint32_t version = kBinaryVersion,
                                    std::uint32_t flags = 0,
                                    const char* magic = nullptr) {
  const std::size_t bytes = kBinaryHeaderBytes + kBinaryEdgeBytes *
                                                     edges.size() +
                            ((flags & kBinaryFlagOriginalIds) ? 8 * n : 0);
  std::vector<std::uint8_t> buf(bytes);
  std::memcpy(buf.data(), magic != nullptr ? magic : kBinaryMagic, 8);
  util::WireWriter w(buf.data() + 8, buf.data() + buf.size());
  w.Fixed32(version);
  w.Fixed32(flags);
  w.Fixed64(n);
  w.Fixed64(edges.size());
  for (const Edge& e : edges) {
    w.Fixed32(e.u);
    w.Fixed32(e.v);
    w.Double(e.w);
  }
  if (flags & kBinaryFlagOriginalIds) {
    for (std::uint64_t v = 0; v < n; ++v) w.Fixed64(v * 10);
  }
  return buf;
}

TEST(BinIo, RoundTripPreservesGraphExactly) {
  util::Rng rng(21);
  const Graph g =
      WithUniformWeights(BarabasiAlbert(300, 3, rng), 0.25, 9.0, rng);
  const std::string path = TempPath("roundtrip_ba");
  ASSERT_TRUE(SaveBinary(g, path));
  const auto info = ReadBinaryInfo(path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->version, kBinaryVersion);
  EXPECT_EQ(info->num_nodes, g.num_nodes());
  EXPECT_EQ(info->num_edges, g.num_edges());
  EXPECT_FALSE(info->has_original_ids);
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameEdgeList(g, loaded->graph);
  EXPECT_TRUE(loaded->original_ids.empty());
  std::remove(path.c_str());
}

TEST(BinIo, EmptyGraphRoundTrips) {
  GraphBuilder b(0);
  const Graph g = std::move(b).Build();
  const std::string path = TempPath("empty");
  ASSERT_TRUE(SaveBinary(g, path));
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->graph.num_nodes(), 0u);
  EXPECT_EQ(loaded->graph.num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(BinIo, EdgelessNodesRoundTrip) {
  GraphBuilder b(7);
  const Graph g = std::move(b).Build();
  const std::string path = TempPath("edgeless");
  ASSERT_TRUE(SaveBinary(g, path));
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->graph.num_nodes(), 7u);
  EXPECT_EQ(loaded->graph.num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(BinIo, SingleSelfLoopRoundTrips) {
  GraphBuilder b(1);
  b.AddEdge(0, 0, 2.5);
  const Graph g = std::move(b).Build();
  const std::string path = TempPath("selfloop");
  ASSERT_TRUE(SaveBinary(g, path));
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameEdgeList(g, loaded->graph);
  EXPECT_TRUE(loaded->graph.has_self_loops());
  EXPECT_DOUBLE_EQ(loaded->graph.SelfLoopWeight(0), 2.5);
  std::remove(path.c_str());
}

TEST(BinIo, DenormalWeightsSurviveBitExactly) {
  // The record stores raw IEEE-754 bits: the smallest positive denormal
  // and a mid-range denormal must come back identical, not flushed.
  const double denormal_min = std::numeric_limits<double>::denorm_min();
  GraphBuilder b(3);
  b.AddEdge(0, 1, denormal_min);
  b.AddEdge(1, 2, 1e-310);
  const Graph g = std::move(b).Build();
  const std::string path = TempPath("denormal");
  ASSERT_TRUE(SaveBinary(g, path));
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->graph.edge(0).w, denormal_min);
  EXPECT_EQ(loaded->graph.edge(1).w, 1e-310);
  std::remove(path.c_str());
}

TEST(BinIo, RejectsNaNAndInfWeights) {
  // The text parser rejects non-finite weights; a crafted binary file
  // must not smuggle them past the loader.
  const std::string path = TempPath("nonfinite");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0}) {
    WriteRaw(path, CraftFile(2, {Edge{0, 1, bad}}));
    EXPECT_FALSE(LoadBinary(path).has_value()) << "weight " << bad;
    EXPECT_FALSE(LoadBinarySlice(path, 0, 2).has_value()) << "weight " << bad;
  }
  std::remove(path.c_str());
}

TEST(BinIo, RejectsOutOfRangeIds) {
  const std::string path = TempPath("badids");
  WriteRaw(path, CraftFile(2, {Edge{0, 2, 1.0}}));
  EXPECT_FALSE(LoadBinary(path).has_value());
  WriteRaw(path, CraftFile(2, {Edge{7, 0, 1.0}}));
  EXPECT_FALSE(LoadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(BinIo, RejectsTruncatedAndPaddedFiles) {
  const std::string path = TempPath("truncated");
  const auto good = CraftFile(3, {Edge{0, 1, 1.0}, Edge{1, 2, 2.0}});
  // Sanity: the untampered file loads.
  WriteRaw(path, good);
  ASSERT_TRUE(LoadBinary(path).has_value());
  // Any strict prefix is rejected — mid-record, mid-header, and empty.
  for (const std::size_t len :
       {good.size() - 1, good.size() - kBinaryEdgeBytes - 3,
        kBinaryHeaderBytes - 1, std::size_t{8}, std::size_t{0}}) {
    WriteRaw(path, {good.begin(), good.begin() + len});
    EXPECT_FALSE(LoadBinary(path).has_value()) << "prefix " << len;
    EXPECT_FALSE(ReadBinaryInfo(path).has_value()) << "prefix " << len;
  }
  // Trailing garbage is likewise not silently ignored.
  auto padded = good;
  padded.push_back(0);
  WriteRaw(path, padded);
  EXPECT_FALSE(LoadBinary(path).has_value());
  std::remove(path.c_str());
}

TEST(BinIo, RejectsBadMagicVersionAndFlags) {
  const std::string path = TempPath("badheader");
  WriteRaw(path, CraftFile(2, {Edge{0, 1, 1.0}}, kBinaryVersion, 0,
                           "NOTKCORE"));
  EXPECT_FALSE(LoadBinary(path).has_value());
  WriteRaw(path, CraftFile(2, {Edge{0, 1, 1.0}}, kBinaryVersion + 1));
  EXPECT_FALSE(LoadBinary(path).has_value());
  WriteRaw(path, CraftFile(2, {Edge{0, 1, 1.0}}, kBinaryVersion, 0x2));
  EXPECT_FALSE(LoadBinary(path).has_value());
  EXPECT_FALSE(LoadBinary("/nonexistent/graph.bin").has_value());
  std::remove(path.c_str());
}

TEST(BinIo, OriginalIdTableRoundTrips) {
  // Sparse-id text -> dense graph + id table -> binary -> back: the
  // original ids survive the format change.
  const auto parsed = ParseEdgeList("1000 2000 1.5\n2000 5\n5 1000 2.25\n");
  ASSERT_TRUE(parsed.has_value());
  const std::string path = TempPath("idtable");
  ASSERT_TRUE(SaveBinary(parsed->graph, path, parsed->original_ids));
  const auto info = ReadBinaryInfo(path);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->has_original_ids);
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.has_value());
  ExpectSameEdgeList(parsed->graph, loaded->graph);
  EXPECT_EQ(loaded->original_ids, parsed->original_ids);
  // A size-mismatched table is rejected at save time.
  const std::vector<std::uint64_t> wrong_size = {1, 2};
  EXPECT_FALSE(SaveBinary(parsed->graph, path, wrong_size));
  std::remove(path.c_str());
}

TEST(BinIo, MergeParallelOptInWorks) {
  const std::string path = TempPath("parallel");
  WriteRaw(path, CraftFile(2, {Edge{0, 1, 2.0}, Edge{1, 0, 3.0}}));
  const auto raw = LoadBinary(path);
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(raw->graph.num_edges(), 2u);
  const auto merged = LoadBinary(path, /*merge_parallel=*/true);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->graph.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(merged->graph.edge(0).w, 5.0);
  std::remove(path.c_str());
}

TEST(BinIo, MmapAndTextLoadsAreBitIdenticalDownToCoreness) {
  // The satellite contract: the same graph written in both formats loads
  // to bit-identical Graphs, and Compact computes identical coreness
  // estimates on both.
  util::Rng rng(33);
  const Graph g =
      WithUniformWeights(BarabasiAlbert(400, 3, rng), 0.5, 4.0, rng);
  const std::string bin = TempPath("equiv");
  const std::string txt = std::string(::testing::TempDir()) + "/equiv.txt";
  ASSERT_TRUE(SaveBinary(g, bin));
  ASSERT_TRUE(SaveEdgeList(g, txt));
  const auto from_bin = LoadBinary(bin);
  const auto from_txt = LoadEdgeList(txt, /*merge_parallel=*/false);
  ASSERT_TRUE(from_bin.has_value());
  ASSERT_TRUE(from_txt.has_value());
  ExpectSameEdgeList(from_bin->graph, from_txt->graph);

  core::CompactOptions opts;
  opts.rounds = core::RoundsForEpsilon(g.num_nodes(), 0.5);
  const auto b_bin = core::RunCompactElimination(from_bin->graph, opts);
  const auto b_txt = core::RunCompactElimination(from_txt->graph, opts);
  EXPECT_EQ(b_bin.b, b_txt.b);
  std::remove(bin.c_str());
  std::remove(txt.c_str());
}

TEST(BinIo, SliceLoadingCoversEveryEdgeExactlyByOwnership) {
  util::Rng rng(55);
  const Graph g = BarabasiAlbert(200, 4, rng);
  const std::string path = TempPath("slices");
  ASSERT_TRUE(SaveBinary(g, path));

  const NodeId n = g.num_nodes();
  const std::vector<NodeId> bounds = {0, 50, 100, 150, n};
  std::size_t total = 0;
  std::size_t cross = 0;
  const auto owner = [&bounds](NodeId v) {
    int r = 0;
    while (v >= bounds[r + 1]) ++r;
    return r;
  };
  for (const Edge& e : g.edges()) {
    if (owner(e.u) != owner(e.v)) ++cross;
  }
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
    const auto slice = LoadBinarySlice(path, bounds[r], bounds[r + 1]);
    ASSERT_TRUE(slice.has_value());
    // Full id space, only incident edges.
    EXPECT_EQ(slice->graph.num_nodes(), n);
    for (const Edge& e : slice->graph.edges()) {
      const bool u_owned = e.u >= bounds[r] && e.u < bounds[r + 1];
      const bool v_owned = e.v >= bounds[r] && e.v < bounds[r + 1];
      EXPECT_TRUE(u_owned || v_owned)
          << "rank " << r << " loaded foreign edge (" << e.u << "," << e.v
          << ")";
    }
    total += slice->graph.num_edges();
  }
  // Every edge lands in its owners' slices: owned once, cross twice.
  EXPECT_EQ(total, g.num_edges() + cross);

  // The full-range slice IS the graph.
  const auto all = LoadBinarySlice(path, 0, n);
  ASSERT_TRUE(all.has_value());
  ExpectSameEdgeList(g, all->graph);

  // An empty range materializes nothing.
  const auto none = LoadBinarySlice(path, 0, 0);
  ASSERT_TRUE(none.has_value());
  EXPECT_EQ(none->graph.num_edges(), 0u);

  // Out-of-range slices are rejected.
  EXPECT_FALSE(LoadBinarySlice(path, 10, 5).has_value());
  EXPECT_FALSE(LoadBinarySlice(path, 0, n + 1).has_value());
  std::remove(path.c_str());
}

// Rank-boundary pins for the per-rank compute init path: an empty slice
// mid-topology (rank_bounds with lo == hi) and the last rank's
// upper-bound handling — the classic off-by-one places.
TEST(BinIo, SliceBoundaryCasesMatchRankBoundsContract) {
  util::Rng rng(56);
  const Graph g = BarabasiAlbert(120, 3, rng);
  const std::string path = TempPath("slice_edges");
  ASSERT_TRUE(SaveBinary(g, path));
  const NodeId n = g.num_nodes();

  // Empty mid-range slice, the shape a degenerate rank_bounds row
  // produces: full id space back, zero edges, no error.
  const auto empty_mid = LoadBinarySlice(path, 60, 60);
  ASSERT_TRUE(empty_mid.has_value());
  EXPECT_EQ(empty_mid->graph.num_nodes(), n);
  EXPECT_EQ(empty_mid->graph.num_edges(), 0u);

  // Last rank: [x, n) must include node n - 1's incident edges...
  const auto last = LoadBinarySlice(path, n - 30, n);
  ASSERT_TRUE(last.has_value());
  bool saw_last_node = false;
  for (const Edge& e : last->graph.edges()) {
    EXPECT_TRUE((e.u >= n - 30 && e.u < n) || (e.v >= n - 30 && e.v < n));
    if (e.u == n - 1 || e.v == n - 1) saw_last_node = true;
  }
  EXPECT_TRUE(saw_last_node) << "last node's edges missing from last slice";
  EXPECT_EQ(last->graph.Degree(n - 1), g.Degree(n - 1));

  // ...and [x, n - 1) must NOT treat n - 1 as owned: every loaded edge
  // still touches the half-open range.
  const auto clipped = LoadBinarySlice(path, n - 30, n - 1);
  ASSERT_TRUE(clipped.has_value());
  for (const Edge& e : clipped->graph.edges()) {
    EXPECT_TRUE((e.u >= n - 30 && e.u < n - 1) ||
                (e.v >= n - 30 && e.v < n - 1));
  }

  // A one-node last slice is fine too (the ranks == n extreme).
  const auto one = LoadBinarySlice(path, n - 1, n);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->graph.Degree(n - 1), g.Degree(n - 1));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kcore::graph
