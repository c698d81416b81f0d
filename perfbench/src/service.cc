// The service-churn workload: an in-process dynamic::CorenessServer seeded
// with a power-law graph, one closed-loop writer client sending batches of
// 32 edge updates, and one open-loop reader client querying 16 random ids
// every 500 us. A shadow replica of the edge set checks the final snapshot
// against seq::WeightedCoreness.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/client.h"
#include "dynamic/maintain.h"
#include "dynamic/server.h"
#include "library.h"
#include "report.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using kcore::dynamic::CorenessClient;
using kcore::dynamic::CorenessServer;
using kcore::dynamic::EdgeUpdate;
using kcore::graph::NodeId;

constexpr int kBatch = 32;
constexpr int kQueryIds = 16;
constexpr std::int64_t kQueryPeriodNs = 500'000;  // 2000 queries/s
constexpr int kSetupReps = 9;
// The writer's stream is a fixed amount of work, --seconds times this many
// batches (about --seconds of writing on a 4-core host), rather than
// whatever fits in --seconds: the stream inserts more than it deletes, so
// a faster server would otherwise end on a denser graph, and its update
// costs would no longer compare with the parent's.
constexpr double kBatchesPerSecond = 250;

double Seconds(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

std::uint64_t Key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// The writer's update stream and the shadow replica it implies. 60% of the
// updates insert an edge between two random non-adjacent nodes, 40% delete
// a live edge the stream itself inserted, so no update is ever legitimately
// rejected.
//
// The stream is drawn from a fixed seed over the base graph's ids and
// renamed through the seed's node permutation, the same one the seed graph
// was relabeled with: every seed replays the same work on differently laid
// out ids. With a stream drawn from the seed itself, how many updates set
// off a large cascade varies from seed to seed (the mean recomputations per
// batch by a third, their p99 by more than 2x), and update_p99_ms with it.
class Stream {
 public:
  Stream(const kcore::graph::Graph& g, std::uint64_t seed)
      : rng_(kServiceBaseSeed),
        n_(g.num_nodes()),
        perm_(NodePermutation(n_, seed)) {
    edges_.reserve(g.num_edges() * 2);
    for (const auto& e : g.edges()) edges_.insert(Key(e.u, e.v));
  }

  void NextBatch(std::vector<EdgeUpdate>& batch) {
    batch.clear();
    for (int i = 0; i < kBatch; ++i) {
      if (!live_.empty() && rng_.NextDouble() < 0.4) {
        const std::size_t k = rng_.NextBounded(live_.size());
        const auto [u, v] = live_[k];
        live_[k] = live_.back();
        live_.pop_back();
        edges_.erase(Key(u, v));
        batch.push_back({EdgeUpdate::Kind::kDelete, u, v, 1.0});
        continue;
      }
      NodeId u = 0, v = 0;
      do {
        u = perm_[rng_.NextBounded(n_)];
        v = perm_[rng_.NextBounded(n_)];
      } while (u == v || edges_.count(Key(u, v)) != 0);
      edges_.insert(Key(u, v));
      live_.emplace_back(u, v);
      batch.push_back({EdgeUpdate::Kind::kInsert, u, v, 1.0});
    }
  }

  // The replica's exact coreness: seq::WeightedCoreness of its edge set.
  std::vector<double> ExactCoreness() const {
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(edges_.size());
    for (std::uint64_t k : edges_) {
      edges.emplace_back(static_cast<NodeId>(k >> 32),
                         static_cast<NodeId>(k & 0xffffffffu));
    }
    std::sort(edges.begin(), edges.end());
    return perfbench::ExactCoreness(GraphFromEdges(n_, edges));
  }

 private:
  kcore::util::Rng rng_;
  NodeId n_;
  std::vector<NodeId> perm_;
  std::unordered_set<std::uint64_t> edges_;
  std::vector<std::pair<NodeId, NodeId>> live_;
};

// A started server with both clients connected.
struct Service {
  std::unique_ptr<CorenessServer> server;
  CorenessClient writer, reader;
  double construct_s = 0;  // the initial exact fixpoint over the seed graph
  double setup_s = 0;      // construction + Start + both connects
};

std::unique_ptr<Service> StartService(const kcore::graph::Graph& g,
                                      const std::string& socket_path,
                                      Report& report) {
  auto s = std::make_unique<Service>();
  kcore::dynamic::ServerOptions opts;
  opts.socket_path = socket_path;
  const std::int64_t t0 = NowNs();
  s->server = std::make_unique<CorenessServer>(opts, g);
  const std::int64_t t1 = NowNs();
  const bool ok = s->server->Start() &&
                  s->writer.ConnectWithRetry(socket_path, 100, 10) &&
                  s->reader.ConnectWithRetry(socket_path, 100, 10);
  const std::int64_t t2 = NowNs();
  report.Check(ok, "server start / client connect: " +
                       s->writer.last_error() + s->reader.last_error());
  s->construct_s = Seconds(t0, t1);
  s->setup_s = Seconds(t0, t2);
  return ok ? std::move(s) : nullptr;
}

struct Traffic {
  std::vector<double> batch_ms;    // ApplyUpdates round trips
  std::vector<double> query_ms;    // from when each query was due
  std::vector<double> lag_ms;      // how late each query was sent
  std::vector<std::pair<std::int64_t, std::int64_t>> batch_spans;
  std::uint64_t applied = 0;
  std::uint64_t recomputations = 0;
  std::uint64_t changed = 0;
  double writer_s = 0;
};

// Runs the writer on this thread, for `batches` batches, and the reader
// beside it until the writer is done.
Traffic Drive(Service& svc, Stream& stream, std::uint64_t seed,
              std::size_t batches, Report& report) {
  Traffic tr;
  std::atomic<bool> stop{false};
  std::vector<double> query_ms, lag_ms;
  std::uint64_t queries_ok = 0, queries = 0;
  const NodeId n = static_cast<NodeId>(svc.server->snapshot()->coreness.size());
  const std::int64_t start = NowNs();

  std::thread reader([&] {
    kcore::util::Rng rng(seed ^ 0x7265616465725fULL);
    std::vector<NodeId> ids(kQueryIds);
    for (std::int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const std::int64_t due = start + i * kQueryPeriodNs;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      for (NodeId& id : ids) id = static_cast<NodeId>(rng.NextBounded(n));
      const std::int64_t sent = NowNs();
      const auto reply = svc.reader.QueryCoreness(ids);
      const std::int64_t done = NowNs();
      ++queries;
      if (reply && reply->values.size() == ids.size()) ++queries_ok;
      query_ms.push_back(static_cast<double>(done - due) / 1e6);
      lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
    }
  });

  std::vector<EdgeUpdate> batch;
  while (tr.batch_ms.size() < batches) {
    stream.NextBatch(batch);
    const std::int64_t t0 = NowNs();
    const auto ack = svc.writer.ApplyUpdates(batch);
    const std::int64_t t1 = NowNs();
    tr.batch_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    tr.batch_spans.emplace_back(t0, t1);
    const bool ok = ack && ack->rejected == 0 && ack->applied == batch.size();
    report.Check(ok, ok ? std::string()
                        : "update batch failed or had rejections: " +
                              svc.writer.last_error());
    if (!ok) continue;
    tr.applied += ack->applied;
    tr.recomputations += ack->recomputations;
    tr.changed += ack->changed;
  }
  tr.writer_s = Seconds(start, NowNs());
  stop = true;
  reader.join();

  report.CheckMany(queries, queries - queries_ok, "coreness query failed");
  tr.query_ms = std::move(query_ms);
  tr.lag_ms = std::move(lag_ms);
  return tr;
}

// The median over one-second windows of each window's p99 (2000 queries
// per window, so 20 lie beyond it), or the plain p99 of a shorter run.
// A stall of the host that hits one window then moves the figure far less
// than it moves a p99 over the whole run.
double WindowedP99(const std::vector<double>& query_ms) {
  const std::size_t window = 1'000'000'000 / kQueryPeriodNs;
  if (query_ms.size() < window) return Quantile(query_ms, 0.99);
  std::vector<double> p99s;
  for (std::size_t i = 0; i + window <= query_ms.size(); i += window) {
    p99s.push_back(Quantile(
        {query_ms.begin() + i, query_ms.begin() + i + window}, 0.99));
  }
  return Quantile(p99s, 0.5);
}

// The final snapshot must equal the shadow replica's exact coreness.
void CheckFinal(const Service& svc, const Stream& stream, bool corrupt,
                Report& report) {
  std::vector<double> got = svc.server->snapshot()->coreness;
  if (corrupt && !got.empty()) got[got.size() / 2] += 1.0;
  const std::vector<double> want = stream.ExactCoreness();
  std::size_t bad = got.size() == want.size() ? 0 : want.size();
  for (std::size_t v = 0; bad == 0 && v < want.size(); ++v) {
    // The library's own dynamic-vs-scratch tests use the same 1e-9.
    if (!(std::abs(got[v] - want[v]) <= 1e-9)) ++bad;
  }
  report.Check(bad == 0, "final snapshot differs from the replica's exact "
                         "coreness");
}

}  // namespace

void RunService(const RunArgs& args, Report& report) {
  const std::int64_t l0 = NowNs();
  const std::optional<kcore::graph::Graph> g = LoadGraph(args.graph_path);
  if (!g) {
    report.Check(false, "LoadBinary(" + args.graph_path + ")");
    return;
  }
  report.Metric("graph.load_s", Seconds(l0, NowNs()), "s");
  report.Note("seed graph n=" + std::to_string(g->num_nodes()) +
              " m=" + std::to_string(g->num_edges()));

  // Set-up, repeated; the last service started is the one measured.
  std::vector<double> setups, constructs;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < kSetupReps; ++i) {
    svc.reset();
    svc = StartService(*g, args.socket_path, report);
    if (!svc) return;
    setups.push_back(svc->setup_s);
    constructs.push_back(svc->construct_s);
  }
  report.Metric("setup_s", Quantile(setups, 0.5), "s");
  report.Metric("solve_s", Quantile(constructs, 0.5), "s");
  report.Metric("dynamic.server_setup_s", Quantile(setups, 0.5), "s");

  const auto batches =
      static_cast<std::size_t>(std::max(1.0, args.seconds * kBatchesPerSecond));
  if (!args.trace) {
    Stream stream(*g, args.seed);
    const Traffic tr = Drive(*svc, stream, args.seed, batches, report);
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    CheckFinal(*svc, stream, args.corrupt == "service", report);
    report.Metric("updates_per_s", tr.applied / tr.writer_s, "1/s");
    report.Metric("update_p99_ms", Quantile(tr.batch_ms, 0.99), "ms");
    report.Note(std::to_string(tr.batch_ms.size()) + " batches, " +
                std::to_string(tr.query_ms.size()) + " queries, query p50 " +
                std::to_string(Quantile(tr.query_ms, 0.5)) + " ms, p99 " +
                std::to_string(WindowedP99(tr.query_ms)) +
                " ms, reader lag p99 " +
                std::to_string(Quantile(tr.lag_ms, 0.99)) + " ms");
    return;
  }

  // Traced run: the first half of the stream twice, on fresh servers,
  // first untraced and then with spans, so the counts repeat exactly and
  // the difference in writer time is the tracing overhead (two half-length
  // passes keep the run about as long as an untraced one). Then that half
  // is replayed on a bare DynamicCoreMaintenance to split maintenance from
  // the server's own per-batch cost.
  const std::size_t half = std::max<std::size_t>(batches / 2, 1);
  Stream plain_stream(*g, args.seed);
  const Traffic plain =
      Drive(*svc, plain_stream, args.seed, half, report);
  svc.reset();
  svc = StartService(*g, args.socket_path, report);
  if (!svc) return;
  Stream stream(*g, args.seed);
  const Traffic tr = Drive(*svc, stream, args.seed, half, report);
  Tracer& tracer = report.tracer();
  for (std::size_t i = 0; i < tr.batch_spans.size(); ++i) {
    tracer.Add("client.apply_updates", tr.batch_spans[i].first,
               tr.batch_spans[i].second, -1, static_cast<int>(i), 1);
  }
  report.Check(plain.applied == tr.applied &&
                   plain.recomputations == tr.recomputations &&
                   plain.changed == tr.changed,
               "traced and untraced passes disagree on update counts");
  const std::int64_t v0 = NowNs();
  CheckFinal(*svc, stream, args.corrupt == "service", report);
  report.Metric("seq.verify_s", Seconds(v0, NowNs()), "s");

  Stream replay(*g, args.seed);
  kcore::dynamic::DynamicCoreMaintenance bare(*g);
  std::vector<EdgeUpdate> batch;
  double maintain_s = 0;
  std::uint64_t recomputations = 0, changed = 0;
  for (std::size_t i = 0; i < tr.batch_spans.size(); ++i) {
    replay.NextBatch(batch);
    const std::int64_t t0 = NowNs();
    for (const EdgeUpdate& op : batch) {
      const auto s = op.kind == EdgeUpdate::Kind::kInsert
                         ? bare.InsertEdge(op.u, op.v, op.w)
                         : bare.DeleteEdge(op.u, op.v, op.w);
      recomputations += s.recomputations;
      changed += s.changed;
    }
    const std::int64_t t1 = NowNs();
    maintain_s += Seconds(t0, t1);
    tracer.Add("dynamic.maintain", t0, t1, -1, static_cast<int>(i), 2);
  }
  report.Check(recomputations == tr.recomputations && changed == tr.changed,
               "bare maintenance replay disagrees with the server's acks");

  const double updates =
      static_cast<double>(std::max<std::uint64_t>(tr.applied, 1));
  double rtt_s = 0;
  for (double x : tr.batch_ms) rtt_s += x / 1e3;
  const double nb =
      static_cast<double>(std::max<std::size_t>(tr.batch_ms.size(), 1));
  report.Metric("dynamic.maintain_us_per_update", maintain_s / updates * 1e6,
                "us");
  report.Metric("dynamic.server_overhead_ms_per_batch",
                (rtt_s - maintain_s) / nb * 1e3, "ms");
  report.Metric("dynamic.recomputations_per_update",
                tr.recomputations / updates, "ratio");
  report.Metric("dynamic.changed_per_update", tr.changed / updates, "ratio");
  report.Metric("dynamic.queries_sent", static_cast<double>(tr.query_ms.size()),
                "count");
  report.Metric("dynamic.query_p50_ms", Quantile(tr.query_ms, 0.5), "ms");
  report.Metric("dynamic.query_p99_ms", WindowedP99(tr.query_ms), "ms");
  report.Metric("dynamic.reader_lag_ms_p99", Quantile(tr.lag_ms, 0.99), "ms");
  report.Metric("trace.overhead_s", tr.writer_s - plain.writer_s, "s");
}

}  // namespace perfbench
