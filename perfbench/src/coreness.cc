// The coreness-threads and coreness-ranks workloads: load the workload
// graph, solve Algorithm 2 (eps = 0.5, lambda = 0) repeatedly for the
// run's seconds, and check every result against the exact coreness.
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "library.h"
#include "report.h"

namespace perfbench {

namespace {

std::uint64_t Digest(const std::vector<double>& b) {
  // FNV-1a over the raw bytes: equal digests mean bit-identical vectors.
  std::uint64_t h = 1469598103934665603ULL;
  for (double x : b) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof(double));
    for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

std::string Hex(std::uint64_t x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

double Seconds(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

// Lemma III.2 (b >= c) and Lemma III.3 with r(v) <= c(v)
// (b <= 2 n^{1/T} c). The 1e-9 slack is the one the library's own
// property tests use for the same lemmas.
void CheckBounds(const std::vector<double>& b, const std::vector<double>& c,
                 int rounds, const std::string& what, Report& report) {
  const double n = static_cast<double>(c.size());
  const double factor = 2.0 * std::pow(n, 1.0 / rounds);
  std::size_t low = 0, high = 0;
  for (std::size_t v = 0; v < c.size(); ++v) {
    if (!(b[v] >= c[v] - 1e-9)) ++low;
    if (!(b[v] <= factor * c[v] + 1e-9)) ++high;
  }
  report.Check(b.size() == c.size() && low == 0,
               what + ": b >= c violated at " + std::to_string(low) + " nodes");
  report.Check(b.size() == c.size() && high == 0,
               what + ": b <= 2 n^(1/T) c violated at " +
                   std::to_string(high) + " nodes");
}

constexpr int kSetupReps = 15;

}  // namespace

void RunCoreness(const RunArgs& args, Report& report) {
  const bool ranks = args.workload == "coreness-ranks";
  const Deployment deploy = ranks ? Deployment::kRanks : Deployment::kThreads;

  // Set-up: ingest of the workload graph, repeated; the median is setup_s.
  std::optional<kcore::graph::Graph> g;
  std::vector<double> loads;
  for (int i = 0; i < kSetupReps; ++i) {
    g.reset();
    const std::int64_t t0 = NowNs();
    g = LoadGraph(args.graph_path);
    loads.push_back(Seconds(t0, NowNs()));
    if (!g) {
      report.Check(false, "LoadBinary(" + args.graph_path + ")");
      return;
    }
  }
  const double setup_s = Quantile(loads, 0.5);
  struct stat st {};
  const double file_mb =
      stat(args.graph_path.c_str(), &st) == 0 ? st.st_size / 1e6 : 0.0;

  const kcore::core::CompactOptions opts =
      CorenessOptions(*g, deploy, args.parallelism);
  const int T = opts.rounds;
  report.Note("graph n=" + std::to_string(g->num_nodes()) +
              " m=" + std::to_string(g->num_edges()) +
              " T=" + std::to_string(T));

  // The reference b: an in-engine (shared-memory) solve, which is also the
  // warm-up, so coreness-ranks is cross-checked against coreness-threads
  // bit for bit inside one run.
  Solve reference =
      RunSolve(*g, CorenessOptions(*g, Deployment::kThreads, args.parallelism));
  const std::uint64_t ref_digest = Digest(reference.b);

  // Solves whose b differ from the reference are kept for the gates.
  std::vector<std::vector<double>> odd;
  int solves = 0;
  auto check_solve = [&](Solve& s, const char* what) {
    ++solves;
    if (args.corrupt == "b" && solves == 2) s.b[s.b.size() / 2] -= 1.0;
    const bool same = Digest(s.b) == ref_digest;
    report.Check(same, std::string(what) + " digest differs from the "
                                           "shared-memory reference");
    if (!same) odd.push_back(s.b);
  };

  std::vector<double> solve_s, traced_s;
  std::vector<TracedSolve> traced;
  Solve last;
  const std::int64_t begin = NowNs();
  while (solve_s.size() < 3 || Seconds(begin, NowNs()) < args.seconds) {
    const std::int64_t t0 = NowNs();
    last = RunSolve(*g, opts);
    solve_s.push_back(Seconds(t0, NowNs()));
    check_solve(last, "solve");
    if (args.trace) {
      traced.push_back(RunTracedSolve(*g, opts, report.tracer(), "solve"));
      traced_s.push_back(traced.back().wall_s);
      check_solve(traced.back().solve, "traced solve");
    }
  }
  const double peak_rss = PeakRssMb();

  // Scaling: the same solve with one thread (and one rank), traced runs only.
  double one_way_s = 0;
  if (args.trace) {
    kcore::core::CompactOptions one = CorenessOptions(*g, deploy, 1);
    const std::int64_t t0 = NowNs();
    Solve s = RunSolve(*g, one);
    one_way_s = Seconds(t0, NowNs());
    check_solve(s, "1-way solve");
  }

  // The checker, off the timed path.
  const std::int64_t v0 = NowNs();
  const std::vector<double> c = ExactCoreness(*g);
  CheckBounds(reference.b, c, T, "reference", report);
  for (const auto& b : odd) CheckBounds(b, c, T, "differing solve", report);
  const double verify_s = Seconds(v0, NowNs());

  const double med = Quantile(solve_s, 0.5);
  const double wire_mb = (last.p2p_bytes + last.bcast_bytes) / 1e6;
  report.Note("b digest " + Hex(ref_digest) + " over " +
              std::to_string(solves) + " solves");
  if (!traced.empty()) {
    report.Note("traced b digest " + Hex(Digest(traced.front().solve.b)));
  }
  report.Note("wire_mb " + std::to_string(wire_mb) + " per solve");
  std::string times = "solve seconds:";
  for (double x : solve_s) {
    times += ' ';
    times += std::to_string(x);
  }
  report.Note(times);

  report.Metric("setup_s", setup_s, "s");
  report.Metric("solve_s", med, "s");
  report.Metric("peak_rss_mb", peak_rss, "MB");
  // The batch analogues of the service metrics (see perfbench/NOTES.md):
  // an update is one node applying the Update rule in one round, and the
  // update latency is a round's. The round time is the median solve's
  // mean: the slowest solve of a run, tried first, swung with single host
  // stalls.
  report.Metric("updates_per_s", static_cast<double>(last.node_rounds) / med,
                "1/s");
  report.Metric("update_p99_ms", med / T * 1e3, "ms");

  report.Metric("graph.load_s", setup_s, "s");
  report.Metric("graph.load_mb", file_mb, "MB");
  report.Metric("seq.verify_s", verify_s, "s");
  report.Metric("wire_mb", wire_mb, "MB");
  if (!args.trace) return;

  // Per-layer metrics from the traced solve with the median wall time.
  std::sort(traced.begin(), traced.end(),
            [](const TracedSolve& a, const TracedSolve& b) {
              return a.wall_s < b.wall_s;
            });
  const TracedSolve& t = traced[traced.size() / 2];
  double steps_s = 0, compute_wall_s = 0, rank_steps_s = 0;
  for (double x : t.step_ms) steps_s += x / 1e3;
  for (double x : t.compute_span_ms) compute_wall_s += x / 1e3;
  for (double x : t.rank_step_ms) rank_steps_s += x / 1e3;
  const double node_rounds = static_cast<double>(t.solve.node_rounds);

  report.Metric("engine.start_s", t.start_s, "s");
  report.Metric("engine.round_ms_p50", Quantile(t.step_ms, 0.5), "ms");
  report.Metric("engine.round_ms_p90", Quantile(t.step_ms, 0.9), "ms");
  report.Metric("engine.compute_busy_s", t.compute_busy_s, "s");
  report.Metric("engine.compute_wall_s", compute_wall_s, "s");
  report.Metric("engine.shard_imbalance",
                t.busy_mean_s > 0 ? t.busy_max_s / t.busy_mean_s : 0, "ratio");
  report.Metric("engine.collect_s",
                steps_s - compute_wall_s - t.transport_in_steps_s, "s");
  report.Metric("engine.scaling_efficiency",
                one_way_s / (args.parallelism * med), "ratio");
  report.Metric("engine.node_rounds", node_rounds, "count");
  report.Metric("engine.messages", t.solve.messages, "count");
  report.Metric("engine.entries", t.solve.entries, "count");
  report.Metric("engine.distinct_values", t.solve.distinct_values, "count");

  report.Metric("transport.exchange_s", t.exchange_s, "s");
  report.Metric("transport.exchange_calls", t.exchange_calls, "count");
  report.Metric("transport.rank_step_ms_p50", Quantile(t.rank_step_ms, 0.5),
                "ms");
  report.Metric("transport.rank_step_ms_p90", Quantile(t.rank_step_ms, 0.9),
                "ms");
  report.Metric("transport.fetch_s", t.fetch_s, "s");
  report.Metric("transport.worker_cpu_s", t.worker_cpu_s, "s");
  report.Metric("transport.worker_util",
                rank_steps_s > 0
                    ? t.worker_cpu_s / (args.parallelism * rank_steps_s)
                    : 0,
                "ratio");
  report.Metric("transport.p2p_bytes", t.solve.p2p_bytes, "bytes");
  report.Metric("transport.bcast_bytes", t.solve.bcast_bytes, "bytes");

  report.Metric("core.round_ns_per_node", t.compute_busy_s * 1e9 / node_rounds,
                "ns");
  report.Metric("core.allocs_per_node_round", t.round_allocs / node_rounds,
                "count");
  report.Metric("trace.overhead_s",
                Quantile(traced_s, 0.5) - Quantile(solve_s, 0.5), "s");
}

}  // namespace perfbench
