// kcore_perfbench: the repository benchmark's binary.
//
//   kcore_perfbench gen --workload W --seed S [--tiny] --out FILE
//       writes the workload's input graph (binary format) for seed S;
//   kcore_perfbench run --workload W --seed S --seconds X --trace 0|1
//                   --graph FILE [--socket PATH] [--trace-out FILE] [--tiny]
//       runs the workload and prints, as its last stdout line, the JSON
//       result {"correct", "attempted", "failed", "metrics"}: the
//       end-to-end metrics with --trace 0, the per-layer ones with
//       --trace 1. Exits 1 when any correctness check failed.
//
// perfbench/run.py builds this binary and drives both steps.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "library.h"
#include "report.h"
#include "util/stats.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> xs, double q) {
  return xs.empty() ? 0.0 : kcore::util::Percentile(xs, q);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/test_bench.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"solve_s", "s"},
    {"peak_rss_mb", "MB"},     {"updates_per_s", "1/s"},
    {"update_p99_ms", "ms"},
};

// Layers a workload does not exercise report 0 for their metrics.
constexpr MetricDef kPerLayer[] = {
    {"graph.load_s", "s"},
    {"graph.load_mb", "MB"},
    {"engine.start_s", "s"},
    {"engine.round_ms_p50", "ms"},
    {"engine.round_ms_p90", "ms"},
    {"engine.compute_busy_s", "s"},
    {"engine.compute_wall_s", "s"},
    {"engine.shard_imbalance", "ratio"},
    {"engine.collect_s", "s"},
    {"engine.scaling_efficiency", "ratio"},
    {"engine.node_rounds", "count"},
    {"engine.messages", "count"},
    {"engine.entries", "count"},
    {"engine.distinct_values", "count"},
    {"transport.exchange_s", "s"},
    {"transport.exchange_calls", "count"},
    {"transport.rank_step_ms_p50", "ms"},
    {"transport.rank_step_ms_p90", "ms"},
    {"transport.fetch_s", "s"},
    {"transport.worker_cpu_s", "s"},
    {"transport.worker_util", "ratio"},
    {"transport.p2p_bytes", "bytes"},
    {"transport.bcast_bytes", "bytes"},
    {"wire_mb", "MB"},
    {"core.round_ns_per_node", "ns"},
    {"core.allocs_per_node_round", "count"},
    {"seq.verify_s", "s"},
    {"dynamic.server_setup_s", "s"},
    {"dynamic.maintain_us_per_update", "us"},
    {"dynamic.server_overhead_ms_per_batch", "ms"},
    {"dynamic.recomputations_per_update", "ratio"},
    {"dynamic.changed_per_update", "ratio"},
    {"dynamic.queries_sent", "count"},
    {"dynamic.query_p50_ms", "ms"},
    {"dynamic.query_p99_ms", "ms"},
    {"dynamic.reader_lag_ms_p99", "ms"},
    {"trace.overhead_s", "s"},
};

bool IsCoreness(const std::string& w) {
  return w == "coreness-threads" || w == "coreness-ranks";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double x) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

std::string Provenance(const RunArgs& a, int argc, char** argv) {
  std::string argv_json = "[";
  for (int i = 0; i < argc; ++i) {
    if (i > 0) argv_json += ',';
    argv_json += JsonString(argv[i]);
  }
  argv_json += "]";
  return "{\"hardware_concurrency\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"parallelism\":" + std::to_string(a.parallelism) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"git_describe\":" + JsonString(PERFBENCH_GIT_DESCRIBE) +
         ",\"workload\":" + JsonString(a.workload) +
         ",\"seed\":" + std::to_string(a.seed) + ",\"argv\":" + argv_json + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "kcore_perfbench: %s\nusage: kcore_perfbench gen|run "
               "--workload W --seed S [--seconds X] [--trace 0|1] "
               "[--graph FILE] [--socket PATH] [--trace-out FILE] "
               "[--out FILE] [--tiny] [--corrupt b|service]\n",
               why);
  return 2;
}

int Gen(const RunArgs& a, const std::string& out) {
  // Both coreness workloads share one graph per seed (their b must agree
  // bit for bit). The service's seed graph, a third the size, is one fixed
  // graph with its node ids permuted by the seed (see service.cc).
  kcore::graph::Graph g;
  if (IsCoreness(a.workload)) {
    g = GeneratePowerLaw(a.tiny ? 3000 : 300000, a.seed);
  } else {
    const kcore::graph::NodeId n = a.tiny ? 2000 : 100000;
    g = Relabel(GeneratePowerLaw(n, kServiceBaseSeed),
                NodePermutation(n, a.seed));
  }
  const std::string tmp = out + ".tmp";
  if (!SaveGraph(g, tmp) || std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::fprintf(stderr, "kcore_perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

int Run(const RunArgs& a, int argc, char** argv) {
  const std::string provenance = Provenance(a, argc, argv);
  std::printf("# provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  Report report;
  for (const MetricDef& m : kPerLayer) report.Metric(m.name, 0.0, m.unit);
  if (IsCoreness(a.workload)) {
    RunCoreness(a, report);
  } else {
    RunService(a, report);
  }

  std::string metrics;
  bool complete = report.attempted() > 0;
  auto emit = [&](const MetricDef& m) {
    const auto it = report.metrics().find(m.name);
    if (it == report.metrics().end() || it->second.second != m.unit ||
        !std::isfinite(it->second.first)) {
      std::fprintf(stderr, "metric %s missing, non-finite or mis-unitted\n",
                   m.name);
      complete = false;
      return;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + JsonNumber(it->second.first) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  };
  if (a.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
    std::string table = "{";
    for (const MetricDef& m : kPerLayer) {
      const auto& [value, unit] = report.metrics().at(m.name);
      table += std::string(table.size() > 1 ? "," : "") + JsonString(m.name) +
               ":{\"value\":" + JsonNumber(value) +
               ",\"unit\":" + JsonString(unit) + "}";
    }
    table += "}";
    if (!a.trace_out.empty()) {
      const bool ok = report.tracer().WriteChromeJson(
          a.trace_out, "{\"provenance\":" + provenance +
                           ",\"per_layer\":" + table + "}");
      report.Check(ok, "writing " + a.trace_out);
      if (ok) std::printf("# trace written to %s\n", a.trace_out.c_str());
    }
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }

  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# error_rate %s (%llu failed of %llu attempted)\n",
              JsonNumber(report.attempted()
                             ? static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 1.0)
                  .c_str(),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));

  const bool correct = complete && report.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(
          report.attempted(), 1)),
      static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  if (argc < 2) return Usage("missing subcommand");
  const std::string cmd = argv[1];
  perfbench::RunArgs a;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--graph") {
      a.graph_path = v;
    } else if (flag == "--socket") {
      a.socket_path = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--corrupt") {
      a.corrupt = v;
    } else if (flag == "--out") {
      out = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::IsCoreness(a.workload) && a.workload != "service-churn") {
    return Usage("unknown workload");
  }
  a.parallelism = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  if (cmd == "gen") {
    return out.empty() ? Usage("gen needs --out") : perfbench::Gen(a, out);
  }
  if (cmd != "run") return Usage("unknown subcommand");
  if (a.graph_path.empty()) return Usage("run needs --graph");
  if (a.workload == "service-churn" && a.socket_path.empty()) {
    return Usage("service-churn needs --socket");
  }
  return perfbench::Run(a, argc, argv);
}
