// What a workload run hands back to main(): its metrics (name, value,
// unit), its correctness tally, and human-readable notes printed before
// the final JSON line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          // test-sized inputs
  std::string graph_path;     // the workload's input, written by `gen`
  std::string socket_path;    // service-churn's Unix socket
  std::string trace_out;      // Chrome trace JSON (traced runs)
  // Fault injection for the benchmark's own tests: "b" corrupts one
  // surviving number, "service" one coreness value read back from the
  // server. Both must drive error_rate above 0 and the exit code to 1.
  std::string corrupt;
  int parallelism = 1;        // threads or ranks: min(nproc, 4)
};

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  // Counts one attempted operation or check; a miss is also logged.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) {
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
      }
    }
  }
  // Counts `attempted` operations of which `failed` missed.
  void CheckMany(std::uint64_t attempted, std::uint64_t failed,
                 const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed != 0) {
      std::fprintf(stderr, "check failed %llu times: %s\n",
                   static_cast<unsigned long long>(failed), what.c_str());
    }
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  const std::vector<std::string>& notes() const { return notes_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  Tracer& tracer() { return tracer_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  Tracer tracer_;
};

// Exact percentile, q in [0, 1] (linear interpolation); 0 when empty.
double Quantile(std::vector<double> xs, double q);
// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

void RunCoreness(const RunArgs& args, Report& report);
void RunService(const RunArgs& args, Report& report);

}  // namespace perfbench
