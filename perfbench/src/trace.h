// Tracing for the benchmark's per-layer run: an in-memory span log written
// out as Chrome trace-event JSON, a thread-local allocation counter, and
// decorators around distsim::Protocol and distsim::Transport that time the
// calls the engine makes into them. Nothing here touches library code: the
// decorators are installed through the engine's public setters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "distsim/engine.h"
#include "distsim/transport.h"

namespace perfbench {

// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int round = -1;   // the engine round (or batch) the span belongs to
  int tid = 0;      // display lane in the trace viewer
};

// Spans kept in memory and written once, at the end of the run.
class Tracer {
 public:
  // Records a finished span; returns its index (usable as a parent).
  int Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, int round = -1, int tid = 0);
  // Opens a span starting now; End(span) closes it.
  int Begin(std::string name, int parent = -1, int round = -1);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  // `other_data` is a pre-rendered JSON object stored under "otherData".
  bool WriteChromeJson(const std::string& path,
                       const std::string& other_data) const;

 private:
  std::vector<Span> spans_;
};

// Per-round, per-thread accounting of Protocol::Round calls.
struct RoundAcc {
  std::int64_t busy_ns = 0;
  std::int64_t first_ns = 0;  // start of the first call (0 = no call)
  std::int64_t last_ns = 0;   // end of the last call
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;
};

// Forwards every call to `inner` and times Init/Round per calling thread.
// Rounds are indexed by NodeContext::round() (0 = Init). Under per-rank
// compute the Round calls happen inside forked rank workers, whose copy of
// this object the coordinator never sees: the accounting then stays empty
// and the work shows up in TracingTransport's RankStep times instead.
class TracingProtocol final : public kcore::distsim::Protocol {
 public:
  static constexpr int kMaxThreads = 64;

  TracingProtocol(kcore::distsim::Protocol& inner, int rounds);

  void Init(kcore::distsim::NodeContext& ctx) override;
  void Round(kcore::distsim::NodeContext& ctx) override;
  bool SupportsRankCompute() const override;
  void SaveNodeState(kcore::distsim::NodeId v,
                     kcore::util::WireAppender& out) const override;
  void LoadNodeState(kcore::distsim::NodeId v,
                     kcore::util::WireReader& in) override;

  // Threads that made at least one call, in first-call order.
  int threads_seen() const { return next_slot_.load(); }
  // acc(thread, round) for thread < threads_seen(), round <= rounds.
  const RoundAcc& acc(int thread, int round) const {
    return slots_[thread][round];
  }

 private:
  void Timed(kcore::distsim::NodeContext& ctx, bool init);
  int Slot();

  kcore::distsim::Protocol& inner_;
  const std::uint64_t id_;
  std::atomic<int> next_slot_{0};
  // Pre-sized at construction so recording never allocates.
  std::array<std::vector<RoundAcc>, kMaxThreads> slots_;
};

// Forwards every call to `inner`; records a span per Start / Exchange /
// RankStep / CollectRankState and keeps per-round totals for the caller.
class TracingTransport final : public kcore::distsim::Transport {
 public:
  TracingTransport(std::unique_ptr<kcore::distsim::Transport> inner,
                   Tracer& tracer);

  const char* name() const override { return inner_->name(); }
  void Start(kcore::graph::NodeId n, int num_ranks,
             const std::uint64_t* rank_bounds) override;
  kcore::distsim::WireVolume Exchange(
      const kcore::distsim::ExchangeContext& ctx) override;
  bool SupportsRankCompute() const override;
  void PrepareRankCompute(const kcore::distsim::RankComputeSetup& s) override;
  kcore::distsim::RankRoundResult RankStep(int round) override;
  void CollectRankState(kcore::distsim::Protocol& p,
                        std::vector<kcore::distsim::Payload>& prev_bcast,
                        std::vector<char>& prev_has,
                        std::vector<char>& halted) override;

  // Parent span and round for the spans recorded next.
  void SetParent(int parent, int round) {
    parent_ = parent;
    round_ = round;
  }
  // Time spent inside Exchange and RankStep since the last call (and
  // resets it): the part of an Engine::Step the transport accounts for.
  std::int64_t TakeCallNs();

  std::uint64_t exchange_calls() const { return exchange_calls_; }
  std::int64_t exchange_ns() const { return exchange_total_ns_; }
  const std::vector<double>& rank_step_ms() const { return rank_step_ms_; }
  std::int64_t fetch_ns() const { return fetch_ns_; }

 private:
  std::unique_ptr<kcore::distsim::Transport> inner_;
  Tracer& tracer_;
  int parent_ = -1;
  int round_ = -1;
  std::uint64_t exchange_calls_ = 0;
  std::int64_t exchange_total_ns_ = 0;
  std::int64_t pending_ns_ = 0;
  std::vector<double> rank_step_ms_;
  std::int64_t fetch_ns_ = 0;
};

}  // namespace perfbench
