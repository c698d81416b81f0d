#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "util/logging.h"

namespace {

// Counting allocator for core.allocs_per_node_round. Thread-local, so
// counting is one TLS increment and TracingProtocol can attribute the
// allocations made inside one Round call to that call.
thread_local std::uint64_t tl_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++tl_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace dist = kcore::distsim;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, int round, int tid) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, round, tid});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::Begin(std::string name, int parent, int round) {
  const std::int64_t now = NowNs();
  return Add(std::move(name), now, now, parent, round);
}

void Tracer::End(int span) { spans_[span].end_ns = NowNs(); }

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::string& other_data) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers chosen by the benchmark: no
    // characters that need JSON escaping.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"round\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.tid,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, s.round);
  }
  std::fprintf(f, "\n],\"otherData\":%s}\n", other_data.c_str());
  return std::fclose(f) == 0;
}

namespace {
std::atomic<std::uint64_t> g_protocol_ids{1};
// Which TracingProtocol (by id) this thread's cached slot belongs to.
thread_local std::uint64_t tl_owner = 0;
thread_local int tl_slot = -1;
}  // namespace

TracingProtocol::TracingProtocol(dist::Protocol& inner, int rounds)
    : inner_(inner), id_(g_protocol_ids.fetch_add(1)) {
  for (auto& s : slots_) s.assign(static_cast<std::size_t>(rounds) + 1, {});
}

int TracingProtocol::Slot() {
  if (tl_owner != id_) {
    tl_slot = next_slot_.fetch_add(1);
    KCORE_CHECK_MSG(tl_slot < kMaxThreads, "more compute threads than "
                                           "TracingProtocol::kMaxThreads");
    tl_owner = id_;
  }
  return tl_slot;
}

void TracingProtocol::Timed(dist::NodeContext& ctx, bool init) {
  RoundAcc& a = slots_[Slot()][ctx.round()];
  const std::uint64_t allocs0 = tl_allocs;
  const std::int64_t t0 = NowNs();
  if (init) {
    inner_.Init(ctx);
  } else {
    inner_.Round(ctx);
  }
  const std::int64_t t1 = NowNs();
  a.allocs += tl_allocs - allocs0;
  a.busy_ns += t1 - t0;
  if (a.calls++ == 0) a.first_ns = t0;
  a.last_ns = t1;
}

void TracingProtocol::Init(dist::NodeContext& ctx) { Timed(ctx, true); }
void TracingProtocol::Round(dist::NodeContext& ctx) { Timed(ctx, false); }
bool TracingProtocol::SupportsRankCompute() const {
  return inner_.SupportsRankCompute();
}
void TracingProtocol::SaveNodeState(dist::NodeId v,
                                    kcore::util::WireAppender& out) const {
  inner_.SaveNodeState(v, out);
}
void TracingProtocol::LoadNodeState(dist::NodeId v,
                                    kcore::util::WireReader& in) {
  inner_.LoadNodeState(v, in);
}

TracingTransport::TracingTransport(std::unique_ptr<dist::Transport> inner,
                                   Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void TracingTransport::Start(kcore::graph::NodeId n, int num_ranks,
                             const std::uint64_t* rank_bounds) {
  const std::int64_t t0 = NowNs();
  inner_->Start(n, num_ranks, rank_bounds);
  tracer_.Add("transport.start", t0, NowNs(), parent_, round_);
}

dist::WireVolume TracingTransport::Exchange(const dist::ExchangeContext& ctx) {
  const std::int64_t t0 = NowNs();
  const dist::WireVolume v = inner_->Exchange(ctx);
  const std::int64_t t1 = NowNs();
  ++exchange_calls_;
  exchange_total_ns_ += t1 - t0;
  pending_ns_ += t1 - t0;
  tracer_.Add("transport.exchange", t0, t1, parent_, round_);
  return v;
}

std::int64_t TracingTransport::TakeCallNs() {
  return std::exchange(pending_ns_, 0);
}

bool TracingTransport::SupportsRankCompute() const {
  return inner_->SupportsRankCompute();
}

void TracingTransport::PrepareRankCompute(const dist::RankComputeSetup& s) {
  inner_->PrepareRankCompute(s);
}

dist::RankRoundResult TracingTransport::RankStep(int round) {
  const std::int64_t t0 = NowNs();
  const dist::RankRoundResult r = inner_->RankStep(round);
  const std::int64_t t1 = NowNs();
  rank_step_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
  pending_ns_ += t1 - t0;
  tracer_.Add("transport.rank_step", t0, t1, parent_, round_);
  return r;
}

void TracingTransport::CollectRankState(dist::Protocol& p,
                                        std::vector<dist::Payload>& prev_bcast,
                                        std::vector<char>& prev_has,
                                        std::vector<char>& halted) {
  const std::int64_t t0 = NowNs();
  inner_->CollectRankState(p, prev_bcast, prev_has, halted);
  const std::int64_t t1 = NowNs();
  fetch_ns_ += t1 - t0;
  tracer_.Add("transport.fetch", t0, t1, parent_, round_);
}

}  // namespace perfbench
