// Shared --transport / --ranks / --threads flag handling for the example
// binaries: parses --transport={shared,serialized,process} (default
// shared) and --ranks=N (default 1, the worker-process count for the
// process transport), exiting with a usage error on anything else, so
// all examples reject junk the same way.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "distsim/transport.h"
#include "util/flags.h"

namespace kcore::examples {

inline distsim::TransportKind TransportFromFlags(const util::Flags& flags) {
  const std::string name = flags.GetString("transport", "shared");
  distsim::TransportKind kind = distsim::TransportKind::kSharedMemory;
  if (!distsim::ParseTransportKind(name, &kind)) {
    std::fprintf(
        stderr,
        "error: unknown --transport=%s (want shared|serialized|process)\n",
        name.c_str());
    std::exit(2);
  }
  return kind;
}

// --threads=N (default 1), the engine's thread count. Results are
// bit-identical at any count, but threads beyond the host's cores only
// add scheduling overhead, so a count above `cores` (default
// std::thread::hardware_concurrency(); 0 means unknown) draws a warning
// on stderr — once per `*warned` flag (default: one per process). The
// count is passed through unchanged.
inline int ThreadsFromFlags(
    const util::Flags& flags,
    unsigned cores = std::thread::hardware_concurrency(),
    bool* warned = nullptr) {
  static bool warned_in_process = false;
  if (warned == nullptr) warned = &warned_in_process;
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  if (cores > 0 && threads > 0 && static_cast<unsigned>(threads) > cores &&
      !*warned) {
    *warned = true;
    std::fprintf(stderr,
                 "warning: --threads=%d exceeds the %u hardware threads of "
                 "this host; results are unchanged, but the extra threads "
                 "only add overhead\n",
                 threads, cores);
  }
  return threads;
}

// Rank topology for multi-process transports (distsim ::
// Engine::SetRankCount): how many worker processes --transport=process
// forks. Ignored by the in-process transports. The cap keeps the
// socketpair topology inside common descriptor limits: R ranks need one
// process each plus R(R-1)/2 peer socketpairs, so the parent briefly
// holds ~R^2 descriptors while forking — 16 ranks is ~270 fds, safely
// under the usual 1024 RLIMIT_NOFILE (ProcessTransport::Start also
// checks the actual rlimit up front).
inline int RanksFromFlags(const util::Flags& flags) {
  const std::int64_t ranks = flags.GetInt("ranks", 1);
  if (ranks < 1 || ranks > 16) {
    std::fprintf(stderr, "error: --ranks=%lld out of range [1, 16]\n",
                 static_cast<long long>(ranks));
    std::exit(2);
  }
  return static_cast<int>(ranks);
}

// The engine refuses rank topologies with more ranks than nodes (some
// slice would be empty and the contiguous-slice ownership contract in
// docs/ARCHITECTURE.md ambiguous). Catch that here so the tools exit
// with a usage error instead of tripping the engine's internal check.
inline void ValidateRankTopology(int ranks, std::uint32_t num_nodes) {
  if (static_cast<std::uint32_t>(ranks) > num_nodes) {
    std::fprintf(stderr,
                 "error: --ranks=%d exceeds the graph's node count (%u); "
                 "each rank needs a non-empty node slice\n",
                 ranks, num_nodes);
    std::exit(2);
  }
}

// --per-rank-compute=BOOL (default false): run the compute phase inside
// the transport's rank workers instead of in the coordinator (see
// distsim::Engine::SetPerRankCompute). Only the process transport ships
// per-rank compute, so anything else is a usage error rather than a
// silent fallback.
inline bool PerRankComputeFromFlags(const util::Flags& flags,
                                    distsim::TransportKind kind) {
  const bool per_rank = flags.GetBool("per-rank-compute", false);
  if (per_rank && kind != distsim::TransportKind::kProcess) {
    std::fprintf(stderr,
                 "error: --per-rank-compute requires --transport=process\n");
    std::exit(2);
  }
  return per_rank;
}

}  // namespace kcore::examples
