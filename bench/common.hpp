#pragma once
// Shared plumbing for the benches: JSON-lines emission, a wall-clock timer,
// the exact fixpoint materializer and the banner. (The paper's claims live
// in bench/claims.cpp, the engine's own costs in bench/perf.cpp; both take
// no flags.)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace rechord::bench {

// -- machine-readable bench output ------------------------------------------

/// Renders one JSON value for a BenchJson param or metric cell.
inline std::string jnum(std::uint64_t v) { return std::to_string(v); }
inline std::string jnum(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}
inline std::string jstr(std::string_view s) {
  return '"' + std::string(s) + '"';  // bench names/modes never need escaping
}

/// JSON-lines emitter for perf tracking: one object per measured value with
/// the schema {"bench": name, "params": {...}, "metric": m, "value": v}.
/// Doubles round-trip (%.17g); 64-bit fingerprints should go through the
/// string overload so JSON readers that parse numbers as doubles keep every
/// bit.
class BenchJson {
 public:
  /// Param cells: key plus an already-rendered JSON value (jnum / jstr).
  using Params = std::vector<std::pair<std::string, std::string>>;

  explicit BenchJson(std::ostream& out) : out_(out) {}

  void record(std::string_view bench, const Params& params,
              std::string_view metric, double value) {
    emit(bench, params, metric, jnum(value));
  }
  void record(std::string_view bench, const Params& params,
              std::string_view metric, std::uint64_t value) {
    emit(bench, params, metric, jnum(value));
  }
  /// String-valued metric (e.g. a %016llx fingerprint) -- emitted quoted.
  void record(std::string_view bench, const Params& params,
              std::string_view metric, const std::string& value) {
    emit(bench, params, metric, jstr(value));
  }

 private:
  void emit(std::string_view bench, const Params& params,
            std::string_view metric, const std::string& value) {
    out_ << "{\"bench\":\"" << bench << "\",\"params\":{";
    bool first = true;
    for (const auto& [k, v] : params) {
      if (!first) out_ << ',';
      first = false;
      out_ << '"' << k << "\":" << v;
    }
    out_ << "},\"metric\":\"" << metric << "\",\"value\":" << value << "}\n";
  }

  std::ostream& out_;
};

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ns() const {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Materializes the protocol's exact fixpoint state for n random peers
/// directly from the StableSpec (no protocol execution) -- the steady-state
/// workload of bench/perf. Release, 4-vCPU 2.1 GHz host: ~0.45 s at
/// n = 10k and ~3.2 s at n = 50k (spec ~0.13 s / ~0.95 s of that; the rest
/// is the network and its 2M / 14M connection-edge inserts).
inline core::Network stable_network(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto ids = gen::random_ids(rng, n);
  core::Network net{std::span<const core::RingPos>(ids)};
  const auto spec = core::StableSpec::compute(net);
  for (core::Slot s : spec.nodes_in_order()) net.set_alive(s, true);
  for (core::Slot s : spec.nodes_in_order()) {
    for (core::Slot t : spec.eu(s))
      net.add_edge(s, core::EdgeKind::kUnmarked, t);
    for (core::Slot t : spec.er(s)) net.add_edge(s, core::EdgeKind::kRing, t);
    for (core::Slot t : spec.ec(s))
      net.add_edge(s, core::EdgeKind::kConnection, t);
    net.set_rl(s, spec.rl(s));
    net.set_rr(s, spec.rr(s));
  }
  return net;
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("=====================================================\n");
}

}  // namespace rechord::bench
