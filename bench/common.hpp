#pragma once
// Shared plumbing for the measurement benches: the common CLI flags, CSV and
// JSON-lines emission, the profiler guard, a wall-clock timer and the exact
// fixpoint materializer. (The paper's figures and claims live in one
// flag-free program, bench/claims.cpp.)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/profiler.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace rechord::bench {

struct BenchConfig {
  std::vector<std::size_t> sizes;
  std::size_t trials = 30;
  std::uint64_t seed = 1;
  unsigned threads = 1;
  std::string csv_path;  // empty = no CSV

  static BenchConfig from_cli(const util::Cli& cli) {
    BenchConfig cfg;
    for (auto v : cli.get_int_list("sizes", {}))
      cfg.sizes.push_back(static_cast<std::size_t>(v));
    cfg.trials = static_cast<std::size_t>(cli.get_int("trials", 30));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    cfg.threads = static_cast<unsigned>(cli.get_int("threads", 1));
    cfg.csv_path = cli.get("csv", "");
    return cfg;
  }
};

inline void emit_csv(const std::string& path,
                     const std::vector<std::string>& header,
                     const std::vector<std::vector<double>>& rows) {
  if (path.empty()) return;
  std::ofstream out(path);
  util::CsvWriter w(out);
  w.header(header);
  for (const auto& row : rows) {
    w.row();
    for (double v : row) w.cell(v);
  }
  std::printf("(csv written to %s)\n", path.c_str());
}

// -- machine-readable bench output (--json) ----------------------------------

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
/// bit. A default-constructed / empty-path instance is a no-op.
class BenchJson {
 public:
  /// Param cells: key plus an already-rendered JSON value (jnum / jstr).
  using Params = std::vector<std::pair<std::string, std::string>>;

  explicit BenchJson(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    out_.open(path_);
    if (!out_)
      std::fprintf(stderr, "error: cannot write %s\n", path_.c_str());
  }
  [[nodiscard]] bool enabled() const { return out_.is_open(); }

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

  /// Prints the "(json written to ...)" status line if anything was emitted.
  void note() const {
    if (enabled()) std::printf("(json written to %s)\n", path_.c_str());
  }

 private:
  void emit(std::string_view bench, const Params& params,
            std::string_view metric, const std::string& value) {
    if (!out_) return;
    out_ << "{\"bench\":\"" << bench << "\",\"params\":{";
    bool first = true;
    for (const auto& [k, v] : params) {
      if (!first) out_ << ',';
      first = false;
      out_ << '"' << k << "\":" << v;
    }
    out_ << "},\"metric\":\"" << metric << "\",\"value\":" << value << "}\n";
  }

  std::string path_;
  std::ofstream out_;
};

/// --profile for the benches: arms the phase profiler for the process
/// lifetime and prints the phase table when main returns.
struct ProfileGuard {
  bool on = false;
  explicit ProfileGuard(const util::Cli& cli) : on(cli.get_flag("profile")) {
    if (on) util::Profiler::instance().set_enabled(true);
  }
  ~ProfileGuard() {
    if (on) util::Profiler::instance().print_table(std::cout);
  }
  ProfileGuard(const ProfileGuard&) = delete;
  ProfileGuard& operator=(const ProfileGuard&) = delete;
};

/// Monotonic wall-clock stopwatch for the round-cost benches.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
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
/// workload of bench/round_cost. Release, 4-vCPU 2.1 GHz host: ~0.45 s at
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
