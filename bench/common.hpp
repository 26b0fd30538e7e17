#pragma once
// Shared plumbing for the benches: JSON-lines emission, a wall-clock timer
// and the banner. (The paper's claims live in bench/claims.cpp, the engine's
// own costs in bench/perf.cpp; both take no flags.)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

inline void banner(const char* title, const char* paper_ref) {
  std::printf("=====================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("=====================================================\n");
}

}  // namespace rechord::bench
