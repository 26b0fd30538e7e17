#pragma once
// Convergence runner: drives an Engine until the exact fixpoint, recording
// the two quantities of the paper's Figure 6 -- rounds to the stable state
// and rounds to the "almost stable" state. The per-round metric series
// behind Figures 5 and 7 comes from Engine::set_round_observer.

#include <cstdint>

#include "core/engine.hpp"
#include "core/spec.hpp"

namespace rechord::core {

struct RunOptions {
  /// Hard cap on rounds (the theory bound is O(n log n); experiments finish
  /// far earlier). Exceeding the cap reports stabilized = false.
  std::uint64_t max_rounds = 1'000'000;
};

struct RunResult {
  bool stabilized = false;
  /// Number of rounds after which no further state change occurred, i.e. the
  /// paper's "# rounds to stable state".
  std::uint64_t rounds_to_stable = 0;
  /// First round at which all desired Re-Chord edges were present ("almost
  /// stable"); 0 if the initial state already qualified.
  std::uint64_t rounds_to_almost = 0;
  bool reached_almost = false;
  /// Whether the final state matches the spec exactly (should always hold
  /// when stabilized).
  bool spec_exact = false;
  RoundMetrics final_metrics;
  /// Scheduler work summed over all executed rounds: peers whose rules ran
  /// live, peers replayed from cache, and peers skipped as resting
  /// (DESIGN.md §6). Under EngineOptions::full_scan every peer counts as
  /// live.
  std::uint64_t live_peer_rounds = 0;
  std::uint64_t replayed_peer_rounds = 0;
  std::uint64_t skipped_peer_rounds = 0;
};

/// Runs the engine until fixpoint (or the cap), measuring against `spec`.
[[nodiscard]] RunResult run_to_stable(Engine& engine, const StableSpec& spec,
                                      const RunOptions& options = {});

}  // namespace rechord::core
