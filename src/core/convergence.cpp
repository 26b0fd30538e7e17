#include "core/convergence.hpp"

namespace rechord::core {

RunResult run_to_stable(Engine& engine, const StableSpec& spec,
                        const RunOptions& options) {
  RunResult result;
  if (spec.almost_stable(engine.network())) {
    result.reached_almost = true;
    result.rounds_to_almost = 0;
  }
  std::uint64_t rounds = 0;
  RoundMetrics last = engine.measure();
  while (rounds < options.max_rounds) {
    const RoundMetrics mt = engine.step();
    ++rounds;
    result.live_peer_rounds += mt.active_peers;
    result.replayed_peer_rounds += mt.replayed_peers;
    result.skipped_peer_rounds += mt.skipped_peers;
    if (!result.reached_almost && spec.almost_stable(engine.network())) {
      result.reached_almost = true;
      result.rounds_to_almost = rounds;
    }
    last = mt;
    if (!mt.changed) {
      // The state at the end of this round equals the state before it: the
      // network had already stabilized after the previous round.
      result.stabilized = true;
      result.rounds_to_stable = rounds - 1;
      break;
    }
  }
  result.final_metrics = last;
  result.spec_exact = spec.exact_match(engine.network());
  return result;
}

}  // namespace rechord::core
