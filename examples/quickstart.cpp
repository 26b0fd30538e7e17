// Quickstart: build a random weakly connected network of peers, run the
// Re-Chord self-stabilization protocol to its fixpoint, and inspect the
// result (topology counts, stability, and the Chord-subgraph property).
//
//   ./quickstart [--n 24] [--seed 7] [--topology line|star|random|...]
//                [--threads T] [--full-scan]

#include <cstdio>

#include "baselines/ideal_chord.hpp"
#include "baselines/projection.hpp"
#include "core/convergence.hpp"
#include "gen/topologies.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace rechord;
  const util::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 24));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  gen::Topology topo = gen::Topology::kRandomConnected;
  for (gen::Topology t : gen::all_topologies())
    if (cli.get("topology", "random") == gen::topology_name(t)) topo = t;

  std::printf("Re-Chord quickstart: n=%zu seed=%llu topology=%s\n", n,
              static_cast<unsigned long long>(seed), gen::topology_name(topo));

  util::Rng rng(seed);
  core::Network net = gen::make_network(topo, n, rng);
  core::Engine engine(std::move(net), core::engine_options_from_cli(cli));
  const core::StableSpec spec = core::StableSpec::compute(engine.network());

  std::printf("\n%-6s %10s %10s %8s %8s %8s %8s %7s %7s %7s\n", "round",
              "virt", "unmarked", "ring", "conn", "normal", "total", "live",
              "replay", "skip");
  engine.set_round_observer([](const core::RoundMetrics& mt) {
    if (mt.round % 5 == 0 || !mt.changed) {
      std::printf("%-6llu %10zu %10zu %8zu %8zu %8zu %8zu %7zu %7zu %7zu\n",
                  static_cast<unsigned long long>(mt.round), mt.virtual_nodes,
                  mt.unmarked_edges, mt.ring_edges, mt.connection_edges,
                  mt.normal_edges(), mt.total_edges(), mt.active_peers,
                  mt.replayed_peers, mt.skipped_peers);
    }
  });
  core::RunOptions opt;
  opt.max_rounds = 100000;
  const core::RunResult result = core::run_to_stable(engine, spec, opt);

  std::printf("\nstabilized          : %s\n", result.stabilized ? "yes" : "NO");
  std::printf("peer-rounds         : %llu live, %llu replayed, %llu skipped "
              "(active-set scheduler)\n",
              static_cast<unsigned long long>(result.live_peer_rounds),
              static_cast<unsigned long long>(result.replayed_peer_rounds),
              static_cast<unsigned long long>(result.skipped_peer_rounds));
  std::printf("rounds to stable    : %llu\n",
              static_cast<unsigned long long>(result.rounds_to_stable));
  std::printf("rounds to almost    : %llu%s\n",
              static_cast<unsigned long long>(result.rounds_to_almost),
              result.reached_almost ? "" : " (never)");
  std::printf("fixpoint == spec    : %s\n", result.spec_exact ? "yes" : "NO");

  const auto projection = core::RealProjection::compute(engine.network());
  const auto chord = chord::ChordGraph::compute(engine.network());
  const auto cov = chord::check_chord_subgraph(chord, projection);
  std::printf("Fact 2.1 (Chord ⊆ Re-Chord): succ %zu/%zu pred %zu/%zu "
              "fingers %zu/%zu (+%zu/%zu wrap-around)\n",
              cov.succ_covered, cov.succ_total, cov.pred_covered,
              cov.pred_total, cov.finger_covered, cov.finger_total,
              cov.wrapped_covered, cov.wrapped_total);
  return result.stabilized && result.spec_exact ? 0 : 1;
}
