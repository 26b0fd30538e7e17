// Property-style parameterized sweeps (TEST_P): for every initial topology
// family, network size, and seed, the protocol must
//   (P1) stabilize within the Theorem 1.1 budget,
//   (P2) reach exactly the specified stable topology,
//   (P3) pass through "almost stable" no later than "stable",
//   (P4) never disconnect the (weakly connected) graph,
//   (P5) yield a projection containing the non-seam Chord graph (Fact 2.1),
//   (P6) support 100%-successful greedy lookups over the full overlay.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/ideal_chord.hpp"
#include "baselines/projection.hpp"
#include "baselines/routing.hpp"
#include "core/convergence.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord {
namespace {

using core::Engine;
using core::RunOptions;
using core::StableSpec;

using Param = std::tuple<gen::Topology, std::size_t, std::uint64_t>;

class ProtocolProperty : public ::testing::TestWithParam<Param> {};

TEST_P(ProtocolProperty, StabilizesToExactSpec) {
  const auto [topo, n, seed] = GetParam();
  util::Rng rng(seed);
  Engine engine(gen::make_network(topo, n, rng), {});
  ASSERT_TRUE(testing::weakly_connected(engine.network()));
  const StableSpec spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 200 * n + 2000;  // generous vs. O(n log n)
  const auto result = run_to_stable(engine, spec, opt);
  ASSERT_TRUE(result.stabilized) << gen::topology_name(topo) << " n=" << n;
  std::string why;
  EXPECT_TRUE(spec.exact_match(engine.network(), &why)) << why;
  EXPECT_TRUE(result.reached_almost);
  EXPECT_LE(result.rounds_to_almost, result.rounds_to_stable);
}

TEST_P(ProtocolProperty, ConnectivityInvariantEveryRound) {
  const auto [topo, n, seed] = GetParam();
  util::Rng rng(seed + 1000);
  Engine engine(gen::make_network(topo, n, rng), {});
  for (std::uint64_t r = 0; r < 200 * n + 2000; ++r) {
    const auto mt = engine.step();
    ASSERT_TRUE(testing::weakly_connected(engine.network()))
        << gen::topology_name(topo) << " n=" << n << " round=" << r;
    if (!mt.changed) return;
  }
  FAIL() << "never stabilized";
}

TEST_P(ProtocolProperty, ChordSubgraphAndRouting) {
  const auto [topo, n, seed] = GetParam();
  util::Rng rng(seed + 2000);
  Engine engine(gen::make_network(topo, n, rng), {});
  const StableSpec spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 200 * n + 2000;
  ASSERT_TRUE(run_to_stable(engine, spec, opt).stabilized);

  // (P5) Fact 2.1 for all non-seam edges.
  const auto projection = core::RealProjection::compute(engine.network());
  const auto ideal = chord::ChordGraph::compute(engine.network());
  const auto cov = chord::check_chord_subgraph(ideal, projection);
  EXPECT_TRUE(cov.core_subgraph_holds())
      << "succ " << cov.succ_covered << "/" << cov.succ_total << " pred "
      << cov.pred_covered << "/" << cov.pred_total << " fingers "
      << cov.finger_covered << "/" << cov.finger_total;

  // (P6) every lookup from every peer succeeds on the full overlay.
  const auto overlay = core::FullOverlay::compute(engine.network());
  util::Rng keys(seed + 3000);
  for (int probe = 0; probe < 20; ++probe) {
    const auto from = static_cast<std::uint32_t>(
        keys.below(overlay.slots.size()));
    const auto result =
        chord::greedy_lookup(overlay.graph, overlay.pos, from, keys.next(),
                             8 * overlay.slots.size() + 64);
    EXPECT_TRUE(result.success) << "lookup stuck, from vertex " << from;
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = gen::topology_name(std::get<0>(info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_n" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    TopologySweep, ProtocolProperty,
    ::testing::Combine(::testing::Values(gen::Topology::kRandomConnected,
                                         gen::Topology::kLine,
                                         gen::Topology::kStar,
                                         gen::Topology::kStarOut,
                                         gen::Topology::kBinaryTree,
                                         gen::Topology::kCycle,
                                         gen::Topology::kClique,
                                         gen::Topology::kTwoClusters),
                       ::testing::Values(std::size_t{4}, std::size_t{16},
                                         std::size_t{40}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3})),
    param_name);

// Scrambled arbitrary states: markings and garbage virtuals fuzzed.
class ScrambleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScrambleProperty, ArbitraryStateRecovers) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  const std::size_t n = 12 + seed % 17;
  auto net = gen::make_network(gen::Topology::kRandomConnected, n, rng);
  gen::scramble_state(net, rng);
  ASSERT_TRUE(testing::peers_weakly_connected(net));
  Engine engine(std::move(net), {});
  const StableSpec spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 200 * n + 2000;
  const auto result = run_to_stable(engine, spec, opt);
  ASSERT_TRUE(result.stabilized) << "seed=" << seed;
  std::string why;
  EXPECT_TRUE(spec.exact_match(engine.network(), &why))
      << "seed=" << seed << ": " << why;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ScrambleProperty,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{41}));

}  // namespace
}  // namespace rechord
