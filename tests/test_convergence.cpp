// Integration tests: the protocol as a whole drives arbitrary weakly
// connected initial states to the exact stable Re-Chord topology
// (Theorem 1.1), the fixpoint is genuinely quiescent, and serial/parallel
// round execution agree bit for bit.

#include "core/convergence.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord::core {
namespace {

RunResult converge(Engine& engine, std::uint64_t cap = 10000) {
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = cap;
  return run_to_stable(engine, spec, opt);
}

TEST(Convergence, SinglePeerStabilizes) {
  const std::vector<RingPos> ids{ident::pos_from_double(0.3)};
  Engine engine(Network{std::span<const RingPos>(ids)}, {});
  const auto result = converge(engine);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
  EXPECT_EQ(result.final_metrics.virtual_nodes, 1U);  // u1 at the antipode
}

TEST(Convergence, TwoPeersFormRing) {
  util::Rng rng(1);
  auto net = gen::make_network(gen::Topology::kLine, 2, rng);
  Engine engine(std::move(net), {});
  const auto result = converge(engine);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
  EXPECT_EQ(result.final_metrics.ring_edges, 2U);
}

TEST(Convergence, LineTopologyStabilizesToSpec) {
  util::Rng rng(2);
  Engine engine(gen::make_network(gen::Topology::kLine, 24, rng), {});
  const auto result = converge(engine);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
  EXPECT_TRUE(result.reached_almost);
  EXPECT_LE(result.rounds_to_almost, result.rounds_to_stable);
}

TEST(Convergence, StarTopologyStabilizes) {
  util::Rng rng(3);
  Engine engine(gen::make_network(gen::Topology::kStar, 20, rng), {});
  EXPECT_TRUE(converge(engine).spec_exact);
}

TEST(Convergence, FixpointIsQuiescent) {
  util::Rng rng(4);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 15, rng),
                {});
  ASSERT_TRUE(converge(engine).stabilized);
  // 20 further rounds: state must never change again.
  const auto frozen = engine.network().serialize_state();
  for (int r = 0; r < 20; ++r) {
    const auto mt = engine.step();
    EXPECT_FALSE(mt.changed) << "state changed in post-stable round " << r;
  }
  EXPECT_EQ(engine.network().serialize_state(), frozen);
}

TEST(Convergence, ScrambledStateRecovers) {
  util::Rng rng(5);
  auto net = gen::make_network(gen::Topology::kRandomConnected, 18, rng);
  gen::scramble_state(net, rng);
  ASSERT_TRUE(testing::peers_weakly_connected(net));
  Engine engine(std::move(net), {});
  const auto result = converge(engine);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

TEST(Convergence, RingAndConnectionGarbageRecovers) {
  // All initial edges marked as ring edges -- maximally wrong markings.
  util::Rng rng(6);
  auto net = gen::make_network(gen::Topology::kCycle, 12, rng);
  for (Slot s : net.live_slots()) {
    const auto nu = net.edges(s, EdgeKind::kUnmarked);
    for (Slot t : nu) {
      net.remove_edge(s, EdgeKind::kUnmarked, t);
      net.add_edge(s, EdgeKind::kRing, t);
    }
  }
  Engine engine(std::move(net), {});
  const auto result = converge(engine);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

TEST(Convergence, RoundsWithinTheoremBound) {
  // Theorem 1.1: O(n log n); we assert a generous c * n * log2(n).
  for (std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    util::Rng rng(seed);
    const std::size_t n = 32;
    Engine engine(gen::make_network(gen::Topology::kRandomConnected, n, rng),
                  {});
    const auto result = converge(engine);
    ASSERT_TRUE(result.stabilized);
    EXPECT_LE(result.rounds_to_stable, 10 * n * 5)
        << "suspiciously slow for n=" << n << " seed=" << seed;
  }
}

TEST(Convergence, WeakConnectivityNeverLost) {
  util::Rng rng(10);
  auto net = gen::make_network(gen::Topology::kTwoClusters, 16, rng);
  ASSERT_TRUE(testing::weakly_connected(net));
  Engine engine(std::move(net), {});
  for (int r = 0; r < 200; ++r) {
    const auto mt = engine.step();
    ASSERT_TRUE(testing::weakly_connected(engine.network()))
        << "disconnected after round " << r;
    if (!mt.changed) break;
  }
}

TEST(Convergence, SerialAndParallelBitIdentical) {
  util::Rng rng_a(11), rng_b(11);
  Engine serial(gen::make_network(gen::Topology::kRandomConnected, 80, rng_a),
                {.threads = 1});
  Engine parallel(
      gen::make_network(gen::Topology::kRandomConnected, 80, rng_b),
      {.threads = 4});
  for (int r = 0; r < 40; ++r) {
    const auto a = serial.step();
    const auto b = parallel.step();
    ASSERT_EQ(serial.network().state_fingerprint(),
              parallel.network().state_fingerprint())
        << "divergence at round " << r;
    if (!a.changed && !b.changed) break;
  }
}

TEST(Convergence, RoundObserverRecordsEveryRound) {
  util::Rng rng(12);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 10, rng),
                {});
  const auto spec = StableSpec::compute(engine.network());
  std::vector<RoundMetrics> series;
  engine.set_round_observer(
      [&series](const RoundMetrics& mt) { series.push_back(mt); });
  RunOptions opt;
  opt.max_rounds = 10000;
  const auto result = run_to_stable(engine, spec, opt);
  ASSERT_TRUE(result.stabilized);
  EXPECT_EQ(series.size(), result.rounds_to_stable + 1);
  for (std::size_t i = 0; i < series.size(); ++i)
    EXPECT_EQ(series[i].round, i + 1);
}

TEST(Convergence, MetricsMatchPaperDefinitions) {
  util::Rng rng(13);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 12, rng),
                {});
  ASSERT_TRUE(converge(engine).stabilized);
  const auto mt = engine.measure();
  EXPECT_EQ(mt.normal_edges(), mt.unmarked_edges + mt.ring_edges);
  EXPECT_EQ(mt.total_edges(), mt.normal_edges() + mt.connection_edges);
  EXPECT_EQ(mt.total_nodes(), mt.real_nodes + mt.virtual_nodes);
  EXPECT_EQ(mt.real_nodes, 12U);
  EXPECT_EQ(mt.ring_edges, 2U);  // exactly the two closure edges
}

TEST(Convergence, StableVirtualCountsMatchSpec) {
  util::Rng rng(14);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 20, rng),
                {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  std::size_t expected_virtuals = 0;
  for (auto o : engine.network().live_owners())
    expected_virtuals += static_cast<std::size_t>(spec.m_of(o));
  EXPECT_EQ(engine.network().live_virtual_count(), expected_virtuals);
}

TEST(Convergence, MaxRoundsCapReportsFailure) {
  util::Rng rng(15);
  Engine engine(gen::make_network(gen::Topology::kLine, 30, rng), {});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 2;  // far too few
  const auto result = run_to_stable(engine, spec, opt);
  EXPECT_FALSE(result.stabilized);
}

TEST(Convergence, ResetChangeTrackingForcesRecheck) {
  util::Rng rng(16);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 8, rng),
                {});
  ASSERT_TRUE(converge(engine).stabilized);
  // Inject a stray edge between two live slots far apart.
  const auto slots = engine.network().live_slots();
  engine.network().add_edge(slots.front(), EdgeKind::kUnmarked,
                            slots[slots.size() / 2]);
  engine.reset_change_tracking();
  // The extra edge gets cleaned up and the network re-stabilizes.
  const auto result = converge(engine);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

}  // namespace
}  // namespace rechord::core
