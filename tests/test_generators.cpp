#include "gen/topologies.hpp"

#include <gtest/gtest.h>

#include <set>

#include "test_util.hpp"

namespace rechord::gen {
namespace {

TEST(Topologies, AllFamiliesAreWeaklyConnected) {
  for (Topology t : all_topologies()) {
    for (std::size_t n : {1UL, 2UL, 5UL, 23UL}) {
      util::Rng rng(7);
      const auto g = make_topology(t, n, rng);
      EXPECT_EQ(g.vertex_count(), n) << topology_name(t);
      EXPECT_TRUE(testing::weakly_connected(g))
          << topology_name(t) << " n=" << n;
    }
  }
}

TEST(Topologies, LineHasExactEdges) {
  util::Rng rng(1);
  const auto g = make_topology(Topology::kLine, 6, rng);
  EXPECT_EQ(g.edge_count(), 5U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(4, 5));
}

TEST(Topologies, StarPointsAtHub) {
  util::Rng rng(1);
  const auto g = make_topology(Topology::kStar, 5, rng);
  for (graph::Vertex v = 1; v < 5; ++v) EXPECT_TRUE(g.has_edge(v, 0));
  EXPECT_EQ(g.out_degree(0), 0U);
}

TEST(Topologies, CliqueIsComplete) {
  util::Rng rng(1);
  const auto g = make_topology(Topology::kClique, 4, rng);
  EXPECT_EQ(g.edge_count(), 12U);
}

TEST(Topologies, CycleIsStronglyConnected) {
  util::Rng rng(1);
  const auto g = make_topology(Topology::kCycle, 7, rng);
  EXPECT_TRUE(testing::strongly_connected(g));
}

TEST(Topologies, RandomConnectedHonorsExtraEdgeFactor) {
  util::Rng rng(2);
  TopologyOptions sparse{.extra_edge_factor = 0.0};
  const auto g0 = make_topology(Topology::kRandomConnected, 30, rng, sparse);
  EXPECT_EQ(g0.edge_count(), 29U);  // spanning tree only
  TopologyOptions dense{.extra_edge_factor = 3.0};
  const auto g3 = make_topology(Topology::kRandomConnected, 30, rng, dense);
  EXPECT_GT(g3.edge_count(), 60U);
}

TEST(Topologies, DeterministicPerSeed) {
  util::Rng a(3), b(3);
  const auto ga = make_topology(Topology::kRandomConnected, 20, a);
  const auto gb = make_topology(Topology::kRandomConnected, 20, b);
  const auto ea = ga.edges();
  const auto eb = gb.edges();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].from, eb[i].from);
    EXPECT_EQ(ea[i].to, eb[i].to);
  }
}

TEST(RandomIds, DistinctAndDeterministic) {
  util::Rng a(4), b(4);
  const auto ia = random_ids(a, 100);
  const auto ib = random_ids(b, 100);
  EXPECT_EQ(ia, ib);
  const std::set<core::RingPos> s(ia.begin(), ia.end());
  EXPECT_EQ(s.size(), 100U);
}

TEST(MakeNetwork, EdgesLandOnRealSlots) {
  util::Rng rng(5);
  const auto ids = random_ids(rng, 4);
  graph::Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(1, 2);
  const auto net = make_network(ids, g);
  EXPECT_TRUE(net.has_edge(core::slot_of(0, 0), core::EdgeKind::kUnmarked,
                           core::slot_of(1, 0)));
  EXPECT_TRUE(net.has_edge(core::slot_of(2, 0), core::EdgeKind::kUnmarked,
                           core::slot_of(3, 0)));
  EXPECT_EQ(net.edge_count(core::EdgeKind::kUnmarked), 3U);
}

TEST(Scramble, PreservesPeerWeakConnectivity) {
  // The paper's precondition: PEERS weakly connected. Garbage virtual nodes
  // may start disconnected (§3.1.1) -- the protocol reconnects them.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    auto net = make_network(Topology::kRandomConnected, 15, rng);
    scramble_state(net, rng);
    EXPECT_TRUE(testing::peers_weakly_connected(net)) << "seed=" << seed;
  }
}

TEST(Scramble, InjectsGarbageVirtualsAndMarkings) {
  util::Rng rng(6);
  auto net = make_network(Topology::kRandomConnected, 20, rng);
  scramble_state(net, rng);
  const bool any_virtual = net.live_virtual_count() > 0;
  const bool any_marked = net.edge_count(core::EdgeKind::kRing) +
                              net.edge_count(core::EdgeKind::kConnection) >
                          0;
  EXPECT_TRUE(any_virtual);
  EXPECT_TRUE(any_marked);
}

TEST(TopologyNames, UniqueAndStable) {
  std::set<std::string> names;
  for (Topology t : all_topologies()) names.insert(topology_name(t));
  EXPECT_EQ(names.size(), all_topologies().size());
  EXPECT_EQ(std::string(topology_name(Topology::kLine)), "line");
}

}  // namespace
}  // namespace rechord::gen
