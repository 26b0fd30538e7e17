// Tests for the overlay views: the real-node projection E_ReChord (paper
// §2.2) and the full slot-level overlay used for guaranteed-progress walks.

#include "baselines/projection.hpp"

#include <gtest/gtest.h>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord::core {
namespace {

using testing::make_net;

TEST(RealProjection, MapsOwnersDensely) {
  auto net = make_net({0.3, 0.1, 0.7});
  const auto proj = RealProjection::compute(net);
  ASSERT_EQ(proj.owners.size(), 3U);
  for (std::uint32_t v = 0; v < 3; ++v) {
    EXPECT_EQ(proj.vertex_of_owner[proj.owners[v]], v);
    EXPECT_EQ(proj.pos[v], net.owner_pos(proj.owners[v]));
  }
}

TEST(RealProjection, VirtualSlotEdgesProjectToOwner) {
  // (u_2 of owner 0) -> (real of owner 1) must appear as owner0 -> owner1.
  auto net = make_net({0.1, 0.4});
  net.set_alive(slot_of(0, 2), true);
  net.add_edge(slot_of(0, 2), EdgeKind::kUnmarked, slot_of(1, 0));
  const auto proj = RealProjection::compute(net);
  EXPECT_TRUE(proj.graph.has_edge(0, 1));
  EXPECT_FALSE(proj.graph.has_edge(1, 0));
}

TEST(RealProjection, EdgesToVirtualTargetsExcluded) {
  // The paper's E_ReChord only keeps edges whose TARGET is a real node.
  auto net = make_net({0.1, 0.4});
  net.set_alive(slot_of(1, 1), true);
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 1));
  const auto proj = RealProjection::compute(net);
  EXPECT_FALSE(proj.graph.has_edge(0, 1));
}

TEST(RealProjection, ConnectionEdgesExcluded) {
  auto net = make_net({0.1, 0.4});
  net.add_edge(slot_of(0, 0), EdgeKind::kConnection, slot_of(1, 0));
  const auto proj = RealProjection::compute(net);
  EXPECT_EQ(proj.graph.edge_count(), 0U);
  net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  EXPECT_TRUE(RealProjection::compute(net).graph.has_edge(0, 1));
}

TEST(RealProjection, DeduplicatesParallelSlotEdges) {
  auto net = make_net({0.1, 0.4});
  net.set_alive(slot_of(0, 1), true);
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  net.add_edge(slot_of(0, 1), EdgeKind::kUnmarked, slot_of(1, 0));
  const auto proj = RealProjection::compute(net);
  EXPECT_EQ(proj.graph.edge_count(), 1U);
}

TEST(RealProjection, DeadOwnersOmitted) {
  auto net = make_net({0.1, 0.4, 0.8});
  net.set_alive(slot_of(1, 0), false);
  net.normalize();
  const auto proj = RealProjection::compute(net);
  EXPECT_EQ(proj.owners.size(), 2U);
  EXPECT_EQ(proj.vertex_of_owner[1], UINT32_MAX);
}

TEST(RealProjection, StableNetworkIsStronglyConnected) {
  util::Rng rng(3);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 20, rng),
                {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  const auto proj = RealProjection::compute(engine.network());
  EXPECT_TRUE(testing::strongly_connected(proj.graph))
      << "every peer must reach every peer over E_ReChord";
}

TEST(FullOverlay, EnumeratesAllLiveSlots) {
  util::Rng rng(4);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 10, rng),
                {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  const auto ov = FullOverlay::compute(engine.network());
  EXPECT_EQ(ov.slots.size(), engine.network().live_slot_count());
  for (std::uint32_t v = 0; v < ov.slots.size(); ++v) {
    EXPECT_EQ(ov.vertex_of_slot[ov.slots[v]], v);
    EXPECT_EQ(ov.pos[v], engine.network().pos(ov.slots[v]));
  }
}

TEST(FullOverlay, StableOverlayHasClockwiseProgressEverywhere) {
  // Every node except the global maximum has an out-edge to a node strictly
  // clockwise-closer to wherever one is heading: specifically, each node has
  // either a larger neighbor (cr) or the ring edge across the seam.
  util::Rng rng(5);
  Engine engine(gen::make_network(gen::Topology::kRandomConnected, 14, rng),
                {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  const auto ov = FullOverlay::compute(engine.network());
  const auto& net = engine.network();
  for (std::uint32_t v = 0; v < ov.slots.size(); ++v) {
    bool has_progress = false;
    for (auto w : ov.graph.out(v))
      has_progress |= ident::cw_dist(ov.pos[v], ov.pos[w]) > 0 ||
                      net.before(ov.slots[v], ov.slots[w]);
    EXPECT_TRUE(has_progress) << net.describe(ov.slots[v]);
  }
}

TEST(FullOverlay, StableOverlayWeaklyConnected) {
  util::Rng rng(6);
  Engine engine(gen::make_network(gen::Topology::kStar, 12, rng), {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  const auto ov = FullOverlay::compute(engine.network());
  EXPECT_TRUE(testing::weakly_connected(ov.graph));
}

}  // namespace
}  // namespace rechord::core
