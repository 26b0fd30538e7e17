#include "core/network.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "core/churn.hpp"
#include "core/engine.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace rechord::core {
namespace {

using testing::make_net;

TEST(SlotAddressing, RoundTrips) {
  EXPECT_EQ(slot_of(0, 0), 0U);
  EXPECT_EQ(slot_of(2, 5), 2 * kSlotsPerOwner + 5);
  EXPECT_EQ(owner_of(slot_of(7, 64)), 7U);
  EXPECT_EQ(index_of(slot_of(7, 64)), 64U);
  EXPECT_TRUE(is_real_slot(slot_of(3, 0)));
  EXPECT_FALSE(is_real_slot(slot_of(3, 1)));
}

TEST(NetworkInit, OnlyRealSlotsAlive) {
  const auto net = make_net({0.1, 0.5, 0.9});
  EXPECT_EQ(net.owner_count(), 3U);
  EXPECT_EQ(net.alive_owner_count(), 3U);
  EXPECT_EQ(net.live_slot_count(), 3U);
  EXPECT_EQ(net.live_virtual_count(), 0U);
  EXPECT_TRUE(net.alive(slot_of(0, 0)));
  EXPECT_FALSE(net.alive(slot_of(0, 1)));
}

TEST(NetworkInit, VirtualPositionsPrecomputed) {
  const auto net = make_net({0.25});
  EXPECT_EQ(net.pos(slot_of(0, 0)), ident::pos_from_double(0.25));
  EXPECT_EQ(net.pos(slot_of(0, 1)), ident::pos_from_double(0.75));
  EXPECT_EQ(net.pos(slot_of(0, 2)), ident::pos_from_double(0.5));
}

TEST(Order, PositionFirstVirtualBeforeReal) {
  // Dyadic ids so the coincidence is exact: 0.75's v1 sits at 0.25.
  const auto net = make_net({0.25, 0.75});
  const Slot real_025 = slot_of(0, 0);
  const Slot virt_025 = slot_of(1, 1);
  ASSERT_EQ(net.pos(real_025), net.pos(virt_025));
  EXPECT_TRUE(net.before(virt_025, real_025));  // virtual sorts first
  EXPECT_TRUE(net.before(real_025, slot_of(1, 0)));
}

TEST(Edges, AddRemoveHas) {
  auto net = make_net({0.1, 0.2, 0.3});
  const Slot a = slot_of(0, 0), b = slot_of(1, 0), c = slot_of(2, 0);
  EXPECT_TRUE(net.add_edge(a, EdgeKind::kUnmarked, b));
  EXPECT_FALSE(net.add_edge(a, EdgeKind::kUnmarked, b));  // duplicate
  EXPECT_TRUE(net.has_edge(a, EdgeKind::kUnmarked, b));
  EXPECT_FALSE(net.has_edge(a, EdgeKind::kRing, b));  // marking-specific
  EXPECT_TRUE(net.add_edge(a, EdgeKind::kRing, b));   // multigraph
  EXPECT_TRUE(net.add_edge(a, EdgeKind::kUnmarked, c));
  EXPECT_TRUE(net.remove_edge(a, EdgeKind::kUnmarked, b));
  EXPECT_FALSE(net.remove_edge(a, EdgeKind::kUnmarked, b));
  EXPECT_TRUE(net.has_edge(a, EdgeKind::kRing, b));
}

TEST(Edges, DuplicateDeliveriesLeaveNoDirtyMarks) {
  // The contract the scheduler's translation closure (DESIGN.md §6.6)
  // depends on: re-delivering an edge that is already present must be a
  // complete no-op -- no dirty mark, no digest movement, no change report --
  // so emit-only injections into resting peers cannot wake anyone and a
  // fixpoint round stays a fixpoint.
  auto net = make_net({0.1, 0.2, 0.3});
  const Slot a = slot_of(0, 0), b = slot_of(1, 0), c = slot_of(2, 0);
  ASSERT_TRUE(net.add_edge(a, EdgeKind::kConnection, b));
  ASSERT_TRUE(net.add_edge(a, EdgeKind::kConnection, c));
  net.rebuild_change_baseline();
  ASSERT_FALSE(net.consume_round_changes());
  EXPECT_FALSE(net.add_edge(a, EdgeKind::kConnection, b));
  EXPECT_FALSE(net.owner_dirty(0));
  EXPECT_FALSE(net.slot_dirty(a));
  EXPECT_FALSE(net.consume_round_changes());
  // A genuinely new edge still marks and reports.
  EXPECT_TRUE(net.add_edge(b, EdgeKind::kConnection, c));
  EXPECT_TRUE(net.owner_dirty(1));
  EXPECT_TRUE(net.consume_round_changes());
}

// topology_version() is the only guard of the request engine's cached
// routing rows: every mutator must bump it, and a duplicate insertion -- a
// complete no-op by the contract above -- must not.
TEST(TopologyVersion, EveryMutatorBumpsDuplicatesDoNot) {
  auto net = make_net({0.1, 0.2, 0.3, 0.4});
  const Slot a = slot_of(0, 0), b = slot_of(1, 0), c = slot_of(2, 0),
             d = slot_of(3, 0), v = slot_of(1, 1);
  const auto bumps = [&net](const std::function<void()>& mutate) {
    const std::uint64_t before = net.topology_version();
    mutate();
    return net.topology_version() > before;
  };
  EXPECT_TRUE(bumps([&] { net.add_edge(a, EdgeKind::kUnmarked, b); }));
  EXPECT_FALSE(bumps([&] { net.add_edge(a, EdgeKind::kUnmarked, b); }));
  EXPECT_TRUE(bumps([&] { net.add_edge(a, EdgeKind::kRing, c); }));
  EXPECT_TRUE(bumps([&] { net.add_edge(a, EdgeKind::kRing, d); }));
  EXPECT_FALSE(bumps([&] { net.add_edge(a, EdgeKind::kRing, c); }));
  EXPECT_TRUE(bumps([&] { net.remove_edge(a, EdgeKind::kUnmarked, b); }));
  EXPECT_TRUE(bumps([&] { net.clear_edges(a); }));
  EXPECT_TRUE(bumps([&] { net.set_rl(b, a); }));
  EXPECT_TRUE(bumps([&] { net.set_rr(b, c); }));
  EXPECT_TRUE(bumps([&] { net.set_alive(v, true); }));
  EXPECT_TRUE(bumps([&] { net.add_owner(ident::pos_from_double(0.6)); }));
  // normalize() rewrites the edge into a slot that died since.
  ASSERT_TRUE(net.add_edge(c, EdgeKind::kUnmarked, v));
  EXPECT_TRUE(bumps([&] { net.set_alive(v, false); }));
  EXPECT_TRUE(bumps([&] { net.normalize(); }));
  EXPECT_FALSE(bumps([&] { net.normalize(); }));  // nothing left to rewrite
}

// remove_edges_bulk is the one-pass form of a remove_edge loop: same sets,
// same per-kind edge counts, the same slot and owner dirty marks, and a
// topology_version() that rises iff something was removed.
TEST(Network, RemoveEdgesBulkMatchesPerEdge) {
  util::Rng rng(7);
  std::vector<RingPos> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(rng.next());
  Network base{std::span<const RingPos>(ids)};
  for (std::uint32_t o = 0; o < 24; ++o)
    for (std::uint32_t i = 1; i < 4; ++i) base.set_alive(slot_of(o, i), true);
  const Slot dead_src = slot_of(5, 9);  // edges held by a dead slot too
  std::vector<Slot> sources = base.live_slots();
  sources.push_back(dead_src);
  for (const Slot s : sources)
    for (int k = 0; k < kEdgeKinds; ++k)
      for (int e = 0; e < 12; ++e)
        base.add_edge(s, static_cast<EdgeKind>(k),
                      slot_of(static_cast<std::uint32_t>(rng.below(24)),
                              static_cast<std::uint32_t>(rng.below(4))));
  for (int trial = 0; trial < 400; ++trial) {
    const Slot s = sources[rng.below(sources.size())];
    const auto k = static_cast<EdgeKind>(rng.below(kEdgeKinds));
    // A random subsequence of the set, every fifth trial all of it.
    std::vector<Slot> targets;
    const bool all = trial % 5 == 0;
    for (const Slot t : base.edges(s, k))
      if (all || rng.below(2) == 0) targets.push_back(t);
    Network bulk = base, per_edge = base;
    bulk.rebuild_change_baseline();
    per_edge.rebuild_change_baseline();
    const std::uint64_t v0 = bulk.topology_version();
    const std::size_t removed = bulk.remove_edges_bulk(s, k, targets);
    std::size_t expect = 0;
    for (const Slot t : targets) expect += per_edge.remove_edge(s, k, t);
    ASSERT_EQ(removed, targets.size()) << "trial " << trial;
    ASSERT_EQ(removed, expect);
    ASSERT_EQ(bulk.serialize_state(), per_edge.serialize_state());
    for (int kk = 0; kk < kEdgeKinds; ++kk)
      ASSERT_EQ(bulk.edge_count(static_cast<EdgeKind>(kk)),
                per_edge.edge_count(static_cast<EdgeKind>(kk)));
    ASSERT_EQ(bulk.topology_version() > v0, removed > 0);
    for (Slot x = 0; x < bulk.slot_count(); ++x)
      ASSERT_EQ(bulk.slot_dirty(x), per_edge.slot_dirty(x)) << x;
    for (std::uint32_t o = 0; o < bulk.owner_count(); ++o)
      ASSERT_EQ(bulk.owner_dirty(o), per_edge.owner_dirty(o)) << o;
  }
  // An empty list is a no-op: no removal, no mark, no version bump.
  base.rebuild_change_baseline();
  const std::uint64_t v0 = base.topology_version();
  const Slot s = sources.front();
  const std::vector<Slot> before = base.edges(s, EdgeKind::kUnmarked);
  EXPECT_EQ(base.remove_edges_bulk(s, EdgeKind::kUnmarked, {}), 0U);
  EXPECT_EQ(base.edges(s, EdgeKind::kUnmarked), before);
  EXPECT_EQ(base.topology_version(), v0);
  EXPECT_FALSE(base.slot_dirty(s));
  EXPECT_FALSE(base.owner_dirty(owner_of(s)));
}

TEST(TopologyVersion, EngineMembershipHooksBump) {
  auto net = make_net({0.1, 0.3, 0.5, 0.7});
  for (std::uint32_t o = 0; o < 4; ++o)
    net.add_edge(slot_of(o, 0), EdgeKind::kUnmarked, slot_of((o + 1) % 4, 0));
  Engine engine(std::move(net));
  engine.step();
  const auto bumps = [&engine](const std::function<void()>& mutate) {
    const std::uint64_t before = engine.network().topology_version();
    mutate();
    return engine.network().topology_version() > before;
  };
  EXPECT_TRUE(bumps([&] { engine.join_peer(ident::pos_from_double(0.9), 0); }));
  EXPECT_TRUE(bumps([&] { engine.leave_peer(1); }));
  const PeerSnapshot snap = capture_peer(engine.network(), 2);
  EXPECT_TRUE(bumps([&] { engine.crash_peer(2); }));
  EXPECT_TRUE(bumps([&] { engine.restart_peer(snap); }));
}

TEST(Edges, SelfEdgesRejected) {
  auto net = make_net({0.1});
  EXPECT_FALSE(net.add_edge(0, EdgeKind::kUnmarked, 0));
  EXPECT_TRUE(net.edges(0, EdgeKind::kUnmarked).empty());
}

TEST(Edges, KeptSortedByOrder) {
  auto net = make_net({0.5, 0.1, 0.9, 0.3});
  const Slot s = slot_of(0, 0);
  net.add_edge(s, EdgeKind::kUnmarked, slot_of(2, 0));  // 0.9
  net.add_edge(s, EdgeKind::kUnmarked, slot_of(1, 0));  // 0.1
  net.add_edge(s, EdgeKind::kUnmarked, slot_of(3, 0));  // 0.3
  const auto& nu = net.edges(s, EdgeKind::kUnmarked);
  ASSERT_EQ(nu.size(), 3U);
  EXPECT_EQ(nu[0], slot_of(1, 0));
  EXPECT_EQ(nu[1], slot_of(3, 0));
  EXPECT_EQ(nu[2], slot_of(2, 0));
}

TEST(MaxLiveIndex, TracksVirtuals) {
  auto net = make_net({0.1});
  EXPECT_EQ(net.max_live_index(0), 0U);
  net.set_alive(slot_of(0, 3), true);
  net.set_alive(slot_of(0, 1), true);
  EXPECT_EQ(net.max_live_index(0), 3U);
}

TEST(Normalize, RehomesDeadVirtualReferences) {
  auto net = make_net({0.1, 0.6});
  const Slot dead = slot_of(1, 5);
  const Slot um = slot_of(1, 2);
  net.set_alive(dead, true);
  net.set_alive(um, true);
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, dead);
  net.set_alive(dead, false);
  net.normalize();
  const auto& nu = net.edges(slot_of(0, 0), EdgeKind::kUnmarked);
  ASSERT_EQ(nu.size(), 1U);
  EXPECT_EQ(nu[0], um);  // re-homed to the owner's largest live index
}

TEST(Normalize, DropsReferencesToDeadOwner) {
  auto net = make_net({0.1, 0.6});
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  net.set_alive(slot_of(1, 0), false);
  net.normalize();
  EXPECT_TRUE(net.edges(slot_of(0, 0), EdgeKind::kUnmarked).empty());
}

TEST(Normalize, DropsSelfAfterRehoming) {
  auto net = make_net({0.1});
  const Slot u1 = slot_of(0, 1);
  const Slot u2 = slot_of(0, 2);
  net.set_alive(u1, true);
  net.set_alive(u2, true);
  net.add_edge(u1, EdgeKind::kUnmarked, u2);
  net.set_alive(u2, false);  // u2's references re-home to u1 -> self -> drop
  net.normalize();
  EXPECT_TRUE(net.edges(u1, EdgeKind::kUnmarked).empty());
}

TEST(Normalize, ClearsRlRrOfDeadSlots) {
  auto net = make_net({0.1, 0.6});
  net.set_rl(slot_of(0, 0), slot_of(1, 0));
  net.set_alive(slot_of(1, 0), false);
  net.normalize();
  EXPECT_EQ(net.rl(slot_of(0, 0)), kInvalidSlot);
}

TEST(Serialize, EqualStatesEqualBytes) {
  auto a = make_net({0.1, 0.6});
  auto b = make_net({0.1, 0.6});
  a.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  b.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  EXPECT_EQ(a.serialize_state(), b.serialize_state());
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  b.add_edge(slot_of(1, 0), EdgeKind::kRing, slot_of(0, 0));
  EXPECT_NE(a.serialize_state(), b.serialize_state());
  EXPECT_NE(a.state_fingerprint(), b.state_fingerprint());
}

TEST(Serialize, RlRrIncluded) {
  auto a = make_net({0.1, 0.6});
  auto b = make_net({0.1, 0.6});
  a.set_rl(slot_of(0, 0), slot_of(1, 0));
  EXPECT_NE(a.serialize_state(), b.serialize_state());
}

TEST(Metrics, CountsPerKind) {
  auto net = make_net({0.1, 0.4, 0.8});
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  net.add_edge(slot_of(1, 0), EdgeKind::kRing, slot_of(2, 0));
  net.add_edge(slot_of(2, 0), EdgeKind::kConnection, slot_of(0, 0));
  net.add_edge(slot_of(2, 0), EdgeKind::kConnection, slot_of(1, 0));
  EXPECT_EQ(net.edge_count(EdgeKind::kUnmarked), 1U);
  EXPECT_EQ(net.edge_count(EdgeKind::kRing), 1U);
  EXPECT_EQ(net.edge_count(EdgeKind::kConnection), 2U);
}

TEST(AddOwner, GrowsNetwork) {
  auto net = make_net({0.125});
  const auto o = net.add_owner(ident::pos_from_double(0.75));
  EXPECT_EQ(o, 1U);
  EXPECT_EQ(net.owner_count(), 2U);
  EXPECT_TRUE(net.owner_alive(1));
  EXPECT_EQ(net.pos(slot_of(1, 1)), ident::pos_from_double(0.25));
}

TEST(Describe, MentionsKindAndOwner) {
  auto net = make_net({0.25});
  EXPECT_NE(net.describe(slot_of(0, 0)).find("r0@0"), std::string::npos);
  EXPECT_NE(net.describe(slot_of(0, 2)).find("v2@0"), std::string::npos);
}

TEST(LiveSlots, EnumerationsConsistent) {
  auto net = make_net({0.1, 0.6});
  net.set_alive(slot_of(0, 2), true);
  EXPECT_EQ(net.live_slots().size(), 3U);
  EXPECT_EQ(net.live_slots_of(0).size(), 2U);
  EXPECT_EQ(net.live_owners().size(), 2U);
  EXPECT_EQ(net.live_virtual_count(), 1U);
}

}  // namespace
}  // namespace rechord::core
