// Unit tests for the six self-stabilization rules (paper §2.3), each
// exercised in isolation on hand-built network states.

#include "core/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace rechord::core {
namespace {

using testing::make_net;

bool has_op(const std::vector<DelayedOp>& ops, Slot target, EdgeKind k,
            Slot payload) {
  return std::find(ops.begin(), ops.end(), DelayedOp{target, k, payload}) !=
         ops.end();
}

struct Fixture {
  Network net;
  std::vector<DelayedOp> ops;
  RuleCtx ctx;

  explicit Fixture(Network n) : net(std::move(n)), ctx(net, 0, ops) {}
  void prep() {
    Rules::refresh_siblings(ctx);
    Rules::refresh_known(ctx);
  }
};

// ------------------------------------------------------------- compute_m

TEST(ComputeM, NoKnownRealDefaultsToOne) {
  const auto net = make_net({0.1, 0.5});
  EXPECT_EQ(Rules::compute_m(net, 0), 1);
}

TEST(ComputeM, UsesClosestRealSuccessor) {
  auto net = make_net({0.1, 0.4});
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  // gap = 0.3 -> 2^-2 <= 0.3 < 2^-1 -> m = 2.
  EXPECT_EQ(Rules::compute_m(net, 0), 2);
}

TEST(ComputeM, AnyEdgeMarkingCounts) {
  auto net = make_net({0.1, 0.4});
  net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  EXPECT_EQ(Rules::compute_m(net, 0), 2);
}

TEST(ComputeM, PicksMinimumGapAmongTargets) {
  auto net = make_net({0.1, 0.4, 0.9, 0.11});
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));  // 0.25
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));  // 0.8
  net.add_edge(slot_of(0, 0), EdgeKind::kConnection, slot_of(3, 0));  // 0.01
  // gap = 0.01 -> 2^-7 ~ 0.0078 <= 0.01 < 0.0156 -> m = 7.
  EXPECT_EQ(Rules::compute_m(net, 0), 7);
}

TEST(ComputeM, WrappingGap) {
  auto net = make_net({0.9, 0.1});
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  // clockwise 0.9 -> 0.1 = 0.2 -> m = 3.
  EXPECT_EQ(Rules::compute_m(net, 0), 3);
}

TEST(ComputeM, VirtualTargetsIgnored) {
  auto net = make_net({0.1, 0.4});
  net.set_alive(slot_of(1, 4), true);
  net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 4));
  EXPECT_EQ(Rules::compute_m(net, 0), 1);  // only real nodes define m
}

// ------------------------------------------------------------- rule 1

TEST(Rule1, CreatesAllVirtualsUpToM) {
  Fixture f(make_net({0.1, 0.4}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule1_virtual_nodes(f.ctx);
  EXPECT_TRUE(f.net.alive(slot_of(0, 1)));
  EXPECT_TRUE(f.net.alive(slot_of(0, 2)));
  EXPECT_FALSE(f.net.alive(slot_of(0, 3)));
  // siblings scratch refreshed: u0 (0.1), u1 (0.6), u2 (0.35)
  EXPECT_EQ(f.ctx.siblings.size(), 3U);
}

TEST(Rule1, DeletesNeedlessVirtualsAndMergesNeighborhoods) {
  Fixture f(make_net({0.1, 0.4, 0.7}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));  // m = 2
  const Slot garbage = slot_of(0, 6);
  f.net.set_alive(garbage, true);
  f.net.add_edge(garbage, EdgeKind::kUnmarked, slot_of(2, 0));
  f.net.add_edge(garbage, EdgeKind::kRing, slot_of(1, 0));
  f.prep();
  Rules::rule1_virtual_nodes(f.ctx);
  EXPECT_FALSE(f.net.alive(garbage));
  const Slot um = slot_of(0, 2);
  // Both former out-edges (any marking) arrive as unmarked edges at u_m.
  EXPECT_TRUE(f.net.has_edge(um, EdgeKind::kUnmarked, slot_of(2, 0)));
  EXPECT_TRUE(f.net.has_edge(um, EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_TRUE(f.net.edges(garbage, EdgeKind::kUnmarked).empty());
}

TEST(Rule1, StableStateUnchanged) {
  Fixture f(make_net({0.1, 0.4}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule1_virtual_nodes(f.ctx);
  const auto before = f.net.serialize_state();
  Rules::rule1_virtual_nodes(f.ctx);
  EXPECT_EQ(before, f.net.serialize_state());
}

// ------------------------------------------------------------- rule 2

TEST(Rule2, MovesNeighborToSiblingBetween) {
  // Owner 0 at 0.1 with virtuals at 0.6 (v1) and 0.35 (v2); neighbor at 0.5.
  Fixture f(make_net({0.1, 0.5}));
  f.net.set_alive(slot_of(0, 1), true);
  f.net.set_alive(slot_of(0, 2), true);
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule2_overlap(f.ctx);
  // 0.35 lies strictly between 0.1 and 0.5 and is the closest such sibling.
  EXPECT_FALSE(f.net.has_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 2), EdgeKind::kUnmarked, slot_of(1, 0)));
}

TEST(Rule2, MovesLeftNeighborToo) {
  // v1 of owner 0 sits at 0.6; neighbor w at 0.2 < sibling 0.35 < 0.6.
  Fixture f(make_net({0.1, 0.2}));
  f.net.set_alive(slot_of(0, 1), true);  // 0.6
  f.net.set_alive(slot_of(0, 2), true);  // 0.35
  f.net.add_edge(slot_of(0, 1), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule2_overlap(f.ctx);
  EXPECT_FALSE(f.net.has_edge(slot_of(0, 1), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 2), EdgeKind::kUnmarked, slot_of(1, 0)));
}

TEST(Rule2, PicksSiblingClosestToNeighbor) {
  // Siblings at 0.35 (v2) and 0.225 (v3); w at 0.2: v3 is closest above w.
  Fixture f(make_net({0.1, 0.2}));
  f.net.set_alive(slot_of(0, 1), true);  // 0.6
  f.net.set_alive(slot_of(0, 2), true);  // 0.35
  f.net.set_alive(slot_of(0, 3), true);  // 0.225
  f.net.add_edge(slot_of(0, 1), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule2_overlap(f.ctx);
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 3), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_FALSE(f.net.has_edge(slot_of(0, 2), EdgeKind::kUnmarked, slot_of(1, 0)));
}

TEST(Rule2, NoSiblingBetweenNoChange) {
  Fixture f(make_net({0.1, 0.5}));
  f.net.set_alive(slot_of(0, 1), true);  // 0.6 -- not between 0.1 and 0.5
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  const auto before = f.net.serialize_state();
  Rules::rule2_overlap(f.ctx);
  EXPECT_EQ(before, f.net.serialize_state());
}

TEST(Rule2, OnlyUnmarkedEdgesAffected) {
  Fixture f(make_net({0.1, 0.5}));
  f.net.set_alive(slot_of(0, 2), true);  // 0.35 between
  f.net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  f.prep();
  Rules::rule2_overlap(f.ctx);
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0)));
}

// ------------------------------------------------------------- rule 3

TEST(Rule3, FindsClosestRealNeighbors) {
  Fixture f(make_net({0.5, 0.2, 0.8}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);
  EXPECT_EQ(f.ctx.rl_cur[0], slot_of(1, 0));
  EXPECT_EQ(f.ctx.rr_cur[0], slot_of(2, 0));
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
}

TEST(Rule3, InformsNeighborsAboutDiscovery) {
  Fixture f(make_net({0.5, 0.2, 0.8}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);
  // y = 0.8 (> ui) learns about the left real 0.2; y = 0.2 (< ui) learns
  // about the right real 0.8.
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kUnmarked, slot_of(2, 0)));
}

TEST(Rule3, InformGuardSuppressesKnownInformation) {
  Fixture f(make_net({0.5, 0.2, 0.8}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  // 0.8 already published rl = 0.2 and 0.2 published rr = 0.8.
  f.net.set_rl(slot_of(2, 0), slot_of(1, 0));
  f.net.set_rr(slot_of(1, 0), slot_of(2, 0));
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);
  EXPECT_TRUE(f.ops.empty());
}

TEST(Rule3, GuardAllowsStrictlyBetterInformation) {
  // y = 0.8 currently believes its closest left real is 0.1; ui knows 0.2.
  Fixture f(make_net({0.5, 0.2, 0.8, 0.1}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  f.net.set_rl(slot_of(2, 0), slot_of(3, 0));  // stale: 0.1
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
}

TEST(Rule3, KnowledgeSharedAcrossSiblings) {
  // Only the sibling v1 (0.7) has the edge to 0.65; u0 (0.2) still finds its
  // left real via N(u) = S ∪ ⋃ Nu.
  Fixture f(make_net({0.2, 0.65}));
  f.net.set_alive(slot_of(0, 1), true);  // 0.7
  f.net.add_edge(slot_of(0, 1), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);
  EXPECT_EQ(f.ctx.rr_cur[0], slot_of(1, 0));
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
}

TEST(Rule3, NoRealNeighborLeavesInvalid) {
  Fixture f(make_net({0.5}));
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);
  EXPECT_EQ(f.ctx.rl_cur[0], kInvalidSlot);
  EXPECT_EQ(f.ctx.rr_cur[0], kInvalidSlot);
}

// ------------------------------------------------------------- rule 4

TEST(Rule4, KeepsOnlyClosestPerSideAndForwards) {
  Fixture f(make_net({0.5, 0.1, 0.2, 0.3, 0.7, 0.9}));
  const Slot u = slot_of(0, 0);
  for (std::uint32_t o = 1; o <= 5; ++o)
    f.net.add_edge(u, EdgeKind::kUnmarked, slot_of(o, 0));
  f.prep();
  Rules::rule4_linearize(f.ctx);
  const auto& nu = f.net.edges(u, EdgeKind::kUnmarked);
  ASSERT_EQ(nu.size(), 2U);
  EXPECT_EQ(nu[0], slot_of(3, 0));  // 0.3 closest left
  EXPECT_EQ(nu[1], slot_of(4, 0));  // 0.7 closest right
  // Forwarding: (0.2 -> 0.1), (0.3 -> 0.2) on the left; (0.7 -> 0.9) right.
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_TRUE(has_op(f.ops, slot_of(3, 0), EdgeKind::kUnmarked, slot_of(2, 0)));
  EXPECT_TRUE(has_op(f.ops, slot_of(4, 0), EdgeKind::kUnmarked, slot_of(5, 0)));
  // Mirroring: backward edges from the two closest neighbors.
  EXPECT_TRUE(has_op(f.ops, slot_of(3, 0), EdgeKind::kUnmarked, u));
  EXPECT_TRUE(has_op(f.ops, slot_of(4, 0), EdgeKind::kUnmarked, u));
}

TEST(Rule4, MirroringOnlyToClosestNeighbors) {
  Fixture f(make_net({0.5, 0.1, 0.3, 0.9}));
  const Slot u = slot_of(0, 0);
  for (std::uint32_t o = 1; o <= 3; ++o)
    f.net.add_edge(u, EdgeKind::kUnmarked, slot_of(o, 0));
  f.prep();
  Rules::rule4_linearize(f.ctx);
  // 0.1 was forwarded away; it must NOT receive a mirror of ui.
  EXPECT_FALSE(has_op(f.ops, slot_of(1, 0), EdgeKind::kUnmarked, u));
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kUnmarked, u));
}

TEST(Rule4, ReestablishesClosestRealEdges) {
  // The closest left node (0.35, virtual of peer 0.1) is closer than the
  // closest left REAL node (0.1), so linearization forwards the 0.1 edge
  // away; the rule must re-add it afterwards (it is a desired stable edge).
  Fixture f(make_net({0.5, 0.1}));
  const Slot u = slot_of(0, 0);
  const Slot real_left = slot_of(1, 0);   // 0.1
  const Slot virt_left = slot_of(1, 2);   // 0.35
  f.net.set_alive(virt_left, true);
  f.net.add_edge(u, EdgeKind::kUnmarked, real_left);
  f.net.add_edge(u, EdgeKind::kUnmarked, virt_left);
  f.prep();
  Rules::rule3_real_neighbors(f.ctx);  // fills rl_cur = 0.1
  ASSERT_EQ(f.ctx.rl_cur[0], real_left);
  Rules::rule4_linearize(f.ctx);
  EXPECT_TRUE(f.net.has_edge(u, EdgeKind::kUnmarked, real_left));
  EXPECT_TRUE(f.net.has_edge(u, EdgeKind::kUnmarked, virt_left));
}

TEST(Rule4, SingleNeighborUntouched) {
  Fixture f(make_net({0.5, 0.7}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule4_linearize(f.ctx);
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
  // Mirror op to that single neighbor.
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kUnmarked, slot_of(0, 0)));
}

// ------------------------------------------------------------- rule 5

TEST(Rule5, MissingLeftNeighborRequestsRingEdge) {
  Fixture f(make_net({0.1, 0.5}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  // Largest known node (0.5) is asked to create the ring edge to 0.1.
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kRing, slot_of(0, 0)));
}

TEST(Rule5, MissingRightNeighborRequestsRingEdge) {
  Fixture f(make_net({0.9, 0.5}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kRing, slot_of(0, 0)));
}

TEST(Rule5, ForwardHandsMaxCandidateToLargerNode) {
  // ui = 0.2 holds ring edge to w = 0.5 but knows x = 0.8 > w:
  // forward-ring-edge-l2 -> unmarked edge (0.8, 0.5), ring edge deleted.
  Fixture f(make_net({0.2, 0.5, 0.8}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_FALSE(f.net.has_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0)));
}

TEST(Rule5, ForwardTowardMinimumWhenNothingLarger) {
  // ui = 0.2 holds ring edge to w = 0.9 (max candidate); knows 0.05:
  // forward-ring-edge-l1 -> ring edge moves to the smallest known node.
  Fixture f(make_net({0.2, 0.9, 0.05}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kRing, slot_of(1, 0)));
  EXPECT_FALSE(f.net.has_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0)));
}

TEST(Rule5, RingEdgeRestsAtExtremes) {
  // ui = 0.2 is itself the smallest known node; the ring edge to the max
  // candidate 0.9 rests (this is the stable (min -> max) closure edge).
  Fixture f(make_net({0.2, 0.9}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  EXPECT_TRUE(f.net.has_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0)));
}

TEST(Rule5, SymmetricMinCandidateForwarding) {
  // ui = 0.8 holds ring edge to w = 0.4 (min candidate); knows 0.1 < w:
  // forward-ring-edge-r2 -> unmarked (0.1, 0.4).
  Fixture f(make_net({0.8, 0.4, 0.1}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(2, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(2, 0), EdgeKind::kUnmarked, slot_of(1, 0)));
  EXPECT_FALSE(f.net.has_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0)));
}

TEST(Rule5, StableCreationIsIdempotent) {
  // The global min (0.2) missing a left neighbor re-requests the already
  // existing ring edge from the max -- known via its own ring edge.
  Fixture f(make_net({0.2, 0.9}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kRing, slot_of(1, 0));
  f.prep();
  Rules::rule5_ring(f.ctx);
  // create-left fires with v = 0.9 -> op (0.9, Ring, 0.2); that edge is the
  // one the stable state already holds at 0.9, so committing is a no-op.
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kRing, slot_of(0, 0)));
}

// ------------------------------------------------------------- rule 6

TEST(Rule6, ContiguousSiblingsConnectAndResolve) {
  // Siblings alone: each fresh connection edge immediately resolves into the
  // unmarked backward edge (cedges-2), since ui is the max below its target.
  Fixture f(make_net({0.3}));
  f.net.set_alive(slot_of(0, 1), true);  // 0.8
  f.net.set_alive(slot_of(0, 2), true);  // 0.55
  f.prep();
  Rules::rule6_connection(f.ctx);
  EXPECT_TRUE(f.net.edges(slot_of(0, 0), EdgeKind::kConnection).empty());
  EXPECT_TRUE(has_op(f.ops, slot_of(0, 2), EdgeKind::kUnmarked, slot_of(0, 0)));
  EXPECT_TRUE(has_op(f.ops, slot_of(0, 1), EdgeKind::kUnmarked, slot_of(0, 2)));
}

TEST(Rule6, ForwardsThroughExternalNode) {
  // u0 = 0.3, sibling u2 = 0.55; u0 knows 0.45 which lies in the gap:
  // the connection edge (0.3 -> 0.55) moves to (0.45 -> 0.55).
  Fixture f(make_net({0.3, 0.45}));
  f.net.set_alive(slot_of(0, 2), true);  // 0.55
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule6_connection(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kConnection, slot_of(0, 2)));
  EXPECT_TRUE(f.net.edges(slot_of(0, 0), EdgeKind::kConnection).empty());
}

TEST(Rule6, HeldForeignEdgeForwarded) {
  // ui = 0.3 holds a connection edge toward 0.9 (received earlier); knows
  // 0.7: forward to 0.7.
  Fixture f(make_net({0.3, 0.7, 0.9}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kConnection, slot_of(2, 0));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kUnmarked, slot_of(1, 0));
  f.prep();
  Rules::rule6_connection(f.ctx);
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kConnection, slot_of(2, 0)));
}

TEST(Rule6, StuckGarbageEdgeResolvesBackward) {
  // ui = 0.5 holds a connection edge to v = 0.2 with nothing below v known:
  // our cedges-2 extension resolves it into the unmarked backward edge.
  Fixture f(make_net({0.5, 0.2}));
  f.net.add_edge(slot_of(0, 0), EdgeKind::kConnection, slot_of(1, 0));
  f.prep();
  Rules::rule6_connection(f.ctx);
  EXPECT_TRUE(f.net.edges(slot_of(0, 0), EdgeKind::kConnection).empty());
  EXPECT_TRUE(has_op(f.ops, slot_of(1, 0), EdgeKind::kUnmarked, slot_of(0, 0)));
}

// ------------------------------------------- bulk kernel vs per-edge rules

// The per-edge rules 4 and 6 that the one-pass forms replaced: a
// remove_edge per dropped edge and a binary search per held connection
// edge. They are the reference the production rules must match op for op,
// edit for edit.
Slot ref_max_below(const Network& net, const std::vector<Slot>& vec,
                   OrderKey k) {
  const auto it = std::lower_bound(
      vec.begin(), vec.end(), k,
      [&net](Slot a, OrderKey kk) { return net.order_key(a) < kk; });
  return it == vec.begin() ? kInvalidSlot : *std::prev(it);
}

void ref_rule4(RuleCtx& ctx) {
  Network& net = ctx.net;
  for (Slot ui : ctx.siblings) {
    const std::uint32_t idx = index_of(ui);
    const OrderKey ui_key = net.order_key(ui);
    const std::vector<Slot> nu = net.edges(ui, EdgeKind::kUnmarked);
    const auto split = std::lower_bound(
        nu.begin(), nu.end(), ui_key,
        [&net](Slot a, OrderKey kk) { return net.order_key(a) < kk; });
    if (std::distance(nu.begin(), split) >= 2) {
      for (auto it = nu.begin(); std::next(it) != split; ++it) {
        ctx.ops.push_back({*std::next(it), EdgeKind::kUnmarked, *it});
        ctx.remove_edge(ui, EdgeKind::kUnmarked, *it);
        ++ctx.activity.lin_forwards;
      }
    }
    if (std::distance(split, nu.end()) >= 2) {
      for (auto it = split; std::next(it) != nu.end(); ++it) {
        ctx.ops.push_back({*it, EdgeKind::kUnmarked, *std::next(it)});
        ctx.remove_edge(ui, EdgeKind::kUnmarked, *std::next(it));
        ++ctx.activity.lin_forwards;
      }
    }
    for (Slot v : net.edges(ui, EdgeKind::kUnmarked)) {
      ctx.ops.push_back({v, EdgeKind::kUnmarked, ui});
      ++ctx.activity.mirror_backedges;
    }
    if (ctx.rl_cur[idx] != kInvalidSlot)
      ctx.add_edge(ui, EdgeKind::kUnmarked, ctx.rl_cur[idx]);
    if (ctx.rr_cur[idx] != kInvalidSlot)
      ctx.add_edge(ui, EdgeKind::kUnmarked, ctx.rr_cur[idx]);
  }
}

void ref_rule6(RuleCtx& ctx) {
  Network& net = ctx.net;
  for (std::size_t i = 0; i + 1 < ctx.siblings.size(); ++i)
    ctx.activity.cedge_creates += ctx.add_edge(
        ctx.siblings[i], EdgeKind::kConnection, ctx.siblings[i + 1]);
  for (Slot ui : ctx.siblings) {
    const std::vector<Slot> held = net.edges(ui, EdgeKind::kConnection);
    std::vector<Slot> cand = net.edges(ui, EdgeKind::kUnmarked);
    cand.insert(cand.end(), ctx.siblings.begin(), ctx.siblings.end());
    std::sort(cand.begin(), cand.end(),
              [&net](Slot a, Slot b) { return net.before(a, b); });
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    for (Slot v : held) {
      const Slot w = ref_max_below(net, cand, net.order_key(v));
      if (w == kInvalidSlot || w == ui) {
        ctx.ops.push_back({v, EdgeKind::kUnmarked, ui});
        ctx.remove_edge(ui, EdgeKind::kConnection, v);
        ++ctx.activity.cedge_resolves;
      } else {
        ctx.ops.push_back({w, EdgeKind::kConnection, v});
        ctx.remove_edge(ui, EdgeKind::kConnection, v);
        ++ctx.activity.cedge_forwards;
      }
    }
  }
}

// The production rule 6 records an emptied connection set as one kClearSet
// where the reference records a kRemoveEdge per held edge: collapse each
// such run on (slot, kConnection) into the one record, leaving every other
// edit as it is.
std::vector<LocalEdit> collapse_connection_clears(
    const std::vector<LocalEdit>& rec) {
  std::vector<LocalEdit> out;
  for (const LocalEdit& e : rec) {
    const bool removes_connection = e.op == LocalEdit::Op::kRemoveEdge &&
                                    e.kind == EdgeKind::kConnection;
    if (removes_connection && !out.empty() &&
        out.back().op == LocalEdit::Op::kClearSet && out.back().slot == e.slot)
      continue;
    if (removes_connection)
      out.push_back({e.slot, kInvalidSlot, LocalEdit::Op::kClearSet,
                     EdgeKind::kConnection});
    else
      out.push_back(e);
  }
  return out;
}

// Rules::run_all with the reference rules 4 and 6 in place.
void ref_run_all(RuleCtx& ctx) {
  Rules::refresh_siblings(ctx);
  Rules::rule1_virtual_nodes(ctx);
  Rules::rule2_overlap(ctx);
  Rules::refresh_known(ctx);
  Rules::rule3_real_neighbors(ctx);
  ref_rule4(ctx);
  ctx.known_stale = true;
  Rules::rule5_ring(ctx);
  ref_rule6(ctx);
}

// Every live peer runs its phase on two copies of each state along a
// 20-round trajectory: Rules::run_all on one, the reference on the other.
// Each peer's ops, recorded edits (the reference's per-edge connection
// removals collapsed into kClearSet), activity and rl/rr must agree, and so
// must both networks after the pass.
TEST(Rules, BulkRules4And6MatchPerEdgeReference) {
  enum class Start { kRandomConnected, kScrambled, kFixpoint };
  for (const Start start :
       {Start::kRandomConnected, Start::kScrambled, Start::kFixpoint})
    for (const std::size_t n : {16, 64, 300})
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Rng rng(seed);
        Network net = start == Start::kFixpoint
                          ? core::stable_network(n, seed)
                          : gen::make_network(gen::Topology::kRandomConnected,
                                              n, rng);
        if (start == Start::kScrambled) gen::scramble_state(net, rng);
        Engine engine(std::move(net), {.threads = 1});
        for (int round = 0; round < 20; ++round) {
          Network bulk = engine.network(), ref = engine.network();
          std::vector<DelayedOp> ops_bulk, ops_ref;
          std::vector<LocalEdit> rec_bulk, rec_ref;
          RuleArena arena_bulk, arena_ref;
          const auto where = [&](std::uint32_t o) {
            return "start " + std::to_string(static_cast<int>(start)) +
                   " n " + std::to_string(n) + " seed " +
                   std::to_string(seed) + " round " + std::to_string(round) +
                   " owner " + std::to_string(o);
          };
          for (const std::uint32_t o : engine.network().live_owners()) {
            ops_bulk.clear();
            ops_ref.clear();
            rec_bulk.clear();
            rec_ref.clear();
            RuleCtx cb(bulk, o, ops_bulk, arena_bulk);
            RuleCtx cr(ref, o, ops_ref, arena_ref);
            cb.record = &rec_bulk;
            cr.record = &rec_ref;
            Rules::run_all(cb);
            ref_run_all(cr);
            ASSERT_TRUE(ops_bulk == ops_ref) << where(o);
            ASSERT_TRUE(rec_bulk == collapse_connection_clears(rec_ref))
                << where(o);
            ASSERT_TRUE(cb.activity == cr.activity) << where(o);
            ASSERT_TRUE(cb.rl_cur == cr.rl_cur && cb.rr_cur == cr.rr_cur)
                << where(o);
          }
          ASSERT_EQ(bulk.state_fingerprint(), ref.state_fingerprint())
              << where(0);
          for (int k = 0; k < kEdgeKinds; ++k)
            ASSERT_EQ(bulk.edge_count(static_cast<EdgeKind>(k)),
                      ref.edge_count(static_cast<EdgeKind>(k)));
          engine.step();
        }
      }
}

}  // namespace
}  // namespace rechord::core
