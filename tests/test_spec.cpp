#include "core/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord::core {
namespace {

using testing::make_net;

std::vector<Slot> vec(std::span<const Slot> s) { return {s.begin(), s.end()}; }

TEST(Spec, EmptyNetwork) {
  std::vector<RingPos> no_ids;
  const Network net{std::span<const RingPos>(no_ids)};
  const auto spec = StableSpec::compute(net);
  EXPECT_TRUE(spec.nodes_in_order().empty());
  EXPECT_TRUE(spec.almost_stable(net));
}

TEST(Spec, SinglePeerHasOneVirtual) {
  const auto net = make_net({0.25});
  const auto spec = StableSpec::compute(net);
  EXPECT_EQ(spec.m_of(0), 1);
  ASSERT_EQ(spec.nodes_in_order().size(), 2U);
  // Nodes: u0 = 0.25, u1 = 0.75; each is the other's closest neighbor.
  const Slot u0 = slot_of(0, 0), u1 = slot_of(0, 1);
  EXPECT_EQ(vec(spec.eu(u0)), std::vector<Slot>{u1});
  EXPECT_EQ(vec(spec.eu(u1)), std::vector<Slot>{u0});
  // rl/rr: u1's closest left real is u0; u0 has no real on either side.
  EXPECT_EQ(spec.rl(u1), u0);
  EXPECT_EQ(spec.rl(u0), kInvalidSlot);
  EXPECT_EQ(spec.rr(u0), kInvalidSlot);
  // Ring closure between the two extremes.
  EXPECT_EQ(vec(spec.er(u0)), std::vector<Slot>{u1});
  EXPECT_EQ(vec(spec.er(u1)), std::vector<Slot>{u0});
}

TEST(Spec, MValuesFollowGaps) {
  // 0.125 -> 0.375: gap 0.25 -> m = 2 (dyadic, exact); reverse gap 0.75 ->
  // m = 1. v2 of owner 0 lands exactly on the real node 0.375: the total
  // order puts the virtual first.
  const auto net = make_net({0.125, 0.375});
  const auto spec = StableSpec::compute(net);
  EXPECT_EQ(spec.m_of(0), 2);
  EXPECT_EQ(spec.m_of(1), 1);
  const auto& nodes = spec.nodes_in_order();
  ASSERT_EQ(nodes.size(), 5U);
  EXPECT_EQ(nodes[0], slot_of(0, 0));  // 0.125
  EXPECT_EQ(nodes[1], slot_of(0, 2));  // 0.375 virtual (ties before real)
  EXPECT_EQ(nodes[2], slot_of(1, 0));  // 0.375 real
  EXPECT_EQ(nodes[3], slot_of(0, 1));  // 0.625
  EXPECT_EQ(nodes[4], slot_of(1, 1));  // 0.875
}

TEST(Spec, FourEdgesMaxPerNode) {
  util::Rng rng(5);
  const auto ids = gen::random_ids(rng, 20);
  const Network net{std::span<const RingPos>(ids)};
  const auto spec = StableSpec::compute(net);
  for (Slot s : spec.nodes_in_order()) {
    EXPECT_LE(spec.eu(s).size(), 4U);
    EXPECT_GE(spec.eu(s).size(), 1U);
  }
}

TEST(Spec, RingEdgesConnectExtremes) {
  util::Rng rng(6);
  const auto ids = gen::random_ids(rng, 12);
  const Network net{std::span<const RingPos>(ids)};
  const auto spec = StableSpec::compute(net);
  const Slot lo = spec.min_node(), hi = spec.max_node();
  EXPECT_EQ(vec(spec.er(lo)), std::vector<Slot>{hi});
  EXPECT_EQ(vec(spec.er(hi)), std::vector<Slot>{lo});
  EXPECT_EQ(spec.spec_edge_count(EdgeKind::kRing), 2U);
  for (Slot s : spec.nodes_in_order()) {
    if (s != lo && s != hi) {
      EXPECT_TRUE(spec.er(s).empty());
    }
  }
}

TEST(Spec, AlmostStableDetectsMissingEdge) {
  util::Rng rng(7);
  auto net = gen::make_network(gen::Topology::kRandomConnected, 10, rng);
  Engine engine(std::move(net), {});
  const auto spec = StableSpec::compute(engine.network());
  EXPECT_FALSE(spec.almost_stable(engine.network()));  // fresh state
  const auto result = run_to_stable(engine, spec, {});
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(spec.almost_stable(engine.network()));
  // Remove one desired edge: almost-stability must break.
  const Slot s = spec.nodes_in_order().front();
  ASSERT_FALSE(spec.eu(s).empty());
  engine.network().remove_edge(s, EdgeKind::kUnmarked, spec.eu(s).front());
  EXPECT_FALSE(spec.almost_stable(engine.network()));
}

TEST(Spec, AlmostStableAllowsExtraEdges) {
  util::Rng rng(8);
  auto net = gen::make_network(gen::Topology::kRandomConnected, 10, rng);
  Engine engine(std::move(net), {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  // Add a random extra edge: still almost stable, no longer exact.
  const Slot a = spec.nodes_in_order().front();
  const Slot b = spec.nodes_in_order()[spec.nodes_in_order().size() / 2];
  engine.network().add_edge(a, EdgeKind::kUnmarked, b);
  EXPECT_TRUE(spec.almost_stable(engine.network()) ||
              vec(spec.eu(a)) ==
                  engine.network().edges(a, EdgeKind::kUnmarked));
  std::string why;
  EXPECT_FALSE(spec.exact_match(engine.network(), &why));
  EXPECT_FALSE(why.empty());
}

TEST(Spec, ExactMatchDiagnosesMissingSlot) {
  util::Rng rng(9);
  auto net = gen::make_network(gen::Topology::kRandomConnected, 8, rng);
  Engine engine(std::move(net), {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  ASSERT_TRUE(spec.exact_match(engine.network()));
  engine.network().set_alive(spec.nodes_in_order().back(), false);
  engine.network().normalize();
  std::string why;
  EXPECT_FALSE(spec.exact_match(engine.network(), &why));
  EXPECT_NE(why.find("missing live slot"), std::string::npos);
}

TEST(Spec, SpecEdgeCountsScale) {
  util::Rng rng(10);
  const auto ids = gen::random_ids(rng, 50);
  const Network net{std::span<const RingPos>(ids)};
  const auto spec = StableSpec::compute(net);
  const std::size_t nodes = spec.nodes_in_order().size();
  // ~4 unmarked edges per node minus boundary effects.
  EXPECT_GT(spec.spec_edge_count(EdgeKind::kUnmarked), 3 * nodes);
  EXPECT_LE(spec.spec_edge_count(EdgeKind::kUnmarked), 4 * nodes);
  // Connection chains exist (there are always nodes between sibling pairs
  // at this size).
  EXPECT_GT(spec.spec_edge_count(EdgeKind::kConnection), 0U);
}

TEST(Spec, ConnectionChainsTargetSiblings) {
  util::Rng rng(11);
  const auto ids = gen::random_ids(rng, 16);
  const Network net{std::span<const RingPos>(ids)};
  const auto spec = StableSpec::compute(net);
  // Every spec connection edge (x -> b) targets a node strictly above x.
  for (Slot x : spec.nodes_in_order())
    for (Slot b : spec.ec(x)) EXPECT_TRUE(net.before(x, b));
}


// -- naive reference ---------------------------------------------------------
//
// The closed-form spec exactly as first written: O(n^2) successor scan for m,
// 128-bit order_key compares everywhere, a full scan of euSpec(x) and of
// x's siblings per chain step, one sorted vector per slot. compute() must
// agree with it field by field.

struct NaiveSpec {
  std::vector<Slot> nodes;
  std::vector<int> m;
  std::vector<std::vector<Slot>> eu, er, ec;
  std::vector<Slot> rl, rr;
};

void sort_by_order(const Network& net, std::vector<Slot>& v) {
  std::sort(v.begin(), v.end(), [&net](Slot a, Slot b) {
    return net.order_key(a) < net.order_key(b);
  });
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

NaiveSpec naive_spec(const Network& net) {
  NaiveSpec spec;
  const std::vector<std::uint32_t> owners = net.live_owners();
  spec.m.assign(net.owner_count(), 0);
  spec.eu.resize(net.slot_count());
  spec.er.resize(net.slot_count());
  spec.ec.resize(net.slot_count());
  spec.rl.assign(net.slot_count(), kInvalidSlot);
  spec.rr.assign(net.slot_count(), kInvalidSlot);
  if (owners.empty()) return spec;

  for (auto o : owners) {
    RingPos best = 0;
    bool found = false;
    for (auto p : owners) {
      const RingPos gap = ident::cw_dist(net.owner_pos(o), net.owner_pos(p));
      if (gap == 0) continue;
      if (!found || gap < best) {
        best = gap;
        found = true;
      }
    }
    spec.m[o] = found ? ident::exponent_for_gap(best) : 1;
  }
  for (auto o : owners)
    for (int i = 0; i <= spec.m[o]; ++i)
      spec.nodes.push_back(slot_of(o, static_cast<std::uint32_t>(i)));
  sort_by_order(net, spec.nodes);
  const auto& nodes = spec.nodes;
  const std::size_t n = nodes.size();

  std::vector<Slot> lrb(n, kInvalidSlot), fra(n, kInvalidSlot);
  Slot run = kInvalidSlot;
  for (std::size_t i = 0; i < n; ++i) {
    lrb[i] = run;
    if (is_real_slot(nodes[i])) run = nodes[i];
  }
  run = kInvalidSlot;
  for (std::size_t i = n; i-- > 0;) {
    fra[i] = run;
    if (is_real_slot(nodes[i])) run = nodes[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Slot s = nodes[i];
    auto& eu = spec.eu[s];
    if (i > 0) eu.push_back(nodes[i - 1]);
    if (i + 1 < n) eu.push_back(nodes[i + 1]);
    if (lrb[i] != kInvalidSlot) eu.push_back(lrb[i]);
    if (fra[i] != kInvalidSlot) eu.push_back(fra[i]);
    spec.rl[s] = lrb[i];
    spec.rr[s] = fra[i];
    sort_by_order(net, eu);
  }
  if (n >= 2) {
    spec.er[nodes.back()].push_back(nodes.front());
    spec.er[nodes.front()].push_back(nodes.back());
  }

  for (auto o : owners) {
    std::vector<Slot> sib;
    for (int i = 0; i <= spec.m[o]; ++i)
      sib.push_back(slot_of(o, static_cast<std::uint32_t>(i)));
    sort_by_order(net, sib);
    for (std::size_t p = 0; p + 1 < sib.size(); ++p) {
      const Slot b = sib[p + 1];
      Slot x = sib[p];
      for (;;) {
        Slot w = kInvalidSlot;
        auto consider = [&](Slot y) {
          if (!net.before(y, b)) return;
          if (w == kInvalidSlot || net.before(w, y)) w = y;
        };
        for (Slot y : spec.eu[x]) consider(y);
        const std::uint32_t xo = owner_of(x);
        for (int i = 0; i <= spec.m[xo]; ++i)
          consider(slot_of(xo, static_cast<std::uint32_t>(i)));
        if (w == kInvalidSlot || w == x) break;
        spec.ec[w].push_back(b);
        x = w;
      }
    }
  }
  for (Slot s : nodes) sort_by_order(net, spec.ec[s]);
  return spec;
}

/// Compares every accessor of compute() with the naive reference.
void expect_matches_naive(const Network& net, const std::string& label) {
  SCOPED_TRACE(label);
  const auto spec = StableSpec::compute(net);
  const NaiveSpec ref = naive_spec(net);
  ASSERT_EQ(spec.nodes_in_order(), ref.nodes);
  for (std::uint32_t o = 0; o < net.owner_count(); ++o)
    ASSERT_EQ(spec.m_of(o), ref.m[o]) << "owner " << o;
  std::size_t counts[kEdgeKinds] = {};
  for (Slot s = 0; s < net.slot_count(); ++s) {
    // Plain compares first: gtest's per-assertion cost dominates otherwise.
    if (!std::ranges::equal(spec.eu(s), ref.eu[s]) ||
        !std::ranges::equal(spec.er(s), ref.er[s]) ||
        !std::ranges::equal(spec.ec(s), ref.ec[s]) ||
        spec.rl(s) != ref.rl[s] || spec.rr(s) != ref.rr[s]) {
      EXPECT_EQ(vec(spec.eu(s)), ref.eu[s]);
      EXPECT_EQ(vec(spec.er(s)), ref.er[s]);
      EXPECT_EQ(vec(spec.ec(s)), ref.ec[s]);
      EXPECT_EQ(spec.rl(s), ref.rl[s]);
      EXPECT_EQ(spec.rr(s), ref.rr[s]);
      FAIL() << "first mismatch at " << net.describe(s);
    }
    counts[0] += ref.eu[s].size();
    counts[1] += ref.er[s].size();
    counts[2] += ref.ec[s].size();
  }
  const bool empty = ref.nodes.empty();
  EXPECT_EQ(spec.min_node(), empty ? kInvalidSlot : ref.nodes.front());
  EXPECT_EQ(spec.max_node(), empty ? kInvalidSlot : ref.nodes.back());
  EXPECT_EQ(spec.spec_edge_count(EdgeKind::kUnmarked), counts[0]);
  EXPECT_EQ(spec.spec_edge_count(EdgeKind::kRing), counts[1]);
  EXPECT_EQ(spec.spec_edge_count(EdgeKind::kConnection), counts[2]);
}

TEST(Spec, MatchesNaiveReference) {
  for (std::size_t n : {0, 1, 2, 3, 5, 17, 100, 300, 2000}) {
    for (std::uint64_t seed = 1; seed <= (n <= 300 ? 4U : 2U); ++seed) {
      const std::string tag = "n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed);
      util::Rng rng(seed * 1000 + n);
      const auto ids = gen::random_ids(rng, n);
      Network net{std::span<const RingPos>(ids)};
      expect_matches_naive(net, "random " + tag);
      // A third of the owners dead.
      for (std::uint32_t o = 0; o < net.owner_count(); o += 3)
        net.set_alive(slot_of(o, 0), false);
      expect_matches_naive(net, "dead thirds " + tag);
      // Owners joining after construction, some at dead owners' ids.
      for (std::size_t j = 0; j < n / 4 + 1; ++j)
        net.add_owner(j % 2 == 0 && 3 * j < n ? ids[3 * j] : rng.next());
      expect_matches_naive(net, "joined " + tag);

      // Dyadic ids on a 1/64 grid: virtual nodes land on real positions.
      if (n <= 64) {
        std::vector<RingPos> grid(64);
        for (std::uint64_t j = 0; j < 64; ++j) grid[j] = j << 58;
        rng.shuffle(grid);
        grid.resize(n);
        expect_matches_naive(Network{std::span<const RingPos>(grid)},
                             "dyadic " + tag);
      }
      // Clustered ids: tiny gaps, large m.
      if (n <= 100) {
        std::vector<RingPos> clustered = ids;
        for (auto& id : clustered) id >>= 20;
        expect_matches_naive(Network{std::span<const RingPos>(clustered)},
                             "clustered " + tag);
      }
    }
  }
}

}  // namespace
}  // namespace rechord::core
