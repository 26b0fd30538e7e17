// Chord-baseline tests: ideal graph construction against brute force, greedy
// lookup length bounds, Fact 2.1 coverage on stabilized networks, and the
// classic stabilize/notify protocol (which maintains rings but is not
// self-stabilizing -- the paper's motivation).

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/ideal_chord.hpp"
#include "baselines/projection.hpp"
#include "baselines/routing.hpp"
#include "baselines/stabilizer.hpp"
#include "core/convergence.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord::chord {
namespace {

using core::RingPos;

std::vector<RingPos> ids_from(std::initializer_list<double> xs) {
  std::vector<RingPos> out;
  for (double x : xs) out.push_back(ident::pos_from_double(x));
  return out;
}

TEST(IdealChord, SuccessorsAndPredecessorsOnRing) {
  const auto ids = ids_from({0.1, 0.4, 0.7});
  const auto g = ChordGraph::compute(ids);
  EXPECT_EQ(g.succ[0], 1U);
  EXPECT_EQ(g.succ[1], 2U);
  EXPECT_EQ(g.succ[2], 0U);  // wraps
  EXPECT_EQ(g.pred[0], 2U);
  EXPECT_EQ(g.pred[1], 0U);
}

TEST(IdealChord, SinglePeerDegenerate) {
  const auto g = ChordGraph::compute(ids_from({0.5}));
  EXPECT_EQ(g.succ[0], 0U);
  EXPECT_EQ(g.m[0], 1);
  EXPECT_TRUE(g.fingers.empty());  // self-fingers omitted
}

TEST(IdealChord, MMatchesChordInequality) {
  // 0.1 -> succ 0.4: 2^-2 <= 0.3 < 2^-1 -> m = 2.
  const auto g = ChordGraph::compute(ids_from({0.1, 0.4}));
  EXPECT_EQ(g.m[0], 2);
  EXPECT_EQ(g.m[1], 1);  // gap 0.7
}

TEST(IdealChord, FingersMatchBruteForce) {
  util::Rng rng(21);
  const auto ids = gen::random_ids(rng, 40);
  const auto g = ChordGraph::compute(ids);
  for (const Finger& f : g.fingers) {
    const RingPos target = ident::virtual_pos(ids[f.from], f.i);
    // Brute force: node minimizing clockwise distance from target.
    std::uint32_t best = 0;
    RingPos best_d = ident::cw_dist(target, ids[0]);
    for (std::uint32_t v = 1; v < ids.size(); ++v) {
      const RingPos d = ident::cw_dist(target, ids[v]);
      if (d < best_d) {
        best = v;
        best_d = d;
      }
    }
    EXPECT_EQ(f.to, best) << "finger " << f.i << " of vertex " << f.from;
    // wrapped flag consistent: wrapped iff no id >= target linearly.
    bool any_at_or_above = false;
    for (RingPos p : ids) any_at_or_above |= p >= target;
    EXPECT_EQ(f.wrapped, !any_at_or_above);
  }
}

TEST(IdealChord, FingerCountLogarithmic) {
  util::Rng rng(22);
  const auto ids = gen::random_ids(rng, 64);
  const auto g = ChordGraph::compute(ids);
  // Average m should be near log2(n) + gamma/ln 2 ~ 6.8; assert a loose band.
  double total_m = 0;
  for (int m : g.m) total_m += m;
  const double avg = total_m / 64.0;
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 10.0);
}

TEST(Routing, ResponsibleVertexWraps) {
  const auto ids = ids_from({0.2, 0.6});
  EXPECT_EQ(responsible_vertex(ids, ident::pos_from_double(0.1)), 0U);
  EXPECT_EQ(responsible_vertex(ids, ident::pos_from_double(0.3)), 1U);
  EXPECT_EQ(responsible_vertex(ids, ident::pos_from_double(0.9)), 0U);
}

TEST(Routing, LookupOnIdealChordIsLogarithmic) {
  util::Rng rng(23);
  const auto ids = gen::random_ids(rng, 128);
  const auto g = ChordGraph::compute(ids);
  graph::Digraph overlay(ids.size());
  for (std::uint32_t v = 0; v < ids.size(); ++v)
    if (g.succ[v] != v) overlay.add_edge(v, g.succ[v]);
  for (const Finger& f : g.fingers)
    if (!overlay.has_edge(f.from, f.to)) overlay.add_edge(f.from, f.to);
  util::Rng keys(24);
  std::size_t worst = 0;
  for (int probe = 0; probe < 100; ++probe) {
    const auto from = static_cast<std::uint32_t>(keys.below(ids.size()));
    const auto res = greedy_lookup(overlay, ids, from, keys.next());
    ASSERT_TRUE(res.success);
    worst = std::max(worst, res.hops);
  }
  // O(log n) w.h.p.; 4*log2(128) = 28 is a loose cap.
  EXPECT_LE(worst, 4 * 7U);
}

TEST(Routing, FailsGracefullyWhenStuck) {
  // Two nodes, no edges: lookup that must leave the source fails.
  const auto ids = ids_from({0.2, 0.6});
  graph::Digraph g(2);
  const auto res = greedy_lookup(g, ids, 0, ident::pos_from_double(0.5));
  EXPECT_FALSE(res.success);
}

TEST(Fact21, HoldsOnStabilizedNetworks) {
  for (std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    util::Rng rng(seed);
    core::Engine engine(
        gen::make_network(gen::Topology::kRandomConnected, 30, rng), {});
    const auto spec = core::StableSpec::compute(engine.network());
    ASSERT_TRUE(core::run_to_stable(engine, spec, {}).stabilized);
    const auto projection = core::RealProjection::compute(engine.network());
    const auto ideal = ChordGraph::compute(engine.network());
    const auto cov = check_chord_subgraph(ideal, projection);
    EXPECT_TRUE(cov.core_subgraph_holds());
    EXPECT_EQ(cov.succ_total + cov.pred_total, 2 * 30U - 2U)
        << "exactly one succ and one pred edge per peer crosses the seam";
  }
}

TEST(Stabilizer, KeepsCorrectRingCorrect) {
  util::Rng rng(41);
  const auto ids = gen::random_ids(rng, 24);
  const auto ideal = ChordGraph::compute(ids);
  graph::Digraph ring(ids.size());
  for (std::uint32_t v = 0; v < ids.size(); ++v)
    ring.add_edge(v, ideal.succ[v]);
  ChordStabilizer st(ids, ring);
  EXPECT_TRUE(st.ring_correct());
  for (int r = 0; r < 10; ++r) st.step();
  EXPECT_TRUE(st.ring_correct());
}

TEST(Stabilizer, RepairsMildPerturbation) {
  // Successors point two hops ahead: stabilize/notify pulls them back.
  util::Rng rng(42);
  const auto ids = gen::random_ids(rng, 24);
  const auto ideal = ChordGraph::compute(ids);
  graph::Digraph skip(ids.size());
  for (std::uint32_t v = 0; v < ids.size(); ++v)
    skip.add_edge(v, ideal.succ[ideal.succ[v]]);
  // Give each node knowledge of its true successor too, as a second edge --
  // classic Chord can repair when the information exists somewhere.
  for (std::uint32_t v = 0; v < ids.size(); ++v)
    skip.add_edge(v, ideal.succ[v]);
  ChordStabilizer st(ids, skip);
  EXPECT_LE(st.run(200), 200U);
  EXPECT_TRUE(st.ring_correct());
}

TEST(Stabilizer, CannotMergeArbitraryWeaklyConnectedStates) {
  // The motivating failure: from random weakly connected digraphs the
  // classic protocol frequently NEVER forms the ring, while Re-Chord always
  // does (ProtocolProperty sweep). We assert at least one failure among the
  // seeds -- deterministically reproducible.
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const auto ids = gen::random_ids(rng, 24);
    const auto g =
        gen::make_topology(gen::Topology::kRandomConnected, 24, rng);
    ChordStabilizer st(ids, g);
    if (st.run(2000) >= 2000) ++failures;
  }
  EXPECT_GT(failures, 0) << "classic Chord unexpectedly self-stabilized from "
                            "every random weakly connected state";
}

TEST(Stabilizer, FullCorrectnessIncludesFingers) {
  util::Rng rng(43);
  const auto ids = gen::random_ids(rng, 16);
  const auto ideal = ChordGraph::compute(ids);
  graph::Digraph ring(ids.size());
  for (std::uint32_t v = 0; v < ids.size(); ++v)
    ring.add_edge(v, ideal.succ[v]);
  ChordStabilizer st(ids, ring);
  EXPECT_FALSE(st.fully_correct());  // fingers not yet built
  for (int r = 0; r < 80; ++r) st.step();  // fix_fingers round-robin
  EXPECT_TRUE(st.fully_correct());
}

}  // namespace
}  // namespace rechord::chord
