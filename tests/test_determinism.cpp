// Property-style determinism tests of the round engine: the sharded rule
// phase must be bit-identical to the serial one on randomized initial
// graphs, and the incremental per-slot change tracking must agree exactly
// with the full serialize_state() comparison it replaced.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/churn.hpp"
#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "test_util.hpp"

namespace rechord::core {
namespace {

Network random_net(std::size_t n, std::uint64_t seed, bool scrambled) {
  util::Rng rng(seed);
  Network net = gen::make_network(gen::Topology::kRandomConnected, n, rng);
  if (scrambled) gen::scramble_state(net, rng);
  return net;
}

TEST(Determinism, SerialVsEightThreadsBitIdenticalPerRound) {
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    for (bool scrambled : {false, true}) {
      Engine serial(random_net(100, seed, scrambled), {.threads = 1});
      Engine threaded(random_net(100, seed, scrambled), {.threads = 8});
      for (int r = 0; r < 120; ++r) {
        const auto a = serial.step();
        const auto b = threaded.step();
        ASSERT_EQ(a.changed, b.changed)
            << "seed=" << seed << " scrambled=" << scrambled << " round=" << r;
        ASSERT_EQ(serial.network().state_fingerprint(),
                  threaded.network().state_fingerprint())
            << "seed=" << seed << " scrambled=" << scrambled << " round=" << r;
        if (!a.changed && !b.changed) break;
      }
    }
  }
}

TEST(Determinism, ThreadedRunReachesTheExactSpecFixpoint) {
  Engine engine(random_net(100, 31, /*scrambled=*/true), {.threads = 8});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  const auto result = run_to_stable(engine, spec, opt);
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

// The incremental tracker's `changed` must equal a test-side diff of
// serialize_state() against the state at the end of the previous round, on
// every round, including the rounds past the fixpoint (the designed
// equivalence is modulo a 2^-64 per-slot digest collision, which no finite
// test can hit by accident). 5 random graphs x 20 rounds >= 100 rounds, plus
// one longer run across the fixpoint with out-of-band crash+join churn
// applied without reset_change_tracking: the diff attributes the churn
// delta to the following round, and so must the tracker.
TEST(Determinism, IncrementalTrackingAgreesWithSerializeOn100RandomRounds) {
  std::size_t rounds_checked = 0, fixpoint_rounds = 0;
  const auto check = [&](Engine& engine, int rounds,
                         std::initializer_list<int> churn_at,
                         std::uint64_t seed) {
    util::Rng churn_rng(99);
    auto before = engine.network().serialize_state();
    for (int r = 0; r < rounds; ++r) {
      if (std::find(churn_at.begin(), churn_at.end(), r) != churn_at.end()) {
        const auto owners = engine.network().live_owners();
        crash(engine.network(), owners[owners.size() / 2]);
        join(engine.network(), churn_rng.next(),
             engine.network().live_owners()[0]);
      }
      const auto mt = engine.step();
      auto after = engine.network().serialize_state();
      ASSERT_EQ(mt.changed, after != before)
          << "seed=" << seed << " round=" << r;
      before = std::move(after);
      ++rounds_checked;
      if (!mt.changed) ++fixpoint_rounds;
    }
  };
  for (std::uint64_t seed = 41; seed <= 45; ++seed) {
    Engine engine(random_net(24, seed, /*scrambled=*/true), {});
    check(engine, 20, {}, seed);
  }
  EXPECT_GE(rounds_checked, 100U);
  fixpoint_rounds = 0;
  Engine churned(random_net(30, 51, /*scrambled=*/false), {});
  check(churned, 80, {30, 55}, 51);
  EXPECT_GT(fixpoint_rounds, 0U) << "the churned run never hit the fixpoint";
}

}  // namespace
}  // namespace rechord::core
