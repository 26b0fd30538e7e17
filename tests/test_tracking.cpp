// Change-tracking and fault-injection reproducibility: a fixed fault_seed
// yields bit-identical runs (drop counters and metrics included), churn
// followed by reset_change_tracking() never produces a spurious fixpoint,
// and the batched bulk edge insertion matches per-edge insertion exactly.

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

Network fresh(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  return gen::make_network(gen::Topology::kRandomConnected, n, rng);
}

void expect_same_metrics(const RoundMetrics& a, const RoundMetrics& b,
                         int round) {
  ASSERT_EQ(a.round, b.round) << "round " << round;
  ASSERT_EQ(a.real_nodes, b.real_nodes) << "round " << round;
  ASSERT_EQ(a.virtual_nodes, b.virtual_nodes) << "round " << round;
  ASSERT_EQ(a.unmarked_edges, b.unmarked_edges) << "round " << round;
  ASSERT_EQ(a.ring_edges, b.ring_edges) << "round " << round;
  ASSERT_EQ(a.connection_edges, b.connection_edges) << "round " << round;
  ASSERT_EQ(a.inflight_messages, b.inflight_messages) << "round " << round;
  ASSERT_EQ(a.changed, b.changed) << "round " << round;
}

// Two datacenters by owner parity, fixed cross-dc delay of `delay` rounds.
void install_latency(Engine& e, std::uint8_t delay) {
  std::vector<std::uint8_t> dc(e.network().owner_count());
  for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
  e.assign_datacenters(std::move(dc));
  e.set_latency_model(
      LatencyModel::uniform(2, DelayClass{delay, 0}, /*jitter_seed=*/5));
}

TEST(FaultRepro, FixedSeedReproducesDropsAndMetrics) {
  const EngineOptions opt{.threads = 1,
                          .sleep_probability = 0.3,
                          .message_loss = 0.2,
                          .fault_seed = 0xFEEDF00DULL};
  Engine a(fresh(18, 61), opt);
  Engine b(fresh(18, 61), opt);
  for (int r = 0; r < 40; ++r) {
    const auto ma = a.step();
    const auto mb = b.step();
    expect_same_metrics(ma, mb, r);
    ASSERT_EQ(a.messages_dropped(), b.messages_dropped()) << "round " << r;
    ASSERT_EQ(a.network().state_fingerprint(), b.network().state_fingerprint())
        << "round " << r;
  }
  EXPECT_GT(a.messages_dropped(), 0U);
}

TEST(FaultRepro, SerialAndThreadedAgreeUnderFaults) {
  // The fault schedule keys on (seed, round, owner/op-index), none of which
  // depend on the sharding, so faulty runs are thread-count invariant too.
  const EngineOptions serial_opt{.threads = 1,
                                 .sleep_probability = 0.25,
                                 .message_loss = 0.1,
                                 .fault_seed = 42};
  EngineOptions threaded_opt = serial_opt;
  threaded_opt.threads = 8;
  Engine a(fresh(80, 62), serial_opt);
  Engine b(fresh(80, 62), threaded_opt);
  for (int r = 0; r < 30; ++r) {
    a.step();
    b.step();
    ASSERT_EQ(a.messages_dropped(), b.messages_dropped()) << "round " << r;
    ASSERT_EQ(a.network().state_fingerprint(), b.network().state_fingerprint())
        << "round " << r;
  }
}

// -- fault x latency interactions (DESIGN.md §8) -----------------------------

// A fixed fault seed reproduces lossy runs bit for bit with a latency model
// installed: the loss coin is drawn at DELIVERY time against the delivery
// round's op sequence, which is itself deterministic.
TEST(FaultRepro, LatencyPlusLossFixedSeedReproduces) {
  const EngineOptions opt{.threads = 1,
                          .message_loss = 0.2,
                          .fault_seed = 0xFEEDFA11ULL};
  Engine a(fresh(20, 68), opt);
  Engine b(fresh(20, 68), opt);
  install_latency(a, 2);
  install_latency(b, 2);
  std::uint64_t inflight_seen = 0;
  for (int r = 0; r < 40; ++r) {
    const auto ma = a.step();
    const auto mb = b.step();
    expect_same_metrics(ma, mb, r);
    inflight_seen += a.inflight_message_count();
    ASSERT_EQ(a.inflight_message_count(), b.inflight_message_count())
        << "round " << r;
    ASSERT_EQ(a.messages_dropped(), b.messages_dropped()) << "round " << r;
    ASSERT_EQ(a.network().state_fingerprint(), b.network().state_fingerprint())
        << "round " << r;
  }
  EXPECT_GT(a.messages_dropped(), 0U);
  EXPECT_GT(inflight_seen, 0U);  // the queue must actually have been used
}

// Message loss applies at delivery, not issue: messages sent BEFORE the loss
// window opens are still subject to the coin when they come due inside it.
// With p = 1 every delivery drops, so the drop counter must move on the very
// first windowed round even though nothing was issued during the window.
TEST(FaultRepro, MessageLossAppliesAtDeliveryTime) {
  Engine e(fresh(24, 69), {});
  install_latency(e, 3);
  for (int r = 0; r < 8; ++r) e.step();  // fill the cross-dc pipeline
  ASSERT_GT(e.inflight_message_count(), 0U);
  const std::uint64_t before = e.messages_dropped();
  e.set_message_loss(1.0);
  e.step();
  EXPECT_GT(e.messages_dropped(), before);
}

// Partition cuts apply at delivery too: messages in flight across the cut
// when the partition begins are dropped when they come due, counted in
// partition_dropped() -- and the whole interaction is mode-independent and
// reproducible under a fixed seed.
TEST(FaultRepro, PartitionDropsInFlightMessagesAtDeliveryTime) {
  auto run_once = [](bool full_scan) {
    Engine e(fresh(30, 70), {.full_scan = full_scan});
    install_latency(e, 3);
    for (int r = 0; r < 8; ++r) e.step();  // cross-dc traffic in flight
    EXPECT_GT(e.inflight_message_count(), 0U);
    EXPECT_EQ(e.partition_dropped(), 0U);
    // Cut exactly along the datacenter boundary: every in-flight message is
    // cross-dc (intra-dc delay is 0), so every due delivery in the first
    // windowed round was issued BEFORE the partition began.
    std::vector<std::uint8_t> group(e.network().owner_count(), 0);
    for (std::uint32_t o = 0; o < group.size(); ++o) group[o] = o % 2;
    e.set_partition(std::move(group));
    e.step();
    EXPECT_GT(e.partition_dropped(), 0U)
        << "in-flight cross-cut messages not dropped at delivery";
    for (int r = 0; r < 4; ++r) e.step();
    struct Result {
      std::uint64_t partition_dropped, fingerprint;
      std::size_t inflight;
    };
    return Result{e.partition_dropped(), e.network().state_fingerprint(),
                  e.inflight_message_count()};
  };
  const auto active = run_once(false);
  const auto active2 = run_once(false);
  const auto full = run_once(true);
  EXPECT_EQ(active.partition_dropped, active2.partition_dropped);
  EXPECT_EQ(active.fingerprint, active2.fingerprint);
  EXPECT_EQ(active.partition_dropped, full.partition_dropped);
  EXPECT_EQ(active.fingerprint, full.fingerprint);
  EXPECT_EQ(active.inflight, full.inflight);
}

TEST(Tracking, ResetAfterChurnPreventsSpuriousFixpoint) {
  Engine engine(fresh(14, 63), {});
  const auto spec0 = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec0, {}).stabilized);

  // Crash a peer and join a new one out-of-band; the engine must not report
  // an unchanged round while the network repairs toward the new spec.
  const auto owners = engine.network().live_owners();
  crash(engine.network(), owners[owners.size() / 2]);
  util::Rng rng(7);
  join(engine.network(), rng.next(), engine.network().live_owners()[0]);
  engine.reset_change_tracking();

  const auto spec1 = StableSpec::compute(engine.network());
  ASSERT_FALSE(spec1.exact_match(engine.network()));
  const auto first = engine.step();
  EXPECT_TRUE(first.changed) << "repair round reported as fixpoint";
  const auto result = run_to_stable(engine, spec1, {});
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

TEST(Tracking, RepeatedChurnCyclesStayExact) {
  Engine engine(fresh(12, 64), {});
  util::Rng rng(17);
  for (int cycle = 0; cycle < 5; ++cycle) {
    const auto owners = engine.network().live_owners();
    if (cycle % 2 == 0) {
      join(engine.network(), rng.next(),
           owners[rng.below(owners.size())]);
    } else {
      leave_gracefully(engine.network(),
                       owners[rng.below(owners.size())]);
    }
    engine.reset_change_tracking();
    const auto spec = StableSpec::compute(engine.network());
    const auto result = run_to_stable(engine, spec, {});
    ASSERT_TRUE(result.stabilized) << "cycle " << cycle;
    ASSERT_TRUE(result.spec_exact) << "cycle " << cycle;
  }
}

TEST(Tracking, StrayEdgeAfterFixpointIsDetectedAndRepaired) {
  Engine engine(fresh(10, 65), {});
  const auto spec = StableSpec::compute(engine.network());
  ASSERT_TRUE(run_to_stable(engine, spec, {}).stabilized);
  const auto slots = engine.network().live_slots();
  engine.network().add_edge(slots.front(), EdgeKind::kRing, slots.back());
  engine.reset_change_tracking();
  const auto mt = engine.step();
  EXPECT_TRUE(mt.changed);  // the stray ring edge moves/resolves, not rests
  const auto result = run_to_stable(engine, spec, {});
  ASSERT_TRUE(result.stabilized);
  EXPECT_TRUE(result.spec_exact);
}

}  // namespace
}  // namespace rechord::core
