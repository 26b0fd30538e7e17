// Property tests of the active-set scheduler (DESIGN.md §6): replaying a
// peer whose read set is untouched -- or skipping a provably *resting* peer
// outright -- must be indistinguishable, bit for bit, from re-running its
// rules. We assert that over randomized churn and fault schedules, serial
// and sharded, additionally let the engine cross-check every single replay
// against a live re-execution (EngineOptions::paranoid_replay), and pin the
// fixpoint behavior (every peer skipped, fingerprint frozen) and the skip
// set's recovery after churn.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "core/churn.hpp"
#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "test_util.hpp"
#include "util/trace.hpp"

namespace rechord::core {
namespace {

Network random_net(std::size_t n, std::uint64_t seed, bool scrambled) {
  util::Rng rng(seed);
  Network net = gen::make_network(gen::Topology::kRandomConnected, n, rng);
  if (scrambled) gen::scramble_state(net, rng);
  return net;
}

// Applies one random churn event identically to every engine's network (the
// rng draw sequence is independent of the engine count, so one- and
// two-engine runs see the same schedule). Roughly a third of the events
// skip the reset, exercising the engine's out-of-band dirty-mark scan (the
// two-round wake).
void churn_all(std::initializer_list<Engine*> engines, util::Rng& rng) {
  const auto owners = (*engines.begin())->network().live_owners();
  for (Engine* e : engines) ASSERT_EQ(owners, e->network().live_owners());
  const std::uint32_t pick = owners[rng.below(owners.size())];
  switch (rng.below(3)) {
    case 0: {
      const RingPos id = rng.next();
      for (Engine* e : engines) join(e->network(), id, pick);
      break;
    }
    case 1:
      if (owners.size() <= 4) return;
      for (Engine* e : engines) crash(e->network(), pick);
      break;
    default:
      if (owners.size() <= 4) return;
      for (Engine* e : engines) leave_gracefully(e->network(), pick);
      break;
  }
  if (rng.below(3) != 0)
    for (Engine* e : engines) e->reset_change_tracking();
}

void churn_both(Engine& a, Engine& b, util::Rng& rng) {
  churn_all({&a, &b}, rng);
}

// Lockstep equivalence driver: every round must produce identical state
// fingerprints and identical fixpoint-detector verdicts. Accumulates the
// work the active engine avoided (peer-replays and outright skips) into
// `avoided`.
void lockstep(Engine& active, Engine& full, util::Rng& churn_rng, int rounds,
              int churn_every, std::uint64_t& avoided) {
  for (int r = 0; r < rounds; ++r) {
    if (churn_every > 0 && r > 0 && r % churn_every == 0)
      churn_both(active, full, churn_rng);
    const auto ma = active.step();
    const auto mf = full.step();
    avoided += ma.replayed_peers + ma.skipped_peers;
    ASSERT_EQ(ma.changed, mf.changed) << "round " << r;
    ASSERT_EQ(active.network().state_fingerprint(),
              full.network().state_fingerprint())
        << "round " << r;
  }
}

// >= 120 randomized churn rounds serial: 3 seeds x 2 initial-state kinds x
// 40 rounds, churn every 7 rounds, resets only sometimes.
TEST(Scheduler, ActiveVsFullScanBitIdenticalUnderChurnSerial) {
  std::uint64_t total_avoided = 0;
  for (std::uint64_t seed : {61ULL, 62ULL, 63ULL}) {
    for (bool scrambled : {false, true}) {
      Engine active(random_net(60, seed, scrambled), {.threads = 1});
      Engine full(random_net(60, seed, scrambled),
                  {.threads = 1, .full_scan = true});
      util::Rng churn_rng(seed * 101);
      lockstep(active, full, churn_rng, 40, 7, total_avoided);
      if (HasFatalFailure()) return;
    }
  }
  // The scheduler must actually have skipped work, not just matched.
  EXPECT_GT(total_avoided, 0U);
}

// Same property with the active engine sharded over the 8-thread worker
// pool, compared against the serial full scan: one run covers both
// "active == full" and "sharded == serial".
TEST(Scheduler, ActiveEightThreadsVsFullScanSerialBitIdentical) {
  std::uint64_t total_avoided = 0;
  for (std::uint64_t seed : {71ULL, 72ULL}) {
    Engine active(random_net(100, seed, /*scrambled=*/true), {.threads = 8});
    Engine full(random_net(100, seed, /*scrambled=*/true),
                {.threads = 1, .full_scan = true});
    util::Rng churn_rng(seed * 103);
    lockstep(active, full, churn_rng, 60, 9, total_avoided);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(total_avoided, 0U);
}

// Equivalence must survive fault injection: activation faults (a woken
// peer that sleeps keeps its wake flag) and message loss (identical op
// multisets give identical drop coins).
TEST(Scheduler, ActiveVsFullScanBitIdenticalUnderFaults) {
  for (std::uint64_t seed : {81ULL, 82ULL}) {
    const EngineOptions base{.threads = 1,
                             .sleep_probability = 0.25,
                             .message_loss = 0.1,
                             .fault_seed = seed * 7};
    EngineOptions full_opt = base;
    full_opt.full_scan = true;
    Engine active(random_net(40, seed, /*scrambled=*/false), base);
    Engine full(random_net(40, seed, /*scrambled=*/false), full_opt);
    util::Rng churn_rng(seed * 107);
    std::uint64_t replays = 0;
    lockstep(active, full, churn_rng, 80, 11, replays);
    if (HasFatalFailure()) return;
  }
}

// Wake-set soundness, checked directly: every peer the scheduler would have
// replayed is run live instead, and the fresh phase output (local edits,
// delayed ops, rl/rr, activity) is diffed against the cache. A single
// mismatch means a peer was wrongly considered quiescent.
TEST(Scheduler, ParanoidReplayCrossCheckFindsNoMismatch) {
  std::uint64_t checked_replays = 0;
  for (std::uint64_t seed : {91ULL, 92ULL, 93ULL}) {
    Engine engine(random_net(50, seed, seed % 2 == 0),
                  {.paranoid_replay = true});
    util::Rng churn_rng(seed * 109);
    for (int r = 0; r < 50; ++r) {
      if (r > 0 && r % 8 == 0) churn_all({&engine}, churn_rng);
      checked_replays += engine.step().replayed_peers;
      ASSERT_EQ(engine.replay_check_failures(), 0U)
          << "seed=" << seed << " round=" << r;
    }
  }
  EXPECT_GT(checked_replays, 1000U);  // the check must have had real targets
}

// Rule 6 records each emptied connection set as ONE kClearSet edit rather
// than a removal per held edge, and replay_peer applies it as
// Network::clear_set. At a materialized fixpoint every peer with virtual
// nodes empties and refills its connection sets each round, so nearly every
// cached delta carries the record. Through the fixpoint and a k-crash
// recovery, the active engine with and without paranoid_replay must match
// the serial full scan fingerprint for fingerprint, on 1 and 2 threads; the
// paranoid cross-check must find no mismatch, and both kinds of replay must
// actually have run.
TEST(Scheduler, ClearSetReplayMatchesFullScanThroughCrashRecovery) {
  const Network base = core::stable_network(96, 11);
  for (const unsigned threads : {1U, 2U}) {
    Engine active(base, {.threads = threads});
    Engine paranoid(base, {.threads = threads, .paranoid_replay = true});
    Engine full(base, {.threads = 1, .full_scan = true});
    std::uint64_t replayed = 0, checked = 0;
    bool fixed = false;
    // Runs `rounds` rounds, or with `to_fixpoint` until the full scan stops
    // changing (at most `rounds`).
    const auto run = [&](int rounds, const char* phase, bool to_fixpoint) {
      for (int r = 0; r < rounds && !(to_fixpoint && fixed); ++r) {
        const auto ma = active.step();
        const auto mp = paranoid.step();
        const auto mf = full.step();
        replayed += ma.replayed_peers;
        checked += mp.replayed_peers;
        const auto where = [&] {
          return ::testing::Message()
                 << "threads=" << threads << " " << phase << " round " << r;
        };
        ASSERT_EQ(ma.changed, mf.changed) << where();
        ASSERT_EQ(mp.changed, mf.changed) << where();
        ASSERT_EQ(active.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << where();
        ASSERT_EQ(paranoid.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << where();
        ASSERT_EQ(paranoid.replay_check_failures(), 0U) << where();
        fixed = !mf.changed;
      }
    };
    run(4, "fixpoint", false);
    if (HasFatalFailure()) return;
    util::Rng rng(threads * 131);
    for (int k = 0; k < 3; ++k) {
      const auto owners = full.network().live_owners();
      const std::uint32_t pick = owners[rng.below(owners.size())];
      for (Engine* e : {&active, &paranoid, &full}) crash(e->network(), pick);
    }
    fixed = false;
    run(5000, "recovery", true);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(fixed) << "threads=" << threads;
    EXPECT_GT(replayed, 0U) << "threads=" << threads;
    EXPECT_GT(checked, 0U) << "threads=" << threads;
  }
}

// Fixpoint detection agreement plus the scheduler's raison d'être: once the
// fixpoint is reached, every peer rests -- the whole op flow is recognized
// as a resting chain and skipped outright (no rules, no replay, no ops) --
// while the detector keeps reporting an unchanged state and the state
// fingerprint stays frozen.
TEST(Scheduler, FixpointRoundsSkipEveryPeer) {
  Engine active(random_net(80, 33, /*scrambled=*/false), {});
  Engine full(random_net(80, 33, /*scrambled=*/false), {.full_scan = true});
  const auto spec = StableSpec::compute(active.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  const auto ra = run_to_stable(active, spec, opt);
  const auto rf = run_to_stable(full, spec, opt);
  ASSERT_TRUE(ra.stabilized);
  ASSERT_TRUE(ra.spec_exact);
  EXPECT_EQ(ra.rounds_to_stable, rf.rounds_to_stable);
  const std::size_t peers = active.network().alive_owner_count();
  const std::uint64_t frozen = active.network().state_fingerprint();
  // One settling round (quiescence is observed at the end of the round that
  // proves it), then every round must skip every peer.
  active.step();
  for (int r = 0; r < 5; ++r) {
    const auto mt = active.step();
    EXPECT_FALSE(mt.changed);
    EXPECT_EQ(mt.active_peers, 0U);
    EXPECT_EQ(mt.replayed_peers, 0U);
    EXPECT_EQ(mt.skipped_peers, peers);
    EXPECT_EQ(active.network().state_fingerprint(), frozen);
  }
  // The full scan sees the identical frozen state.
  full.step();
  EXPECT_EQ(full.network().state_fingerprint(), frozen);
}

// After a perturbation the scheduler must (a) stay bit-identical to the full
// scan through recovery and (b) find its way back to all-peers-skipped
// fixpoint rounds -- the skip set heals, it does not degrade permanently.
TEST(Scheduler, SkipSetReEngagesAfterChurn) {
  Engine active(random_net(70, 35, /*scrambled=*/false), {});
  Engine full(random_net(70, 35, /*scrambled=*/false), {.full_scan = true});
  const auto spec = StableSpec::compute(active.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(active, spec, opt).stabilized);
  ASSERT_TRUE(run_to_stable(full, spec, opt).stabilized);
  util::Rng rng(17);
  for (int burst = 0; burst < 3; ++burst) {
    churn_both(active, full, rng);
    std::size_t all_skipped_rounds = 0;
    for (int r = 0; r < 400; ++r) {
      const auto mt = active.step();
      full.step();
      ASSERT_EQ(active.network().state_fingerprint(),
                full.network().state_fingerprint())
          << "burst " << burst << " round " << r;
      if (mt.skipped_peers == active.network().alive_owner_count() &&
          !mt.changed)
        ++all_skipped_rounds;
      if (all_skipped_rounds >= 3) break;
    }
    EXPECT_GE(all_skipped_rounds, 3U) << "burst " << burst;
  }
}

// What storm_lockstep saw after a perturbation.
struct StormRun {
  std::size_t storm_rounds = 0, all_skipped_rounds = 0, max_active = 0;
  bool storm_open = false;  // storm-enter traced without a storm-exit
};

// Steps `active` and `full` in lockstep for `rounds` rounds, asserting equal
// fingerprints after every round. Each storm round -- the round that traces
// storm-enter and every round until the one that traces storm-exit -- must
// do exactly the full scan's work: nothing replayed, skipped or emit-only,
// and the same live peers, rule activity and change verdict.
StormRun storm_lockstep(Engine& active, Engine& full, int rounds,
                        const std::string& label) {
  util::Tracer& tracer = util::Tracer::instance();
  tracer.set_enabled(true);
  StormRun run;
  for (int r = 0; r < rounds; ++r) {
    tracer.clear();
    const auto mt = active.step();
    const auto mf = full.step();
    if (active.network().state_fingerprint() !=
        full.network().state_fingerprint()) {
      ADD_FAILURE() << label << " round " << r << ": fingerprints diverged";
      break;
    }
    tracer.for_each([&run](const util::TraceEvent& e) {
      if (e.kind == util::TraceKind::kStormEnter) run.storm_open = true;
      if (e.kind == util::TraceKind::kStormExit) run.storm_open = false;
    });
    if (run.storm_open) {
      ++run.storm_rounds;
      EXPECT_EQ(mt.replayed_peers, 0U) << label << " round " << r;
      EXPECT_EQ(mt.skipped_peers, 0U) << label << " round " << r;
      EXPECT_EQ(mt.boundary_peers, 0U) << label << " round " << r;
      EXPECT_EQ(mt.active_peers, mf.active_peers) << label << " round " << r;
      EXPECT_EQ(mt.changed, mf.changed) << label << " round " << r;
      EXPECT_TRUE(active.last_activity() == full.last_activity())
          << label << " round " << r;
    }
    run.max_active = std::max(run.max_active, mt.active_peers);
    if (!mt.changed &&
        mt.skipped_peers == active.network().alive_owner_count())
      ++run.all_skipped_rounds;
  }
  tracer.set_enabled(false);
  tracer.clear();
  return run;
}

// Storm (bulk) rounds are full-scan rounds -- no skip, no replay, no cache
// recording, no incremental index registration -- so the reader/op-sender
// indices must be rebuilt at the storm->calm transition before anyone goes
// quiescent again. This drives crashes WITHOUT reset_change_tracking (a
// reset would rebuild the indices and mask a registration hole), keeps
// lockstep with the full scan through the whole recovery and well past
// re-stabilization, and checks that the storm path actually ran, that each
// storm round did exactly the full scan's work, and that skip re-engaged.
// The materialized n=400 fixpoint enters its storm with some peers neither
// woken nor stale -- the case where a storm round could still replay or skip.
TEST(Scheduler, StormWithoutResetStaysBitIdentical) {
  for (std::uint64_t seed : {41ULL, 42ULL}) {
    Engine active(random_net(90, seed, /*scrambled=*/false), {});
    Engine full(random_net(90, seed, /*scrambled=*/false),
                {.full_scan = true});
    const auto spec = StableSpec::compute(active.network());
    RunOptions opt;
    opt.max_rounds = 20000;
    ASSERT_TRUE(run_to_stable(active, spec, opt).stabilized);
    ASSERT_TRUE(run_to_stable(full, spec, opt).stabilized);
    active.step();  // settle into all-skipped rounds
    full.step();
    util::Rng rng(seed * 113);
    for (int i = 0; i < 15; ++i) {  // majority-waking crash burst, no reset
      const auto owners = active.network().live_owners();
      const std::uint32_t pick = owners[rng.below(owners.size())];
      crash(active.network(), pick);
      crash(full.network(), pick);
    }
    const std::string label = "seed " + std::to_string(seed);
    const StormRun run = storm_lockstep(active, full, 250, label);
    EXPECT_GT(run.storm_rounds, 0U) << label;
    EXPECT_FALSE(run.storm_open) << label;
    EXPECT_GT(run.max_active, active.network().alive_owner_count() / 2)
        << label;
    EXPECT_GT(run.all_skipped_rounds, 0U) << label;
  }
  Engine active(core::stable_network(400, 1), {});
  Engine full(core::stable_network(400, 1), {.full_scan = true});
  for (int r = 0; r < 3; ++r) {  // recording step, then certified rounds
    active.step();
    full.step();
  }
  const auto owners = active.network().live_owners();
  const std::uint32_t pick = owners[util::Rng(7).below(owners.size())];
  crash(active.network(), pick);
  crash(full.network(), pick);
  const StormRun run = storm_lockstep(active, full, 40, "n=400 fixpoint");
  EXPECT_GT(run.storm_rounds, 0U);
  EXPECT_FALSE(run.storm_open);
  EXPECT_GT(run.all_skipped_rounds, 0U);
}

// Graceful-leave schedules, specifically: leave_gracefully is the one churn
// op that mutates OTHER peers' edge sets out-of-band (the departing peer
// introduces its in-neighbors to its out-neighbors before vanishing), so it
// stresses the oob dirty scan and its reader registration differently from
// join/crash. Randomized bursts of 1-3 leaves, frequently without
// reset_change_tracking, must stay fingerprint-identical to the full scan
// through every recovery round -- serial and sharded over 8 threads.
TEST(Scheduler, GracefulLeaveSchedulesBitIdenticalSerialAndSharded) {
  for (const unsigned threads : {1U, 8U}) {
    for (std::uint64_t seed : {141ULL, 142ULL}) {
      Engine active(random_net(80, seed, /*scrambled=*/false),
                    {.threads = threads});
      Engine full(random_net(80, seed, /*scrambled=*/false),
                  {.threads = 1, .full_scan = true});
      const auto spec0 = StableSpec::compute(active.network());
      RunOptions opt;
      opt.max_rounds = 20000;
      ASSERT_TRUE(run_to_stable(active, spec0, opt).stabilized);
      ASSERT_TRUE(run_to_stable(full, spec0, opt).stabilized);
      util::Rng rng(seed * 131);
      std::uint64_t avoided = 0;
      while (active.network().alive_owner_count() > 16) {
        const std::size_t burst = 1 + rng.below(3);
        for (std::size_t b = 0; b < burst; ++b) {
          const auto owners = active.network().live_owners();
          ASSERT_EQ(owners, full.network().live_owners());
          if (owners.size() <= 4) break;
          const std::uint32_t victim = owners[rng.below(owners.size())];
          leave_gracefully(active.network(), victim);
          leave_gracefully(full.network(), victim);
        }
        if (rng.below(3) == 0) {  // mostly exercise the no-reset oob path
          active.reset_change_tracking();
          full.reset_change_tracking();
        }
        for (int r = 0; r < 60; ++r) {
          const auto ma = active.step();
          const auto mf = full.step();
          avoided += ma.replayed_peers + ma.skipped_peers;
          ASSERT_EQ(active.network().state_fingerprint(),
                    full.network().state_fingerprint())
              << "threads=" << threads << " seed=" << seed << " round " << r;
          if (!ma.changed && !mf.changed) break;
        }
        const auto spec = StableSpec::compute(active.network());
        ASSERT_TRUE(spec.exact_match(active.network()))
            << "threads=" << threads << " seed=" << seed;
      }
      EXPECT_GT(avoided, 0U) << "threads=" << threads << " seed=" << seed;
    }
  }
}

// -- translation closure (DESIGN.md §6.6) ------------------------------------

// Lockstep equivalence of the translating-chain closure through a FULL
// convergence tail -- the regime dominated by uniformly-translating
// connection-edge chains -- with randomized churn plus a mid-tail fault
// window: the active scheduler on {1, 8} threads against the full scan,
// which must agree on the fingerprint and the fixpoint verdict every round.
//
// This is also the mid-slide misclassification regression: a chain member
// wrongly classified as *resting* while its chain is still sliding would
// freeze its local state and diverge from the full scan within a round or
// two, so per-round fingerprint equality WHILE changed==true pins it. The
// closure must also demonstrably engage mid-slide (peers fast-forwarded --
// skipped or emit-only boundary -- during rounds in which the global state
// still changed), so the test cannot pass vacuously by never skipping.
// Every round the emit-only count must stay within the skipped count it is
// a subset of (an emit-only peer that the deferred pass replays leaves both).
TEST(Scheduler, TranslatingChainsLockstepFullTailAndNeverMisclassified) {
  for (const unsigned threads : {1U, 8U}) {
    for (std::uint64_t seed : {171ULL, 172ULL}) {
      Engine translate(random_net(130, seed, /*scrambled=*/false),
                       {.threads = threads});
      Engine full(random_net(130, seed, /*scrambled=*/false),
                  {.threads = 1, .full_scan = true});
      util::Rng churn_rng(seed * 149);
      std::uint64_t mid_slide_skipped = 0, mid_slide_boundary = 0;
      int quiet = 0;
      for (int r = 0; r < 20000 && quiet < 3; ++r) {
        if (r > 0 && r % 25 == 0) churn_all({&translate, &full}, churn_rng);
        if (r == 40) {  // mid-tail fault window; identical default fault
          translate.set_message_loss(0.1);  // seeds + identical op multisets
          full.set_message_loss(0.1);       // give identical drop coins
        }
        if (r == 48) {
          translate.set_message_loss(0.0);
          full.set_message_loss(0.0);
        }
        const auto mt = translate.step();
        const auto mf = full.step();
        ASSERT_EQ(mt.changed, mf.changed)
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_EQ(translate.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << "threads=" << threads << " seed=" << seed << " round " << r;
        ASSERT_LE(mt.boundary_peers, mt.skipped_peers)
            << "threads=" << threads << " seed=" << seed << " round " << r;
        if (mt.changed) {
          mid_slide_skipped += mt.skipped_peers;
          mid_slide_boundary += mt.boundary_peers;
        }
        quiet = mt.changed ? 0 : quiet + 1;
      }
      ASSERT_EQ(quiet, 3) << "threads=" << threads << " seed=" << seed
                          << ": tail did not reach the fixpoint";
      EXPECT_GT(mid_slide_skipped, 0U)
          << "threads=" << threads << " seed=" << seed;
      EXPECT_GT(mid_slide_boundary, 0U)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

// Wake-set soundness of the closure's replay paths, checked directly: with
// paranoid_replay every quiescence candidate is run live and diffed against
// its cache through randomized churn/fault tails (paranoid disables the
// outright-skip fast path by design -- see skip_possible -- so every
// candidate funnels through the cross-check).
TEST(Scheduler, TranslatingChainsParanoidReplayFindsNoMismatch) {
  std::uint64_t checked_replays = 0;
  for (std::uint64_t seed : {181ULL, 182ULL}) {
    Engine engine(random_net(90, seed, /*scrambled=*/false),
                  {.paranoid_replay = true});
    util::Rng churn_rng(seed * 151);
    for (int r = 0; r < 120; ++r) {
      if (r > 0 && r % 20 == 0) churn_all({&engine}, churn_rng);
      if (r == 60) engine.set_message_loss(0.1);
      if (r == 70) engine.set_message_loss(0.0);
      checked_replays += engine.step().replayed_peers;
      ASSERT_EQ(engine.replay_check_failures(), 0U)
          << "seed=" << seed << " round=" << r;
    }
  }
  EXPECT_GT(checked_replays, 1000U);
}

// Satellite regression: when a fault window closes, the resting skip must
// re-arm on its own -- skip_possible reads the live option values, so the
// first post-window round may already skip. Concretely: a network that
// recovered from churn WHILE a loss+sleep window was open must, once the
// window closes and the state re-stabilizes, produce fixpoint rounds that
// cost exactly what a never-faulted engine's fixpoint rounds cost: zero
// live, zero replayed, every peer skipped, fingerprint frozen.
TEST(Scheduler, FaultWindowClosureReArmsRestingSkip) {
  Engine faulted(random_net(80, 53, /*scrambled=*/false), {});
  Engine control(random_net(80, 53, /*scrambled=*/false), {});
  const auto spec0 = StableSpec::compute(faulted.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(faulted, spec0, opt).stabilized);
  ASSERT_TRUE(run_to_stable(control, spec0, opt).stabilized);
  // Identical perturbation for both; only `faulted` recovers under an open
  // loss+sleep window (during which skipping is disabled wholesale).
  util::Rng rng(19);
  for (int burst = 0; burst < 2; ++burst) churn_both(faulted, control, rng);
  faulted.set_message_loss(0.15);
  faulted.set_sleep_probability(0.2);
  for (int r = 0; r < 25; ++r) faulted.step();
  faulted.set_message_loss(0.0);
  faulted.set_sleep_probability(0.0);
  // Both must converge to the same membership-determined fixpoint.
  const auto spec = StableSpec::compute(faulted.network());
  ASSERT_TRUE(run_to_stable(faulted, spec, opt).stabilized);
  ASSERT_TRUE(run_to_stable(control, spec, opt).stabilized);
  ASSERT_TRUE(spec.exact_match(faulted.network()));
  ASSERT_EQ(faulted.network().state_fingerprint(),
            control.network().state_fingerprint());
  faulted.step();  // one settling round each (see FixpointRoundsSkipEveryPeer)
  control.step();
  const std::size_t peers = faulted.network().alive_owner_count();
  const std::uint64_t frozen = faulted.network().state_fingerprint();
  for (int r = 0; r < 5; ++r) {
    const auto mt = faulted.step();
    const auto mc = control.step();
    EXPECT_FALSE(mt.changed) << "round " << r;
    EXPECT_EQ(mt.active_peers, 0U) << "round " << r;
    EXPECT_EQ(mt.replayed_peers, 0U) << "round " << r;
    EXPECT_EQ(mt.skipped_peers, peers) << "round " << r;
    EXPECT_EQ(mt.active_peers, mc.active_peers) << "round " << r;
    EXPECT_EQ(mt.replayed_peers, mc.replayed_peers) << "round " << r;
    EXPECT_EQ(mt.skipped_peers, mc.skipped_peers) << "round " << r;
    EXPECT_EQ(faulted.network().state_fingerprint(), frozen) << "round " << r;
  }
}

// -- multi-datacenter latency model (DESIGN.md §8) ---------------------------

// Mixed delay classes: every `stride`-th owner in datacenter 1 (by default
// datacenter by owner parity), asymmetric cross-dc delays with jitter on one
// direction.
void install_mixed_latency(Engine& e, std::uint64_t jitter_seed,
                           std::uint32_t stride = 2) {
  std::vector<std::uint8_t> dc(e.network().owner_count());
  for (std::uint32_t o = 0; o < dc.size(); ++o)
    dc[o] = o % stride == stride - 1;
  e.assign_datacenters(std::move(dc));
  e.set_latency_model(LatencyModel(
      2,
      {DelayClass{}, DelayClass{2, 1}, DelayClass{1, 0}, DelayClass{}},
      jitter_seed));
}

// Scheduler soundness under heterogeneous link delays: with mixed delay
// classes installed, randomized churn rounds must stay bit-identical to the
// flag-gated full scan -- including the in-flight queue population, which
// gates the fixpoint verdict -- serial and sharded. Two datacenter layouts:
// parity (most traffic crosses the slow link, the queue is full) and one
// owner in 16 in datacenter 1 (most peers send delay-0 only, so they rest or
// go emit-only around the slow senders, and the emit-only commit path that
// bypasses the queue runs). The sparse layout is also the regression for
// the first round of a new model: a delayed re-add cannot cancel its
// target's removal in the round it is sent, so the target must replay.
TEST(Scheduler, LatencyMixedClassesActiveVsFullScanBitIdentical) {
  for (const unsigned threads : {1U, 8U}) {
    std::uint64_t boundary = 0;
    for (const std::uint32_t stride : {2U, 16U}) {
      for (std::uint64_t seed : {151ULL, 152ULL}) {
        Engine active(random_net(70, seed, /*scrambled=*/false),
                      {.threads = threads});
        Engine full(random_net(70, seed, /*scrambled=*/false),
                    {.threads = 1, .full_scan = true});
        // Stabilize first: jittered delays keep their whole traffic region
        // genuinely changing (the wobble is real state change, not scheduler
        // pessimism), so quiescent pockets only exist around a steady start.
        const auto spec = StableSpec::compute(active.network());
        RunOptions ropt;
        ropt.max_rounds = 20000;
        ASSERT_TRUE(run_to_stable(active, spec, ropt).stabilized);
        ASSERT_TRUE(run_to_stable(full, spec, ropt).stabilized);
        install_mixed_latency(active, seed * 3, stride);
        install_mixed_latency(full, seed * 3, stride);
        util::Rng churn_rng(seed * 137);
        std::uint64_t avoided = 0, inflight_seen = 0;
        for (int r = 0; r < 60; ++r) {
          if (r > 0 && r % 9 == 0) churn_both(active, full, churn_rng);
          const auto ma = active.step();
          const auto mf = full.step();
          avoided += ma.replayed_peers + ma.skipped_peers;
          boundary += ma.boundary_peers;
          inflight_seen += active.inflight_message_count();
          const auto where = [&] {
            return ::testing::Message() << "threads=" << threads
                                      << " stride=" << stride
                                      << " seed=" << seed << " round " << r;
          };
          ASSERT_EQ(ma.changed, mf.changed) << where();
          ASSERT_EQ(active.inflight_message_count(),
                    full.inflight_message_count())
              << where();
          ASSERT_EQ(active.network().state_fingerprint(),
                    full.network().state_fingerprint())
              << where();
        }
        // The run must have exercised both the queue and the scheduler.
        EXPECT_GT(inflight_seen, 0U) << "threads=" << threads;
        EXPECT_GT(avoided, 0U) << "threads=" << threads;
      }
    }
    // Emit-only owners took the commit path under a nontrivial model.
    EXPECT_GT(boundary, 0U) << "threads=" << threads;
  }
}

// Replay soundness under mixed delay classes, checked directly: every
// would-be replay is re-executed live and diffed against the cache while
// deliveries arrive rounds after they were issued. A mismatch means the
// wake set missed an input the latency pipeline changed.
TEST(Scheduler, LatencyMixedClassesParanoidReplayFindsNoMismatch) {
  std::uint64_t checked_replays = 0;
  for (std::uint64_t seed : {161ULL, 162ULL}) {
    Engine engine(random_net(50, seed, seed % 2 == 0),
                  {.paranoid_replay = true});
    const auto spec = StableSpec::compute(engine.network());
    RunOptions ropt;
    ropt.max_rounds = 20000;
    ASSERT_TRUE(run_to_stable(engine, spec, ropt).stabilized);
    install_mixed_latency(engine, seed * 5);
    util::Rng churn_rng(seed * 139);
    for (int r = 0; r < 50; ++r) {
      if (r > 0 && r % 8 == 0) churn_all({&engine}, churn_rng);
      checked_replays += engine.step().replayed_peers;
      ASSERT_EQ(engine.replay_check_failures(), 0U)
          << "seed=" << seed << " round=" << r;
    }
  }
  // Jittered delays keep most of the traffic region genuinely changing, so
  // quiescence is rarer than in the synchronous model -- but the check must
  // still have had a real sample of replay targets.
  EXPECT_GT(checked_replays, 100U);
}

// Regression for the two latency skip rules: a peer referenced by a queued
// in-flight message is never marked resting, and a round that ends with a
// non-empty in-flight queue is never declared a fixpoint. Installing the
// model on an already-skipping fixpoint also exercises the rule-(4)
// transition: the cross-dc senders must wake out of the all-skipped state
// to populate the queue exactly like the full scan.
TEST(Scheduler, InFlightReferencedPeersNeverRestingAndGateFixpoint) {
  Engine engine(random_net(60, 37, /*scrambled=*/false), {});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(engine, spec, opt).stabilized);
  engine.step();  // settle into all-skipped fixpoint rounds
  install_mixed_latency(engine, 91);
  std::uint64_t inflight_seen = 0;
  for (int r = 0; r < 30; ++r) {
    const auto refs = engine.inflight_referenced_owners();
    const auto mt = engine.step();
    for (const std::uint32_t o : refs)
      ASSERT_FALSE(engine.owner_was_skipped(o))
          << "round " << r << " owner " << o
          << " skipped with inbound in-flight traffic";
    if (engine.inflight_message_count() > 0) {
      ++inflight_seen;
      ASSERT_TRUE(mt.changed)
          << "round " << r << " declared fixpoint with "
          << engine.inflight_message_count() << " messages in flight";
    }
  }
  // The stationary cross-dc op flow must actually keep the queue populated.
  EXPECT_GT(inflight_seen, 20U);
}

// -- certified quiescent rounds (DESIGN.md §6.7) -----------------------------

// A certified round hands back the previous all-skipped round's metrics
// without touching an owner, so every change to a round input must void the
// certificate. From a materialized fixpoint with lookups in flight, each
// input change is applied once to the active engine (1 and 2 threads), to
// the full scan and to a paranoid_replay engine. The round right after each
// change must not be certified, and every round must agree with the full
// scan on the fingerprint, the fixpoint verdict, the rule activity and every
// mode-independent metric. Between changes the active engine must reach
// certified rounds again, so no check passes vacuously. The full scan and
// the paranoid engine never certify.
TEST(Scheduler, CertifiedRoundsVoidOnEveryInputChange) {
  const Network base = core::stable_network(96, 7);
  for (const unsigned threads : {1U, 2U}) {
    Engine active(base, {.threads = threads});
    Engine full(base, {.threads = 1, .full_scan = true});
    Engine paranoid(base, {.threads = threads, .paranoid_replay = true});
    net::RequestEngine req_active(active, {.seed = 5});
    net::RequestEngine req_full(full, {.seed = 5});
    const auto each = [&](const std::function<void(Engine&)>& apply) {
      for (Engine* e : {&active, &full, &paranoid}) apply(*e);
    };
    util::Rng rng(threads * 1009);
    std::string stage = "start";
    int round = 0;
    const auto where = [&] {
      return ::testing::Message() << "threads=" << threads << " " << stage
                                  << " round " << round;
    };
    // One lockstep round with two fresh lookups; true iff `active`
    // certified it.
    const auto step = [&]() -> bool {
      const auto owners = active.network().live_owners();
      for (int k = 0; k < 2; ++k) {
        const RingPos key = rng.next();
        const std::uint32_t origin = owners[rng.below(owners.size())];
        req_active.submit_lookup(key, origin);
        req_full.submit_lookup(key, origin);
      }
      const std::uint64_t before = active.certified_rounds();
      const auto ma = active.step();
      const auto mf = full.step();
      const auto mp = paranoid.step();
      req_active.on_round();
      req_full.on_round();
      ++round;
      EXPECT_EQ(ma.changed, mf.changed) << where();
      EXPECT_EQ(mp.changed, mf.changed) << where();
      EXPECT_EQ(active.network().state_fingerprint(),
                full.network().state_fingerprint())
          << where();
      EXPECT_EQ(paranoid.network().state_fingerprint(),
                full.network().state_fingerprint())
          << where();
      EXPECT_TRUE(active.last_activity() == full.last_activity()) << where();
      EXPECT_EQ(ma.round, mf.round) << where();
      EXPECT_EQ(ma.real_nodes, mf.real_nodes) << where();
      EXPECT_EQ(ma.virtual_nodes, mf.virtual_nodes) << where();
      EXPECT_EQ(ma.total_edges(), mf.total_edges()) << where();
      EXPECT_EQ(ma.inflight_messages, mf.inflight_messages) << where();
      EXPECT_EQ(ma.dc_count, mf.dc_count) << where();
      EXPECT_EQ(ma.dc_changed_bits, mf.dc_changed_bits) << where();
      EXPECT_EQ(paranoid.replay_check_failures(), 0U) << where();
      return active.certified_rounds() > before;
    };
    // Runs until three certified rounds in a row (the certificate must
    // re-engage after every perturbation).
    const auto settle = [&] {
      int streak = 0;
      for (int r = 0; r < 3000 && streak < 3 && !HasFailure(); ++r)
        streak = step() ? streak + 1 : 0;
      EXPECT_EQ(streak, 3) << where() << ": certified rounds never resumed";
    };
    // Settles, applies one input change and checks the next round.
    const auto change = [&](const char* what,
                            const std::function<void(Engine&)>& apply) {
      settle();
      stage = what;
      each(apply);
      EXPECT_FALSE(step()) << where() << ": the change left the certificate";
    };
    // A fault window: no round inside it is certified, nor the first one
    // after it closes.
    const auto window = [&](const char* open, const char* close,
                            const std::function<void(Engine&)>& set,
                            const std::function<void(Engine&)>& clear) {
      change(open, set);
      for (int r = 0; r < 6; ++r) EXPECT_FALSE(step()) << where();
      stage = close;
      each(clear);
      EXPECT_FALSE(step()) << where() << ": closing left the certificate";
    };
    const auto pick = [&] {
      const auto owners = active.network().live_owners();
      return owners[rng.below(owners.size())];
    };

    const RingPos joiner = rng.next();
    const std::uint32_t contact = pick();
    change("join_peer", [&](Engine& e) { e.join_peer(joiner, contact); });
    const std::uint32_t leaver = pick();
    change("leave_peer", [&](Engine& e) { e.leave_peer(leaver); });
    const std::uint32_t victim = pick();
    const PeerSnapshot snap = capture_peer(active.network(), victim);
    change("crash_peer", [&](Engine& e) { e.crash_peer(victim); });
    change("restart_peer", [&](Engine& e) { e.restart_peer(snap); });
    Slot from = kInvalidSlot, to = kInvalidSlot;
    while (from == kInvalidSlot) {
      const Slot a = slot_of(pick(), 0), b = slot_of(pick(), 0);
      if (a != b && !active.network().has_edge(a, EdgeKind::kUnmarked, b)) {
        from = a;
        to = b;
      }
    }
    change("network().add_edge", [&](Engine& e) {
      e.network().add_edge(from, EdgeKind::kUnmarked, to);
    });
    window(
        "loss window", "loss window closed",
        [](Engine& e) { e.set_message_loss(0.1); },
        [](Engine& e) { e.set_message_loss(0.0); });
    window(
        "sleep window", "sleep window closed",
        [](Engine& e) { e.set_sleep_probability(0.3); },
        [](Engine& e) { e.set_sleep_probability(0.0); });
    std::vector<std::uint8_t> sides(active.network().owner_count());
    for (std::uint32_t o = 0; o < sides.size(); ++o) sides[o] = o % 2;
    window(
        "set_partition", "clear_partition (grace round)",
        [&](Engine& e) { e.set_partition(sides); },
        [](Engine& e) { e.clear_partition(); });
    window(
        "nontrivial latency model", "trivial latency model",
        [](Engine& e) { install_mixed_latency(e, 77); },
        [](Engine& e) { e.set_latency_model(LatencyModel{}); });
    std::vector<std::uint8_t> dcs(active.network().owner_count());
    for (std::uint32_t o = 0; o < dcs.size(); ++o) dcs[o] = o % 3;
    change("assign_datacenters",
           [&](Engine& e) { e.assign_datacenters(dcs); });
    change("reset_change_tracking",
           [](Engine& e) { e.reset_change_tracking(); });
    stage = "end";
    settle();
    EXPECT_EQ(full.certified_rounds(), 0U);
    EXPECT_EQ(paranoid.certified_rounds(), 0U);
    EXPECT_GT(active.certified_rounds(), 0U);
    EXPECT_EQ(req_active.fingerprint(), req_full.fingerprint());
    if (HasFailure()) return;
  }
}

// Perturbation locality: after a single join into a stabilized network, the
// wake set must stay a small neighborhood, not O(n).
TEST(Scheduler, SingleJoinWakesOnlyANeighborhood) {
  Engine engine(random_net(120, 34, /*scrambled=*/false), {});
  const auto spec = StableSpec::compute(engine.network());
  RunOptions opt;
  opt.max_rounds = 20000;
  ASSERT_TRUE(run_to_stable(engine, spec, opt).stabilized);
  util::Rng rng(5);
  const auto owners = engine.network().live_owners();
  join(engine.network(), rng.next(), owners[owners.size() / 2]);
  // No reset: exercises the out-of-band dirty scan.
  std::size_t max_active = 0;
  for (int r = 0; r < 4; ++r)
    max_active = std::max(max_active, engine.step().active_peers);
  EXPECT_GT(max_active, 0U);
  EXPECT_LT(max_active, engine.network().alive_owner_count() / 2);
}

}  // namespace
}  // namespace rechord::core
