// Scenario timeline engine (sim/scenario.hpp): the registry lists the
// documented scenarios, ported scenarios reproduce the pre-refactor bespoke
// drivers bit for bit (same per-op recovery rounds and state fingerprints),
// every registered scenario is fingerprint-identical across the active-set
// scheduler, the flag-gated full scan, serial and 8-thread execution, the
// engine's partition window drops exactly the cross-cut messages in every
// mode, and the CSV series has one row per executed round.

#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/churn.hpp"
#include "core/convergence.hpp"
#include "core/latency.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"

namespace rechord::sim {
namespace {

TEST(ScenarioRegistry, ListsAtLeastSixDistinctScenarios) {
  const auto& registry = scenario_registry();
  EXPECT_GE(registry.size(), 6U);
  std::set<std::string> names;
  for (const auto& info : registry) {
    names.insert(info.name);
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_EQ(find_scenario(info.name), &info);
    // Every build yields a runnable timeline with at least one checkpoint.
    ScenarioParams params;
    const Scenario sc = info.build(params);
    EXPECT_EQ(sc.name, info.name);
    EXPECT_FALSE(sc.timeline.empty()) << info.name;
  }
  EXPECT_EQ(names.size(), registry.size());
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

// The pre-refactor examples/churn_scenario.cpp driver, reproduced verbatim:
// one rng stream seeds the network and then draws (victim, op-kind[, id])
// per op, with a blanket reset_change_tracking before every re-convergence.
// The ported `churn-mix` scenario must produce the same op schedule, the
// same per-op recovery rounds and the same state fingerprints -- despite
// using the engine's mid-run hooks WITHOUT the blanket reset.
TEST(ScenarioPort, ChurnMixReproducesPreRefactorDriver) {
  constexpr std::size_t kN = 24;
  constexpr std::size_t kOps = 6;
  constexpr std::uint64_t kSeed = 11;

  struct OpRecord {
    std::uint64_t rounds_exact;
    std::uint64_t rounds_almost;
    std::uint64_t fingerprint;
  };
  std::vector<OpRecord> legacy;
  std::uint64_t legacy_bootstrap = 0;
  {
    util::Rng rng(kSeed);
    core::Engine engine(
        gen::make_network(gen::Topology::kRandomConnected, kN, rng), {});
    {
      const auto spec = core::StableSpec::compute(engine.network());
      legacy_bootstrap = core::run_to_stable(engine, spec, {}).rounds_to_stable;
    }
    for (std::size_t i = 0; i < kOps; ++i) {
      for (;;) {
        const auto owners = engine.network().live_owners();
        const auto pick = owners[rng.below(owners.size())];
        const auto kind = rng.below(3);
        if (kind == 0) {
          core::join(engine.network(), rng.next(), pick);
        } else if (owners.size() <= 3) {
          continue;  // redraw, like the old example's `--i; continue`
        } else if (kind == 1) {
          core::leave_gracefully(engine.network(), pick);
        } else {
          core::crash(engine.network(), pick);
        }
        break;
      }
      engine.reset_change_tracking();
      const auto spec = core::StableSpec::compute(engine.network());
      const auto r = core::run_to_stable(engine, spec, {});
      ASSERT_TRUE(r.stabilized && r.spec_exact) << "op " << i;
      legacy.push_back({r.rounds_to_stable, r.rounds_to_almost,
                        engine.network().state_fingerprint()});
    }
  }

  ScenarioParams params;
  params.n = kN;
  params.seed = kSeed;
  params.ops = kOps;
  const auto out = run_registered_scenario("churn-mix", params);
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.checkpoints.size(), kOps + 1);  // bootstrap + one per op
  EXPECT_EQ(out.checkpoints[0].rounds, legacy_bootstrap);
  for (std::size_t i = 0; i < kOps; ++i) {
    const auto& cp = out.checkpoints[i + 1];
    EXPECT_EQ(cp.rounds, legacy[i].rounds_exact) << "op " << i;
    EXPECT_EQ(cp.rounds_almost, legacy[i].rounds_almost) << "op " << i;
    EXPECT_EQ(cp.fingerprint, legacy[i].fingerprint) << "op " << i;
  }
}

// The pre-refactor examples/adversarial_recovery.cpp driver: fresh engine on
// a pathological topology, run to the fixpoint. The ported scenario's first
// checkpoint must match its rounds and final state exactly.
TEST(ScenarioPort, AdversarialRecoveryReproducesPreRefactorDriver) {
  constexpr std::size_t kN = 16;
  constexpr std::uint64_t kSeed = 9;

  std::uint64_t legacy_rounds = 0, legacy_fp = 0;
  {
    util::Rng rng(kSeed);
    core::Engine engine(
        gen::make_network(gen::Topology::kLine, kN, rng), {});
    const auto spec = core::StableSpec::compute(engine.network());
    core::RunOptions opt;
    opt.max_rounds = 100000;
    const auto r = core::run_to_stable(engine, spec, opt);
    ASSERT_TRUE(r.stabilized && r.spec_exact);
    legacy_rounds = r.rounds_to_stable;
    legacy_fp = engine.network().state_fingerprint();
  }

  ScenarioParams params;
  params.n = kN;
  params.seed = kSeed;
  const auto out = run_registered_scenario("adversarial-recovery", params);
  ASSERT_TRUE(out.ok);
  ASSERT_GE(out.checkpoints.size(), 3U);
  EXPECT_EQ(out.checkpoints[0].label, "recovered");
  EXPECT_EQ(out.checkpoints[0].rounds, legacy_rounds);
  EXPECT_EQ(out.checkpoints[0].fingerprint, legacy_fp);
}

// One line of tests/golden/scenarios.txt: the scenario name, then per
// checkpoint label=rounds/rounds_almost/passed/fingerprint, then the
// whole-run totals -- rounds, final fingerprint, loss and partition drops
// and the request fingerprint.
std::string golden_line(const ScenarioOutcome& out) {
  std::string line = out.name;
  char buf[160];
  for (const auto& cp : out.checkpoints) {
    std::snprintf(buf, sizeof buf, " %s=%" PRIu64 "/%" PRIu64 "/%d/%016" PRIx64,
                  cp.label.c_str(), cp.rounds, cp.rounds_almost,
                  cp.passed ? 1 : 0, cp.fingerprint);
    line += buf;
  }
  std::snprintf(buf, sizeof buf,
                " | total_rounds=%" PRIu64 " final=%016" PRIx64
                " dropped=%" PRIu64 "/%" PRIu64 " requests=%016" PRIx64,
                out.total_rounds, out.final_fingerprint, out.messages_dropped,
                out.partition_dropped, out.requests.fingerprint);
  return line + buf;
}

// Diffs the scenario lines against the committed golden. On a mismatch it
// writes the actual lines into the build directory and prints the cp that
// re-pins them (only after checking every changed line is meant to move).
void expect_matches_golden(const std::vector<std::string>& actual) {
  const std::string golden = RECHORD_SOURCE_DIR "/tests/golden/scenarios.txt";
  std::vector<std::string> expected;
  std::ifstream in(golden);
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  if (expected == actual) return;
  for (std::size_t i = 0; i < std::max(expected.size(), actual.size()); ++i) {
    const std::string want = i < expected.size() ? expected[i] : "(none)";
    const std::string got = i < actual.size() ? actual[i] : "(none)";
    EXPECT_EQ(got, want) << "scenario golden line " << i + 1;
  }
  const std::string out = RECHORD_BINARY_DIR "/scenarios.txt";
  std::ofstream f(out);
  for (const auto& line : actual) f << line << '\n';
  ADD_FAILURE() << "scenario golden differs; after checking each changed "
                   "line, re-pin with:\n  cp "
                << out << ' ' << golden;
}

// The determinism contract (DESIGN.md §7): a scenario run is bit-identical
// -- same round counts, same per-checkpoint and final fingerprints -- under
// the active-set scheduler and the flag-gated full scan, serial and sharded
// over the 8-thread pool, for EVERY registered scenario. The active serial
// run is also pinned to tests/golden/scenarios.txt, so a change that moves
// every mode alike still shows.
TEST(ScenarioDeterminism, AllScenariosFingerprintEqualAcrossSchedulerModes) {
  std::vector<std::string> golden;
  for (const auto& info : scenario_registry()) {
    ScenarioParams base;
    base.n = 70;
    base.seed = 7;
    base.ops = 3;
    std::vector<ScenarioOutcome> runs;
    for (const bool full_scan : {false, true}) {
      for (const unsigned threads : {1U, 8U}) {
        ScenarioParams params = base;
        params.engine.threads = threads;
        params.engine.full_scan = full_scan;
        runs.push_back(run_registered_scenario(info.name, params));
      }
    }
    const auto& ref = runs.front();
    EXPECT_TRUE(ref.ok) << info.name;
    for (std::size_t v = 1; v < runs.size(); ++v) {
      const auto& alt = runs[v];
      ASSERT_EQ(alt.total_rounds, ref.total_rounds)
          << info.name << " variant " << v;
      ASSERT_EQ(alt.final_fingerprint, ref.final_fingerprint)
          << info.name << " variant " << v;
      ASSERT_EQ(alt.ok, ref.ok) << info.name << " variant " << v;
      ASSERT_EQ(alt.checkpoints.size(), ref.checkpoints.size()) << info.name;
      for (std::size_t c = 0; c < ref.checkpoints.size(); ++c) {
        ASSERT_EQ(alt.checkpoints[c].rounds, ref.checkpoints[c].rounds)
            << info.name << " checkpoint " << c << " variant " << v;
        ASSERT_EQ(alt.checkpoints[c].fingerprint,
                  ref.checkpoints[c].fingerprint)
            << info.name << " checkpoint " << c << " variant " << v;
      }
      // Fault/partition schedules are part of the contract too.
      EXPECT_EQ(alt.messages_dropped, ref.messages_dropped) << info.name;
      EXPECT_EQ(alt.partition_dropped, ref.partition_dropped) << info.name;
    }
    // The active serial run must actually have used the scheduler.
    EXPECT_GT(ref.replayed_peer_rounds + ref.skipped_peer_rounds, 0U)
        << info.name;
    golden.push_back(golden_line(ref));
  }
  expect_matches_golden(golden);
}

// The zero-delay equivalence backbone of the latency subsystem (DESIGN.md
// §8): with a latency model INSTALLED but every delay class 0, the routing
// pass, the (empty) in-flight queue and the queue-gated fixpoint verdict
// must be invisible -- every registered scenario produces the same round
// counts, per-checkpoint fingerprints and fault counters as the plain
// pipeline, across {active, full-scan} x {1, 8 threads}.
TEST(LatencyEquivalence, ZeroDelayModelBitIdenticalForEveryScenario) {
  for (const auto& info : scenario_registry()) {
    ScenarioParams base;
    base.n = 70;
    base.seed = 7;
    base.ops = 3;
    const auto ref = run_registered_scenario(info.name, base);
    EXPECT_TRUE(ref.ok) << info.name;
    for (const bool full_scan : {false, true}) {
      for (const unsigned threads : {1U, 8U}) {
        ScenarioParams params = base;
        params.engine.threads = threads;
        params.engine.full_scan = full_scan;
        Scenario sc = info.build(params);
        sc.timeline.insert(
            sc.timeline.begin(),
            {Event{AssignDatacenters{.dcs = 3}},
             Event{SetLatencyModel{
                 .dcs = 3,
                 .classes = std::vector<core::DelayClass>(9)}}});
        const auto alt = run_scenario(sc, params);
        ASSERT_EQ(alt.total_rounds, ref.total_rounds)
            << info.name << " full_scan=" << full_scan
            << " threads=" << threads;
        ASSERT_EQ(alt.final_fingerprint, ref.final_fingerprint)
            << info.name << " full_scan=" << full_scan
            << " threads=" << threads;
        ASSERT_EQ(alt.ok, ref.ok) << info.name;
        ASSERT_EQ(alt.checkpoints.size(), ref.checkpoints.size()) << info.name;
        for (std::size_t c = 0; c < ref.checkpoints.size(); ++c) {
          ASSERT_EQ(alt.checkpoints[c].rounds, ref.checkpoints[c].rounds)
              << info.name << " checkpoint " << c;
          ASSERT_EQ(alt.checkpoints[c].fingerprint,
                    ref.checkpoints[c].fingerprint)
              << info.name << " checkpoint " << c;
        }
        EXPECT_EQ(alt.messages_dropped, ref.messages_dropped) << info.name;
        EXPECT_EQ(alt.partition_dropped, ref.partition_dropped) << info.name;
      }
    }
  }
}

// Same property at per-round granularity, engine-level: a zero-delay model
// lockstepped against a plain engine through randomized churn must agree on
// every round's fingerprint and fixpoint verdict, with the in-flight queue
// structurally empty throughout.
TEST(LatencyEquivalence, ZeroDelayPerRoundFingerprintsMatchPlainPipeline) {
  for (const bool full_scan : {false, true}) {
    for (const unsigned threads : {1U, 8U}) {
      auto make = [&] {
        util::Rng rng(29);
        return core::Engine(
            gen::make_network(gen::Topology::kRandomConnected, 64, rng),
            {.threads = threads, .full_scan = full_scan});
      };
      core::Engine plain = make();
      core::Engine modeled = make();
      std::vector<std::uint8_t> dc(modeled.network().owner_count());
      for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 3;
      modeled.assign_datacenters(std::move(dc));
      modeled.set_latency_model(core::LatencyModel(
          3, std::vector<core::DelayClass>(9), /*jitter_seed=*/29));
      util::Rng churn_rng(31);
      for (int r = 0; r < 50; ++r) {
        if (r > 0 && r % 7 == 0) {
          const auto owners = plain.network().live_owners();
          const std::uint32_t pick = owners[churn_rng.below(owners.size())];
          if (churn_rng.below(2) == 0 || owners.size() <= 4) {
            const core::RingPos id = churn_rng.next();
            core::join(plain.network(), id, pick);
            core::join(modeled.network(), id, pick);
          } else {
            core::crash(plain.network(), pick);
            core::crash(modeled.network(), pick);
          }
        }
        const auto mp = plain.step();
        const auto mm = modeled.step();
        ASSERT_EQ(modeled.inflight_message_count(), 0U) << "round " << r;
        ASSERT_EQ(mm.changed, mp.changed)
            << "full_scan=" << full_scan << " threads=" << threads
            << " round " << r;
        ASSERT_EQ(modeled.network().state_fingerprint(),
                  plain.network().state_fingerprint())
            << "full_scan=" << full_scan << " threads=" << threads
            << " round " << r;
      }
    }
  }
}

// Crash-restart (rejoin with stale pre-crash state): every convergence
// checkpoint passes, the peer count is restored after each restart, and the
// run is bit-identical serial vs 8-thread and active vs full scan.
TEST(ScenarioCrashRestart, CheckpointsPassAndModeInvariant) {
  ScenarioParams base;
  base.n = 28;
  base.seed = 5;
  base.ops = 3;
  std::vector<ScenarioOutcome> runs;
  for (const bool full_scan : {false, true})
    for (const unsigned threads : {1U, 8U}) {
      ScenarioParams params = base;
      params.engine.threads = threads;
      params.engine.full_scan = full_scan;
      runs.push_back(run_registered_scenario("crash-restart", params));
    }
  const auto& ref = runs.front();
  ASSERT_TRUE(ref.ok);
  ASSERT_EQ(ref.checkpoints.size(), base.ops + 1);
  for (const auto& cp : ref.checkpoints) {
    EXPECT_TRUE(cp.passed) << cp.label;
    EXPECT_TRUE(cp.exact) << cp.label;
    // crash + restart of the same peer: membership is restored in full.
    EXPECT_EQ(cp.peers, base.n) << cp.label;
  }
  for (std::size_t v = 1; v < runs.size(); ++v) {
    ASSERT_EQ(runs[v].total_rounds, ref.total_rounds) << "variant " << v;
    ASSERT_EQ(runs[v].final_fingerprint, ref.final_fingerprint)
        << "variant " << v;
    for (std::size_t c = 0; c < ref.checkpoints.size(); ++c)
      ASSERT_EQ(runs[v].checkpoints[c].fingerprint,
                ref.checkpoints[c].fingerprint)
          << "variant " << v << " checkpoint " << c;
  }
}

// Engine-level partition window: dropping exactly the cross-cut messages is
// mode-independent, and the overlay heals back to the exact fixpoint after
// the cut clears -- in per-round lockstep with the full scan from the heal
// on. A long cut drops the same cross-cut delivery every round and so leaves
// no digest trail; the heal's grace round (Engine::clear_partition) is what
// makes the first post-cut round re-emit it instead of skipping its sender.
TEST(ScenarioEngine, PartitionWindowBitIdenticalAndHeals) {
  for (const int window : {6, 30}) {
    for (const std::uint64_t seed : {23ULL, 24ULL, 25ULL}) {
      auto make = [seed](core::EngineOptions opt) {
        util::Rng rng(seed);
        return core::Engine(
            gen::make_network(gen::Topology::kRandomConnected, 40, rng), opt);
      };
      core::Engine active = make({});
      core::Engine full = make({.full_scan = true});
      for (core::Engine* e : {&active, &full}) {
        const auto spec = core::StableSpec::compute(e->network());
        ASSERT_TRUE(core::run_to_stable(*e, spec, {}).stabilized);
      }
      std::vector<std::uint8_t> group(active.network().owner_count(), 0);
      for (std::size_t o = 0; o < group.size(); ++o) group[o] = o % 2;
      active.set_partition(group);
      full.set_partition(group);
      for (int r = 0; r < window; ++r) {
        active.step();
        full.step();
        ASSERT_EQ(active.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << "window=" << window << " seed=" << seed << " cut round " << r;
      }
      EXPECT_GT(active.partition_dropped(), 0U);
      EXPECT_EQ(active.partition_dropped(), full.partition_dropped());
      active.clear_partition();
      full.clear_partition();
      bool changed = true;
      for (int r = 0; changed && r < 20000; ++r) {
        const auto ma = active.step();
        const auto mf = full.step();
        ASSERT_EQ(ma.changed, mf.changed)
            << "window=" << window << " seed=" << seed << " heal round " << r;
        ASSERT_EQ(active.network().state_fingerprint(),
                  full.network().state_fingerprint())
            << "window=" << window << " seed=" << seed << " heal round " << r;
        changed = mf.changed;
      }
      EXPECT_FALSE(changed) << "window=" << window << " seed=" << seed;
      const auto spec = core::StableSpec::compute(active.network());
      std::string why;
      EXPECT_TRUE(spec.exact_match(active.network(), &why))
          << "window=" << window << " seed=" << seed << ": " << why;
    }
  }
}

// The per-round CSV series: one "round" row per executed engine round and
// one "checkpoint" row per checkpoint (the full header and the row widths
// are pinned in test_request's ScenarioCsvCarriesRequestAndDcLagColumns).
TEST(ScenarioCsv, SeriesHasOneRowPerRound) {
  ScenarioParams params;
  params.n = 20;
  params.seed = 3;
  params.ops = 2;
  std::ostringstream csv;
  const auto out = run_registered_scenario("churn-mix", params, &csv);
  ASSERT_TRUE(out.ok);
  std::istringstream in(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("record,event,round,", 0), 0U) << line;
  std::size_t round_rows = 0, checkpoint_rows = 0;
  while (std::getline(in, line)) {
    if (line.rfind("round,", 0) == 0) ++round_rows;
    if (line.rfind("checkpoint,", 0) == 0) ++checkpoint_rows;
  }
  EXPECT_EQ(round_rows, out.total_rounds);
  EXPECT_EQ(checkpoint_rows, out.checkpoints.size());
}

// A completion cap below one round's completions evicts records before the
// runner's harvest reads them. A resolved put among them would drop out of
// the gettable keys unseen, so the run counts the evicted records, publishes
// the count and fails.
TEST(ScenarioHarvest, CompletionRecordsEvictedUnreadFailTheRun) {
  Scenario sc;
  sc.name = "harvest-overflow";
  sc.n = 32;
  sc.timeline = {Checkpoint{.label = "bootstrap"},
                 LookupLoad{.count = 64, .kind = LoadKind::kKvPut},
                 AwaitRequestsDrained{.label = "load-drain"}};
  ScenarioParams params;
  params.seed = 3;
  sc.requests.completion_cap = 4;
  const auto capped = run_scenario(sc, params);
  for (const auto& cp : capped.checkpoints) EXPECT_TRUE(cp.passed) << cp.label;
  EXPECT_EQ(capped.requests.puts_stored, 64U);
  EXPECT_GT(capped.completions_missed, 0U);
  EXPECT_LE(capped.completions_missed, 64U - 4U);  // the last 4 are read
  EXPECT_FALSE(capped.ok);
  EXPECT_EQ(capped.metrics.at("req.completions_missed").value,
            static_cast<double>(capped.completions_missed));
  // Without the cap the same run reads every record and passes.
  sc.requests.completion_cap = 0;
  const auto uncapped = run_scenario(sc, params);
  EXPECT_TRUE(uncapped.ok);
  EXPECT_EQ(uncapped.completions_missed, 0U);
  EXPECT_EQ(uncapped.requests.fingerprint, capped.requests.fingerprint);
}

// The ledger cap counts its hits: a cap below one load's distinct keys
// prunes, and the run publishes RequestTotals::mono_ledger_pruned as
// cap.mono_ledger.hits. The prune changes no request outcome.
TEST(ScenarioCaps, MonoLedgerPrunesArePublished) {
  Scenario sc;
  sc.name = "ledger-cap";
  sc.n = 32;
  sc.timeline = {Checkpoint{.label = "bootstrap"}, LookupLoad{.count = 64},
                 AwaitRequestsDrained{.label = "load-drain"}};
  ScenarioParams params;
  params.seed = 3;
  sc.requests.mono_ledger_cap = 16;
  const auto capped = run_scenario(sc, params);
  ASSERT_TRUE(capped.ok);
  EXPECT_GT(capped.requests.mono_ledger_pruned, 0U);
  EXPECT_EQ(capped.metrics.at("cap.mono_ledger.hits").value,
            static_cast<double>(capped.requests.mono_ledger_pruned));
  sc.requests.mono_ledger_cap = 0;
  const auto uncapped = run_scenario(sc, params);
  ASSERT_TRUE(uncapped.ok);
  EXPECT_EQ(uncapped.metrics.at("cap.mono_ledger.hits").value, 0.0);
  EXPECT_EQ(uncapped.requests.fingerprint, capped.requests.fingerprint);
}

}  // namespace
}  // namespace rechord::sim
