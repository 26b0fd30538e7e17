// Observability layer (DESIGN.md §11): metrics-registry
// counter/gauge/histogram semantics; the tracer's ring
// buffer, JSONL golden (the schema pin -- one event of every kind) and
// Chrome export; the profiler's phase attribution; and the hard determinism
// contract -- enabling the profiler and the tracer changes not one outcome
// bit for any registered scenario across {active, full-scan} x {1, 8}
// threads, and the JSONL trace is byte-identical across thread counts
// within a scheduler mode. A request's full hop trace must reconstruct from
// the JSONL text alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario.hpp"
#include "util/metrics_registry.hpp"
#include "util/profiler.hpp"
#include "util/trace.hpp"

namespace rechord {
namespace {

using util::MetricKind;
using util::MetricsRegistry;
using util::Phase;
using util::TraceEvent;
using util::TraceKind;
using util::Tracer;

/// The profiler and tracer are process-wide; every test that arms them
/// restores the disabled-and-empty default even on assertion failure.
struct ObsSingletonGuard {
  ObsSingletonGuard() { restore(); }
  ~ObsSingletonGuard() { restore(); }
  static void restore() {
    util::Profiler::instance().set_enabled(false);
    util::Profiler::instance().reset();
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

// -- metrics registry --------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistogramsSnapshot) {
  MetricsRegistry reg;
  reg.counter_add("c.add", 3);
  reg.counter_add("c.add", 4);
  reg.counter_set("c.set", 9);
  reg.counter_set("c.set", 2);  // set overwrites
  reg.gauge_set("g", 2.5);
  reg.gauge_set("g", -1.25);  // last write wins
  for (int i = 1; i <= 4; ++i) reg.observe("h", static_cast<double>(i));

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4U);
  EXPECT_EQ(snap.at("c.add").kind, MetricKind::kCounter);
  EXPECT_EQ(snap.at("c.add").value, 7.0);
  EXPECT_EQ(snap.at("c.set").kind, MetricKind::kCounter);
  EXPECT_EQ(snap.at("c.set").value, 2.0);
  EXPECT_EQ(snap.count("missing"), 0U);  // only written names appear
  EXPECT_EQ(snap.at("g").kind, MetricKind::kGauge);
  EXPECT_EQ(snap.at("g").value, -1.25);
  const auto& h = snap.at("h");
  EXPECT_EQ(h.kind, MetricKind::kHistogram);
  EXPECT_EQ(h.value, 4.0);  // sample count
  EXPECT_DOUBLE_EQ(h.mean, 2.5);
  EXPECT_EQ(h.max, 4.0);
  EXPECT_LE(h.p50, h.p99);
  EXPECT_LE(h.p99, h.max);

  // Snapshots iterate name-ordered (std::map) -- printed summaries and CSV
  // readers rely on it.
  std::vector<std::string> names;
  for (const auto& [name, v] : snap) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// A histogram keeps every sample: count and the summary cover the whole
// series, not a window of the newest ones.
TEST(MetricsRegistryTest, HistogramKeepsEverySample) {
  MetricsRegistry reg;
  constexpr std::size_t kSamples = (std::size_t{1} << 14) + 1;
  for (std::size_t i = 0; i < kSamples; ++i)
    reg.observe("h", i == 0 ? 1e6 : 1.0);
  const auto h = reg.snapshot().at("h");
  EXPECT_EQ(h.value, static_cast<double>(kSamples));
  EXPECT_EQ(h.max, 1e6);  // the first sample still counts
}

// -- tracer ------------------------------------------------------------------

// One event of EVERY TraceKind, rendered against a golden. This test IS the
// JSONL schema: adding a kind (the kCount check below) or renaming a field
// must update the golden here and the consumers documented in DESIGN.md §11.
TEST(TracerTest, JsonlGoldenPinsTheSchemaForEveryKind) {
  ASSERT_EQ(static_cast<std::size_t>(TraceKind::kCount), 18U)
      << "new TraceKind: extend the golden below";
  Tracer tr;
  tr.note({1, 0, 10, 2, 3, 1, TraceKind::kRound});
  tr.note({2, 0, 9, 12, 0, 0, TraceKind::kStormEnter});
  tr.note({3, 0, 2, 12, 0, 0, TraceKind::kStormExit});
  tr.note({4, 7, 0, 0, 0, 0, TraceKind::kDeferredEvict});
  tr.note({5, 7, 3, 0, 0, 0, TraceKind::kBoundaryInject});
  tr.note({6, 0, 50000, 0, 0, 0, TraceKind::kSetLoss});
  tr.note({7, 0, 25000, 0, 0, 0, TraceKind::kSetSleep});
  tr.note({8, 0, 20, 12, 0, 0, TraceKind::kPartitionBegin});
  tr.note({9, 0, 0, 0, 0, 0, TraceKind::kPartitionEnd});
  tr.note({10, 0, 4, 0, 0, 0, TraceKind::kSetLatency});
  tr.note({11, 0, 4, 0, 0, 0, TraceKind::kAssignDcs});
  tr.note({12, 42, 1, 777, 5, 0, TraceKind::kReqIssue});
  tr.note({13, 42, 5, 6, 2, 1, TraceKind::kReqLaunch});
  tr.note({14, 42, 6, 1, 0, 0, TraceKind::kReqDeliver});
  tr.note({15, 42, 6, 8, 3, 0, TraceKind::kReqBounce});
  tr.note({16, 42, 6, 5, 0, 0, TraceKind::kReqFailover});
  tr.note({17, 42, 6, 0, 0, 0, TraceKind::kReqStuck});
  tr.note({18, 42, 0, 9, 2, 6, TraceKind::kReqComplete});

  const std::string golden =
      "{\"round\":1,\"event\":\"round\",\"active\":10,\"replayed\":2,"
      "\"skipped\":3,\"boundary\":1}\n"
      "{\"round\":2,\"event\":\"storm-enter\",\"woken\":9,\"live\":12}\n"
      "{\"round\":3,\"event\":\"storm-exit\",\"woken\":2,\"live\":12}\n"
      "{\"round\":4,\"event\":\"deferred-evict\",\"owner\":7}\n"
      "{\"round\":5,\"event\":\"boundary-inject\",\"owner\":7,\"frontier\":3}\n"
      "{\"round\":6,\"event\":\"set-loss\",\"p_ppm\":50000}\n"
      "{\"round\":7,\"event\":\"set-sleep\",\"p_ppm\":25000}\n"
      "{\"round\":8,\"event\":\"partition-begin\",\"side0\":20,\"side1\":12}\n"
      "{\"round\":9,\"event\":\"partition-end\"}\n"
      "{\"round\":10,\"event\":\"set-latency\",\"dcs\":4}\n"
      "{\"round\":11,\"event\":\"assign-dcs\",\"dcs\":4}\n"
      "{\"round\":12,\"event\":\"req-issue\",\"req\":42,\"kind\":1,"
      "\"key\":777,\"origin\":5}\n"
      "{\"round\":13,\"event\":\"req-launch\",\"req\":42,\"from\":5,"
      "\"to\":6,\"delay\":2,\"attempt\":1}\n"
      "{\"round\":14,\"event\":\"req-deliver\",\"req\":42,\"custody\":6,"
      "\"hops\":1}\n"
      "{\"round\":15,\"event\":\"req-bounce\",\"req\":42,\"at\":6,"
      "\"blocked\":8,\"cause\":3}\n"
      "{\"round\":16,\"event\":\"req-failover\",\"req\":42,\"from\":6,"
      "\"to\":5}\n"
      "{\"round\":17,\"event\":\"req-stuck\",\"req\":42,\"at\":6}\n"
      "{\"round\":18,\"event\":\"req-complete\",\"req\":42,\"status\":0,"
      "\"result\":9,\"hops\":2,\"rounds\":6}\n";
  std::ostringstream os;
  tr.write_jsonl(os);
  EXPECT_EQ(os.str(), golden);
}

TEST(TracerTest, RingOverwritesOldestAndCountsEverything) {
  Tracer tr;
  tr.set_capacity(4);
  for (std::uint64_t r = 0; r < 10; ++r)
    tr.note({r, 0, 0, 0, 0, 0, TraceKind::kPartitionEnd});
  EXPECT_EQ(tr.size(), 4U);
  EXPECT_EQ(tr.recorded(), 10U);
  EXPECT_EQ(tr.overwritten(), 6U);
  std::vector<std::uint64_t> rounds;
  tr.for_each([&](const TraceEvent& e) { rounds.push_back(e.round); });
  EXPECT_EQ(rounds, (std::vector<std::uint64_t>{6, 7, 8, 9}));
  tr.clear();
  EXPECT_EQ(tr.size(), 0U);
  EXPECT_EQ(tr.recorded(), 0U);
  EXPECT_EQ(tr.overwritten(), 0U);
}

TEST(TracerTest, NoteAllDrainsAndClearsTheShardBuffer) {
  Tracer tr;
  std::vector<TraceEvent> shard{{1, 5, 0, 0, 0, 0, TraceKind::kReqStuck},
                                {1, 6, 0, 0, 0, 0, TraceKind::kReqStuck}};
  tr.note_all(shard);
  EXPECT_TRUE(shard.empty());
  EXPECT_EQ(tr.size(), 2U);
}

TEST(TracerTest, ChromeExportUsesAsyncRequestSpansOnRoundTimestamps) {
  Tracer tr;
  tr.note({3, 42, 1, 777, 5, 0, TraceKind::kReqIssue});
  tr.note({4, 42, 5, 6, 0, 1, TraceKind::kReqLaunch});
  tr.note({5, 42, 0, 9, 1, 2, TraceKind::kReqComplete});
  tr.note({6, 0, 10, 0, 0, 0, TraceKind::kRound});
  std::ostringstream os;
  tr.write_chrome(os);
  const std::string out = os.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.substr(out.size() - 2), "]\n");
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"b\""), std::string::npos);  // issue opens
  EXPECT_NE(out.find("\"ph\":\"e\""), std::string::npos);  // complete closes
  EXPECT_NE(out.find("\"ph\":\"n\""), std::string::npos);  // hop instants
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // engine instants
  EXPECT_NE(out.find("\"ts\":3"), std::string::npos);      // round timestamps
}

// -- profiler ----------------------------------------------------------------

TEST(ProfilerTest, ScopedPhaseRecordsOnlyWhenEnabled) {
  const ObsSingletonGuard guard;
  auto& prof = util::Profiler::instance();
  { util::ScopedPhase off(Phase::kCommit); }
  EXPECT_TRUE(prof.snapshot().empty());
  prof.set_enabled(true);
  { util::ScopedPhase on(Phase::kCommit); }
  prof.set_enabled(false);
  const auto snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1U);
  EXPECT_EQ(snap[0].first, Phase::kCommit);
  EXPECT_EQ(snap[0].second.count, 1U);
}

// The p50/p99 sample ring is a cap: the sample it overwrites is counted.
TEST(ProfilerTest, CountsSamplesDroppedFromTheFullRing) {
  const ObsSingletonGuard guard;
  auto& prof = util::Profiler::instance();
  for (std::size_t i = 0; i <= util::Profiler::kSampleCap; ++i)
    prof.record(Phase::kCommit, 1000 + i);
  auto snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1U);
  EXPECT_EQ(snap[0].second.count, util::Profiler::kSampleCap + 1);
  EXPECT_EQ(snap[0].second.samples_dropped, 1U);
  EXPECT_EQ(snap[0].second.max_ns, 1000 + util::Profiler::kSampleCap);
  prof.reset();
  prof.record(Phase::kCommit, 1);
  snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1U);
  EXPECT_EQ(snap[0].second.samples_dropped, 0U);
}

TEST(ProfilerTest, AttributesTheRoundPipelineToNamedPhases) {
  const ObsSingletonGuard guard;
  auto& prof = util::Profiler::instance();
  prof.set_enabled(true);
  sim::ScenarioParams params;
  params.n = 48;
  params.seed = 1;
  const auto out = sim::run_registered_scenario("flash-crowd", params);
  prof.set_enabled(false);
  EXPECT_TRUE(out.ok);

  const auto snap = prof.snapshot();
  std::map<Phase, util::PhaseStats> by_phase(snap.begin(), snap.end());
  ASSERT_TRUE(by_phase.count(Phase::kStepTotal));
  ASSERT_TRUE(by_phase.count(Phase::kRulePhase));
  ASSERT_TRUE(by_phase.count(Phase::kCommit));
  EXPECT_GE(by_phase[Phase::kStepTotal].count, out.total_rounds);
  for (const auto& [phase, st] : snap) {
    EXPECT_GT(st.count, 0U) << util::phase_name(phase);
    EXPECT_LE(st.p50_ns, st.p99_ns) << util::phase_name(phase);
    EXPECT_LE(st.p99_ns, static_cast<double>(st.max_ns))
        << util::phase_name(phase);
    EXPECT_GE(st.total_ns, st.max_ns) << util::phase_name(phase);
  }
  // The named sub-phases must cover the round pipeline (the acceptance bar
  // is 95% at scale; tiny runs carry more scaffolding overhead per round).
  EXPECT_GT(prof.attributed_fraction(), 0.5);
  EXPECT_LT(prof.attributed_fraction(), 1.05);

  std::ostringstream csv;
  prof.write_csv(csv);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "phase,count,total_ns,mean_ns,p50_ns,p99_ns,max_ns");

  prof.reset();
  EXPECT_TRUE(prof.snapshot().empty());
}

// -- determinism contract ----------------------------------------------------

/// Fields that must be bit-identical between a flags-off and a flags-on run.
void expect_same_outcome(const sim::ScenarioOutcome& ref,
                         const sim::ScenarioOutcome& obs,
                         const std::string& label) {
  ASSERT_EQ(obs.total_rounds, ref.total_rounds) << label;
  ASSERT_EQ(obs.final_fingerprint, ref.final_fingerprint) << label;
  ASSERT_EQ(obs.ok, ref.ok) << label;
  ASSERT_EQ(obs.checkpoints.size(), ref.checkpoints.size()) << label;
  for (std::size_t c = 0; c < ref.checkpoints.size(); ++c) {
    ASSERT_EQ(obs.checkpoints[c].rounds, ref.checkpoints[c].rounds)
        << label << " checkpoint " << c;
    ASSERT_EQ(obs.checkpoints[c].rounds_almost,
              ref.checkpoints[c].rounds_almost)
        << label << " checkpoint " << c;
    ASSERT_EQ(obs.checkpoints[c].fingerprint, ref.checkpoints[c].fingerprint)
        << label << " checkpoint " << c;
    ASSERT_EQ(obs.checkpoints[c].passed, ref.checkpoints[c].passed)
        << label << " checkpoint " << c;
  }
  EXPECT_EQ(obs.messages_dropped, ref.messages_dropped) << label;
  EXPECT_EQ(obs.partition_dropped, ref.partition_dropped) << label;
  EXPECT_EQ(obs.requests.issued, ref.requests.issued) << label;
  EXPECT_EQ(obs.requests.fingerprint, ref.requests.fingerprint) << label;
  EXPECT_EQ(obs.live_peer_rounds, ref.live_peer_rounds) << label;
  EXPECT_EQ(obs.replayed_peer_rounds, ref.replayed_peer_rounds) << label;
  EXPECT_EQ(obs.skipped_peer_rounds, ref.skipped_peer_rounds) << label;
  EXPECT_EQ(obs.certified_rounds, ref.certified_rounds) << label;
}

// The tentpole contract: arming the profiler AND the tracer leaves every
// registered scenario's outcome bit-identical across {active, full-scan} x
// {1, 8 threads}. One flags-off reference per scheduler mode (the
// scheduler-work split legitimately differs between modes; everything else
// is already mode-invariant per test_scenario). The active-mode runs must
// include certified quiescent rounds (DESIGN.md §6.7), so the contract
// covers the certificate's short-circuit too.
TEST(ObservabilityDeterminism, FlagsOnBitIdenticalForEveryScenario) {
  const ObsSingletonGuard guard;
  std::uint64_t certified = 0;
  for (const auto& info : sim::scenario_registry()) {
    sim::ScenarioParams base;
    base.n = 70;
    base.seed = 7;
    base.ops = 3;
    for (const bool full_scan : {false, true}) {
      sim::ScenarioParams ref_params = base;
      ref_params.engine.full_scan = full_scan;
      ObsSingletonGuard::restore();  // flags off for the reference
      const auto ref = sim::run_registered_scenario(info.name, ref_params);
      EXPECT_TRUE(ref.ok) << info.name;
      if (full_scan) {
        EXPECT_EQ(ref.certified_rounds, 0U) << info.name;
      }
      certified += ref.certified_rounds;
      for (const unsigned threads : {1U, 8U}) {
        sim::ScenarioParams params = ref_params;
        params.engine.threads = threads;
        util::Profiler::instance().set_enabled(true);
        Tracer::instance().set_enabled(true);
        Tracer::instance().clear();
        const auto obs = sim::run_registered_scenario(info.name, params);
        EXPECT_GT(Tracer::instance().recorded(), 0U) << info.name;
        ObsSingletonGuard::restore();
        expect_same_outcome(ref, obs,
                            info.name + (full_scan ? "/full" : "/active") +
                                "/t" + std::to_string(threads));
      }
    }
  }
  EXPECT_GT(certified, 0U);
}

// A certified round is observed exactly like the all-skipped round it
// stands for: the observer sees it, it emits its kRound event, and its time
// lands in kFixpoint, so every step is attributed to a named phase.
TEST(ObservabilityDeterminism, CertifiedRoundsAreTracedTimedAndObserved) {
  const ObsSingletonGuard guard;
  sim::ScenarioParams params;
  params.n = 48;
  params.seed = 1;
  const auto ref = sim::run_registered_scenario("open-loop-lookups", params);
  ASSERT_GT(ref.certified_rounds, 0U);
  util::Profiler::instance().set_enabled(true);
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  const auto obs = sim::run_registered_scenario("open-loop-lookups", params);
  util::Profiler::instance().set_enabled(false);
  Tracer::instance().set_enabled(false);
  expect_same_outcome(ref, obs, "open-loop-lookups");
  ASSERT_EQ(Tracer::instance().overwritten(), 0U);
  std::uint64_t round_events = 0;
  Tracer::instance().for_each([&](const TraceEvent& e) {
    if (e.kind == TraceKind::kRound) ++round_events;
  });
  EXPECT_EQ(round_events, obs.total_rounds);
  const auto snap = util::Profiler::instance().snapshot();
  const std::map<Phase, util::PhaseStats> by_phase(snap.begin(), snap.end());
  ASSERT_TRUE(by_phase.count(Phase::kStepTotal));
  ASSERT_TRUE(by_phase.count(Phase::kFixpoint));
  EXPECT_EQ(by_phase.at(Phase::kFixpoint).count,
            by_phase.at(Phase::kStepTotal).count);
  EXPECT_GT(by_phase.at(Phase::kStepTotal).count,
            by_phase.at(Phase::kRulePhase).count);
}

// Trace CONTENT is deterministic state only, and parallel sections drain
// per-shard buffers shard-major in the serial merge -- so the JSONL text is
// byte-identical across thread counts within a scheduler mode. (Across
// modes the round/storm events legitimately differ: the full scan never
// skips.)
TEST(ObservabilityDeterminism, JsonlByteIdenticalAcrossThreadCounts) {
  const ObsSingletonGuard guard;
  for (const bool full_scan : {false, true}) {
    std::array<std::string, 2> dumps;
    std::size_t i = 0;
    for (const unsigned threads : {1U, 8U}) {
      sim::ScenarioParams params;
      params.n = 48;
      params.seed = 1;
      params.engine.threads = threads;
      params.engine.full_scan = full_scan;
      Tracer::instance().set_enabled(true);
      Tracer::instance().clear();
      const auto out = sim::run_registered_scenario(
          "lookups-under-poisson-churn", params);
      EXPECT_TRUE(out.ok);
      std::ostringstream os;
      Tracer::instance().write_jsonl(os);
      dumps[i++] = os.str();
      ObsSingletonGuard::restore();
    }
    EXPECT_FALSE(dumps[0].empty());
    EXPECT_EQ(dumps[0], dumps[1])
        << (full_scan ? "full-scan" : "active") << " mode";
  }
}

// -- hop-trace reconstruction from the JSONL text alone ----------------------

std::string json_field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto p = line.find(pat);
  if (p == std::string::npos) return {};
  const auto v = p + pat.size();
  const auto e = line.find_first_of(",}", v);
  return line.substr(v, e - v);
}

TEST(ObservabilityTrace, RequestHopTracesReconstructFromJsonlAlone) {
  const ObsSingletonGuard guard;
  sim::ScenarioParams params;
  params.n = 48;
  params.seed = 1;
  Tracer::instance().set_enabled(true);
  Tracer::instance().clear();
  const auto out =
      sim::run_registered_scenario("lookups-under-poisson-churn", params);
  EXPECT_TRUE(out.ok);
  std::ostringstream os;
  Tracer::instance().write_jsonl(os);
  ObsSingletonGuard::restore();

  std::set<std::string> known;
  for (std::size_t k = 0; k < static_cast<std::size_t>(TraceKind::kCount);
       ++k)
    known.insert(
        std::string(1, '"') +
        util::trace_kind_name(static_cast<TraceKind>(k)) + '"');

  struct Hop {
    std::string event;
    std::uint64_t round;
  };
  std::map<std::string, std::vector<Hop>> by_req;
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const std::string event = json_field(line, "event");
    ASSERT_FALSE(json_field(line, "round").empty()) << line;
    ASSERT_TRUE(known.count(event)) << line;
    const std::string req = json_field(line, "req");
    if (!req.empty())
      by_req[req].push_back(
          {event, std::stoull(json_field(line, "round"))});
  }
  EXPECT_GT(lines, 0U);
  ASSERT_FALSE(by_req.empty());

  // Every request that completed reconstructs as issue -> hops -> complete
  // with nondecreasing rounds; its issue line carries key and origin, and
  // its launches carry from/to custody -- the full journey, JSONL only.
  std::size_t completed = 0, launched = 0;
  for (const auto& [req, hops] : by_req) {
    EXPECT_EQ(hops.front().event, "\"req-issue\"") << "req " << req;
    for (std::size_t i = 1; i < hops.size(); ++i) {
      EXPECT_GE(hops[i].round, hops[i - 1].round) << "req " << req;
      EXPECT_NE(hops[i].event, "\"req-issue\"") << "req " << req;
    }
    const bool done = hops.back().event == "\"req-complete\"";
    completed += done;
    for (const auto& h : hops) launched += h.event == "\"req-launch\"";
  }
  EXPECT_EQ(completed, by_req.size());  // the final wave drains everything
  EXPECT_EQ(static_cast<std::uint64_t>(by_req.size()), out.requests.issued);
  EXPECT_GT(launched, 0U);
}

// -- end-of-run metrics snapshot ---------------------------------------------

TEST(ObservabilityMetrics, ScenarioOutcomeCarriesTheRegistrySnapshot) {
  sim::ScenarioParams params;
  params.n = 48;
  params.seed = 1;
  const auto out =
      sim::run_registered_scenario("lookups-under-poisson-churn", params);
  EXPECT_TRUE(out.ok);
  ASSERT_TRUE(out.metrics.count("engine.rounds"));
  EXPECT_EQ(out.metrics.at("engine.rounds").value,
            static_cast<double>(out.total_rounds));
  ASSERT_TRUE(out.metrics.count("req.issued"));
  EXPECT_EQ(out.metrics.at("req.issued").value,
            static_cast<double>(out.requests.issued));
  ASSERT_TRUE(out.metrics.count("req.resolved"));
  EXPECT_EQ(out.metrics.at("req.resolved").value,
            static_cast<double>(out.requests.resolved));
  ASSERT_TRUE(out.metrics.count("sched.live_peer_rounds"));
  EXPECT_EQ(out.metrics.at("sched.live_peer_rounds").value,
            static_cast<double>(out.live_peer_rounds));
  ASSERT_TRUE(out.metrics.count("cap.profiler_samples.hits"));
  EXPECT_EQ(out.metrics.at("cap.profiler_samples.hits").value, 0.0);
  ASSERT_TRUE(out.metrics.count("sched.active_per_round"));
  EXPECT_EQ(out.metrics.at("sched.active_per_round").kind,
            MetricKind::kHistogram);
  EXPECT_EQ(out.metrics.at("sched.active_per_round").value,
            static_cast<double>(out.total_rounds));
}

}  // namespace
}  // namespace rechord
