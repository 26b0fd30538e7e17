// In-network request engine (net/request_engine.hpp, DESIGN.md §9): on the
// stabilized overlay every hop-by-hop lookup lands on exactly the owner the
// snapshot projection calls responsible; requests genuinely traverse rounds
// (nonzero rounds-in-flight) and pay the latency model per hop; the
// determinism contract holds -- bit-identical request fingerprints across
// {active-set, full-scan} x {1, 8 threads} and under paranoid_replay, for
// the churn, WAN-partition and flash-crowd request scenarios; a request
// parked on a crashed owner re-routes instead of hanging; and the spike
// jitter distribution draws exactly its two support points.

#include "net/request_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "core/convergence.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "ident/hashing.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace rechord::net {
namespace {

core::Engine stable_engine(std::size_t n, std::uint64_t seed,
                           core::EngineOptions opt = {}) {
  util::Rng rng(seed);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng), opt);
  const auto spec = core::StableSpec::compute(engine.network());
  core::RunOptions ropt;
  ropt.max_rounds = 100000;
  const auto r = core::run_to_stable(engine, spec, ropt);
  EXPECT_TRUE(r.stabilized && r.spec_exact);
  return engine;
}

// Ground truth: on the exact fixpoint, hop-by-hop routing must agree with
// the global successor computation of the snapshot projection for every
// request -- and every request must take at least one round and one hop
// bucket of real time.
TEST(RequestEngine, StableOverlayLookupsAgreeWithSnapshotResponsible) {
  core::Engine engine = stable_engine(64, 11);
  RequestEngine req(engine);
  const auto view = dht::RoutingView::snapshot(engine.network());
  util::Rng rng(5);
  const auto owners = engine.network().live_owners();
  std::vector<core::RingPos> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back(rng.next());
    req.submit_lookup(keys.back(), owners[rng.below(owners.size())]);
  }
  int guard = 0;
  while (req.inflight() > 0 && guard++ < 500) {
    engine.step();
    req.on_round();
  }
  ASSERT_EQ(req.inflight(), 0U);
  ASSERT_EQ(req.completions().size(), keys.size());
  for (const RequestRecord& rec : req.completions()) {
    ASSERT_EQ(rec.status, RequestStatus::kResolved) << "id " << rec.id;
    EXPECT_EQ(rec.result_owner, view.responsible(keys[rec.id]))
        << "id " << rec.id;
    EXPECT_GE(rec.rounds_in_flight(), 1U);
    EXPECT_GE(rec.rounds_in_flight(), rec.hops);
  }
  EXPECT_EQ(req.totals().resolved, keys.size());
  EXPECT_EQ(req.totals().mono_violations, 0U);
  // Requests genuinely live in the network: the mean lookup takes several
  // rounds (~log n hops, one round each), not a snapshot's zero.
  EXPECT_GT(req.totals().mean_rounds_in_flight(), 2.0);
}

// With a latency model installed, each hop pays its delay class: the same
// workload takes strictly more rounds in flight, while hops stay put.
TEST(RequestEngine, HopsPayTheDelayMatrix) {
  auto run = [](bool wan) {
    core::Engine engine = stable_engine(48, 13);
    if (wan) {
      std::vector<std::uint8_t> dc(engine.network().owner_count());
      for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
      engine.assign_datacenters(std::move(dc));
      engine.set_latency_model(
          core::LatencyModel::uniform(2, core::DelayClass{2, 1}, 7));
    }
    RequestEngine req(engine);
    util::Rng rng(3);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < 64; ++i)
      req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
    int guard = 0;
    while (req.inflight() > 0 && guard++ < 2000) {
      engine.step();
      req.on_round();
    }
    EXPECT_EQ(req.inflight(), 0U);
    return req.totals();
  };
  const RequestTotals plain = run(false);
  const RequestTotals wan = run(true);
  ASSERT_EQ(plain.resolved, 64U);
  ASSERT_EQ(wan.resolved, 64U);
  // Identical draws, identical paths -- but every cross-dc hop now waits.
  EXPECT_EQ(wan.hops_sum, plain.hops_sum);
  EXPECT_GT(wan.rounds_sum, plain.rounds_sum + plain.resolved);
}

// The determinism contract (satellite): fixed-seed request fingerprints are
// bit-identical across {active, full-scan} x {1, 8 threads} and under
// paranoid_replay, for all three request scenarios.
TEST(RequestEngine, FingerprintsIdenticalAcrossSchedulerModes) {
  for (const char* name :
       {"lookups-under-poisson-churn", "lookups-across-wan-partition-heal",
        "flash-crowd"}) {
    sim::ScenarioParams base;
    base.n = 40;
    base.seed = 9;
    base.ops = 2;
    std::vector<sim::ScenarioOutcome> runs;
    for (const bool full_scan : {false, true})
      for (const unsigned threads : {1U, 8U}) {
        sim::ScenarioParams params = base;
        params.engine.full_scan = full_scan;
        params.engine.threads = threads;
        runs.push_back(sim::run_registered_scenario(name, params));
      }
    {
      sim::ScenarioParams params = base;
      params.engine.paranoid_replay = true;
      runs.push_back(sim::run_registered_scenario(name, params));
    }
    const auto& ref = runs.front();
    EXPECT_TRUE(ref.ok) << name;
    EXPECT_GT(ref.requests.issued, 0U) << name;
    for (std::size_t v = 1; v < runs.size(); ++v) {
      const auto& alt = runs[v];
      ASSERT_EQ(alt.requests.fingerprint, ref.requests.fingerprint)
          << name << " variant " << v;
      ASSERT_EQ(alt.requests.issued, ref.requests.issued) << name;
      ASSERT_EQ(alt.requests.resolved, ref.requests.resolved) << name;
      ASSERT_EQ(alt.requests.failed(), ref.requests.failed()) << name;
      ASSERT_EQ(alt.requests.mono_violations, ref.requests.mono_violations)
          << name;
      ASSERT_EQ(alt.requests.rounds_sum, ref.requests.rounds_sum) << name;
      ASSERT_EQ(alt.final_fingerprint, ref.final_fingerprint) << name;
    }
  }
}

// Acceptance gate: the fixed-seed lookups-under-poisson-churn scenario
// completes >= 95% of its requests, with a genuinely nonzero
// rounds-in-flight distribution, and every checkpoint (including the
// zero-mono-violation stable drain) passes.
TEST(RequestEngine, PoissonChurnScenarioMeetsCompletionBar) {
  sim::ScenarioParams params;
  params.n = 48;
  params.seed = 1;
  const auto out = sim::run_registered_scenario("lookups-under-poisson-churn",
                                                params);
  ASSERT_TRUE(out.ok);
  const auto& rq = out.requests;
  ASSERT_GT(rq.issued, 0U);
  EXPECT_EQ(rq.completed(), rq.issued);  // nothing left hanging
  EXPECT_GE(static_cast<double>(rq.resolved),
            0.95 * static_cast<double>(rq.issued));
  EXPECT_GT(rq.mean_rounds_in_flight(), 1.0);
  EXPECT_GT(rq.max_rounds_in_flight, 2U);
  // The scenario drives all three request kinds: live puts stored records
  // at their reached owners, and the get waves found them.
  EXPECT_GT(rq.puts_stored, 0U);
  EXPECT_GT(rq.gets_found, 0U);
}

// Regression: a request parked on an owner that crashes does not hang -- it
// fails over to its origin, re-routes, and still completes.
TEST(RequestEngine, RequestParkedOnCrashedOwnerReroutes) {
  core::Engine engine = stable_engine(40, 17);
  RequestEngine req(engine);
  util::Rng rng(23);
  const auto owners = engine.network().live_owners();
  // A batch large enough that some request is mid-path when the crash hits.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 32; ++i)
    ids.push_back(
        req.submit_lookup(rng.next(), owners[rng.below(owners.size())]));
  for (int r = 0; r < 2; ++r) {
    engine.step();
    req.on_round();
  }
  // Crash every owner currently holding a request away from its origin.
  std::set<std::uint32_t> victims;
  for (const std::uint64_t id : ids) {
    const auto custody = req.custody_of(id);
    if (custody && engine.network().owner_alive(*custody) &&
        engine.network().alive_owner_count() - victims.size() > 8)
      victims.insert(*custody);
  }
  ASSERT_FALSE(victims.empty());
  for (const std::uint32_t v : victims) engine.crash_peer(v);
  int guard = 0;
  while (req.inflight() > 0 && guard++ < 500) {
    engine.step();
    req.on_round();
  }
  EXPECT_EQ(req.inflight(), 0U) << "requests hung after custody crashes";
  // Dead next-hops were actually observed and re-routed around, or custody
  // failovers fired -- and nothing is allowed to simply hang.
  const auto& tot = req.totals();
  EXPECT_EQ(tot.completed(), tot.issued);
  EXPECT_GT(tot.resolved, 0U);
}

// The spike jitter distribution (satellite): draws take exactly the two
// support points {base, base + jitter}, both occur, and an all-zero spike
// model reproduces the plain pipeline bit for bit round by round.
TEST(RequestLatency, SpikeDistributionHasTwoSupportPoints) {
  const core::DelayClass spike{.base = 1,
                               .jitter = 3,
                               .kind = core::JitterKind::kSpike,
                               .spike_percent = 25};
  core::LatencyModel model(2, {core::DelayClass{}, spike, spike,
                               core::DelayClass{}},
                           /*jitter_seed=*/42);
  std::size_t low = 0, high = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const core::DelayedOp op{core::slot_of(i % 7, 0), core::EdgeKind::kRing,
                             core::slot_of(i % 11, 0)};
    const std::uint32_t d = model.delay(0, 1, i, i * 13, op);
    if (d == 1)
      ++low;
    else if (d == 4)
      ++high;
    else
      FAIL() << "spike draw outside support: " << d;
  }
  EXPECT_GT(low, 0U);
  EXPECT_GT(high, 0U);
  EXPECT_GT(low, high);  // p = 25%: the base point dominates
  // Determinism: the same (round, sender, op) hashes to the same draw.
  const core::DelayedOp op{core::slot_of(1, 0), core::EdgeKind::kRing,
                           core::slot_of(2, 0)};
  EXPECT_EQ(model.delay(0, 1, 5, 6, op), model.delay(0, 1, 5, 6, op));
}

TEST(RequestLatency, ZeroDelaySpikeModelBitIdenticalToPlainPipeline) {
  auto make = [] {
    util::Rng rng(31);
    return core::Engine(
        gen::make_network(gen::Topology::kRandomConnected, 48, rng), {});
  };
  core::Engine plain = make();
  core::Engine modeled = make();
  std::vector<std::uint8_t> dc(modeled.network().owner_count());
  for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
  modeled.assign_datacenters(std::move(dc));
  // Spike KIND with zero base and jitter: structurally a zero-delay model.
  const core::DelayClass zero_spike{.base = 0,
                                    .jitter = 0,
                                    .kind = core::JitterKind::kSpike,
                                    .spike_percent = 50};
  modeled.set_latency_model(
      core::LatencyModel(2, std::vector<core::DelayClass>(4, zero_spike), 31));
  util::Rng churn(37);
  for (int r = 0; r < 40; ++r) {
    if (r > 0 && r % 6 == 0) {
      const auto owners = plain.network().live_owners();
      const std::uint32_t pick = owners[churn.below(owners.size())];
      const core::RingPos id = churn.next();
      core::join(plain.network(), id, pick);
      core::join(modeled.network(), id, pick);
    }
    const auto mp = plain.step();
    const auto mm = modeled.step();
    ASSERT_EQ(modeled.inflight_message_count(), 0U) << "round " << r;
    ASSERT_EQ(mm.changed, mp.changed) << "round " << r;
    ASSERT_EQ(modeled.network().state_fingerprint(),
              plain.network().state_fingerprint())
        << "round " << r;
  }
}

// -- sharded/batched engine (DESIGN.md §10) ----------------------------------

// The open-loop determinism contract (satellite): fixed-seed OPEN-LOOP
// Poisson traffic -- arrivals that never wait for the outstanding queue --
// produces bit-identical request fingerprints across {active, full-scan} x
// {1, 8 threads}, for both open-loop scenarios.
TEST(RequestEngine, OpenLoopPoissonFingerprintsAcrossSchedulerModes) {
  for (const char* name : {"open-loop-lookups", "open-loop-flash-crowd"}) {
    sim::ScenarioParams base;
    base.n = 64;
    base.seed = 21;
    base.ops = 2;
    base.intensity = 6.0;
    std::vector<sim::ScenarioOutcome> runs;
    for (const bool full_scan : {false, true})
      for (const unsigned threads : {1U, 8U}) {
        sim::ScenarioParams params = base;
        params.engine.full_scan = full_scan;
        params.engine.threads = threads;
        runs.push_back(sim::run_registered_scenario(name, params));
      }
    const auto& ref = runs.front();
    EXPECT_TRUE(ref.ok) << name;
    EXPECT_GT(ref.requests.issued, 0U) << name;
    for (std::size_t v = 1; v < runs.size(); ++v) {
      ASSERT_EQ(runs[v].requests.fingerprint, ref.requests.fingerprint)
          << name << " variant " << v;
      ASSERT_EQ(runs[v].requests.issued, ref.requests.issued) << name;
      ASSERT_EQ(runs[v].requests.resolved, ref.requests.resolved) << name;
      ASSERT_EQ(runs[v].requests.mono_violations,
                ref.requests.mono_violations)
          << name;
      ASSERT_EQ(runs[v].final_fingerprint, ref.final_fingerprint) << name;
    }
  }
}

// The naive reference router: the pre-shard per-request walk. A fresh
// owner-id edge scan of the custody owner, then a linear two-pass selection
// that looks up each neighbor's position as it goes; pass 0 (excluding the
// bounced next-hop) runs only when that next-hop is a neighbor.
NextHop naive_next_hop(const core::Network& net, std::uint32_t owner,
                       core::RingPos key, bool settle, std::uint32_t avoid) {
  std::vector<std::uint32_t> nbrs;
  for (std::uint32_t i = 0; i < core::kSlotsPerOwner; ++i) {
    const core::Slot s = core::slot_of(owner, i);
    if (!net.alive(s)) continue;
    for (const core::EdgeKind k :
         {core::EdgeKind::kUnmarked, core::EdgeKind::kRing})
      for (const core::Slot t : net.edges(s, k))
        if (core::is_real_slot(t) && net.alive(t) &&
            core::owner_of(t) != owner)
          nbrs.push_back(core::owner_of(t));
  }
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  if (nbrs.empty()) return {};
  const core::RingPos cur = net.owner_pos(owner);
  const bool avoid_present =
      avoid != kNoOwner && std::binary_search(nbrs.begin(), nbrs.end(), avoid);
  for (int pass = avoid_present ? 0 : 1; pass < 2; ++pass) {
    const bool exclude_avoid = pass == 0;
    std::uint32_t best = kNoOwner, succ = kNoOwner;
    core::RingPos best_d = settle ? ident::cw_dist(key, cur) : 0, succ_d = 0;
    const core::RingPos d_h = ident::cw_dist(cur, key);
    for (const std::uint32_t w : nbrs) {
      if (exclude_avoid && w == avoid) continue;
      const core::RingPos p = net.owner_pos(w);
      if (settle) {
        if (ident::cw_dist(key, p) < best_d) {
          best = w;
          best_d = ident::cw_dist(key, p);
        }
        continue;
      }
      const core::RingPos d_w = ident::cw_dist(cur, p);
      if (d_w == 0) continue;
      if (d_w < d_h) {
        if (best == kNoOwner || d_w > best_d) {
          best = w;
          best_d = d_w;
        }
      } else if (succ == kNoOwner || d_w < succ_d) {
        succ = w;
        succ_d = d_w;
      }
    }
    if (best != kNoOwner) return {NextHop::kHop, best};
    if (succ != kNoOwner) return {NextHop::kSettleHop, succ};
    if (settle && !exclude_avoid) return {NextHop::kResolved, kNoOwner};
  }
  return {};
}

// The cached-row router's decision function against the naive reference,
// decision by decision, on healing topologies: a scrambled start under 5%
// message loss with two crash waves. Every round, for every live owner,
// both phases and several avoid values, the keys probe every boundary the
// rules compare against -- the custody position +-1 and each row member's
// position and its two ring neighbours -- plus random keys.
TEST(RequestEngine, NextHopMatchesNaiveReferenceRouter) {
  std::uint64_t decisions = 0;
  for (const std::uint64_t seed : {29ULL, 101ULL, 777ULL}) {
    util::Rng rng(seed);
    core::Network start =
        gen::make_network(gen::Topology::kRandomConnected, 44, rng);
    gen::scramble_state(start, rng);
    core::Engine engine(std::move(start), {});
    engine.set_message_loss(0.05);
    NbrRow row;
    std::vector<core::RingPos> keys;
    std::vector<std::uint32_t> avoids;
    for (int r = 0; r < 60; ++r) {
      if (r == 12 || r == 30)
        for (int k = 0; k < 3; ++k) {
          const auto live = engine.network().live_owners();
          engine.crash_peer(live[rng.below(live.size())]);
        }
      engine.step();
      const core::Network& net = engine.network();
      for (const std::uint32_t owner : net.live_owners()) {
        build_row(net, owner, row);
        const core::RingPos cur = net.owner_pos(owner);
        keys = {cur + 1, cur - 1, rng.next(), rng.next()};
        avoids = {kNoOwner};
        for (const auto& [pos, w] : row) {
          keys.insert(keys.end(), {pos - 1, pos, pos + 1});
          if (avoids.size() < 5 && rng.below(2) == 0) avoids.push_back(w);
        }
        // A non-neighbour: the first owner id missing from the row.
        for (std::uint32_t o = 0;; ++o)
          if (o != owner && std::none_of(row.begin(), row.end(),
                                         [o](const auto& e) {
                                           return e.second == o;
                                         })) {
            avoids.push_back(o);
            break;
          }
        for (const core::RingPos key : keys)
          for (const bool settle : {false, true})
            for (const std::uint32_t avoid : avoids) {
              const NextHop got = next_hop(row, cur, key, settle, avoid);
              const NextHop want =
                  naive_next_hop(net, owner, key, settle, avoid);
              ASSERT_EQ(got.kind, want.kind)
                  << "seed " << seed << " round " << r << " owner " << owner
                  << " key " << key << " settle " << settle << " avoid "
                  << avoid;
              ASSERT_EQ(got.to, want.to)
                  << "seed " << seed << " round " << r << " owner " << owner
                  << " key " << key << " settle " << settle << " avoid "
                  << avoid;
              ++decisions;
            }
      }
    }
  }
  EXPECT_GE(decisions, 100000U);
}

// Regression (satellite): the shard MERGE order is a function of the data,
// never of the worker count -- runs at 1, 3 and 8 engine threads produce
// the same completion SEQUENCE record for record, not merely equal
// aggregate fingerprints.
TEST(RequestEngine, ShardMergeOrderIndependentOfWorkerCount) {
  std::vector<std::vector<RequestRecord>> sequences;
  for (const unsigned threads : {1U, 3U, 8U}) {
    core::EngineOptions eopt;
    eopt.threads = threads;
    core::Engine engine = stable_engine(40, 37, eopt);
    std::vector<std::uint8_t> dc(engine.network().owner_count());
    for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 3;
    engine.assign_datacenters(std::move(dc));
    engine.set_latency_model(
        core::LatencyModel::uniform(3, core::DelayClass{1, 2}, 9));
    engine.set_message_loss(0.08);
    RequestEngine req(engine);
    util::Rng rng(55);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < 150; ++i)
      req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
    int guard = 0;
    while (req.inflight() > 0 && guard++ < 1000) {
      engine.step();
      req.on_round();
      if (guard == 4) {
        const auto live = engine.network().live_owners();
        engine.crash_peer(live[7]);
        engine.crash_peer(live[23]);
      }
    }
    EXPECT_EQ(req.inflight(), 0U) << threads << " threads";
    sequences.emplace_back(req.completions().begin(),
                           req.completions().end());
  }
  ASSERT_EQ(sequences[0].size(), 150U);
  for (std::size_t v = 1; v < sequences.size(); ++v) {
    ASSERT_EQ(sequences[v].size(), sequences[0].size());
    for (std::size_t i = 0; i < sequences[0].size(); ++i) {
      const RequestRecord& a = sequences[0][i];
      const RequestRecord& b = sequences[v][i];
      ASSERT_EQ(a.id, b.id) << "variant " << v << " record " << i;
      ASSERT_EQ(a.status, b.status) << "record " << i;
      ASSERT_EQ(a.result_owner, b.result_owner) << "record " << i;
      ASSERT_EQ(a.completion_round, b.completion_round) << "record " << i;
      ASSERT_EQ(a.hops, b.hops) << "record " << i;
    }
  }
}

// Bounded record growth (satellite): the completion ring keeps only the cap
// newest records while every aggregate -- counts, sums, the fingerprint --
// stays exactly what the uncapped run produces; the dropped prefix is
// counted.
TEST(RequestEngine, CompletionRingCapKeepsTotalsExact) {
  auto run = [](std::size_t cap) {
    core::Engine engine = stable_engine(40, 41);
    RequestOptions opt;
    opt.completion_cap = cap;
    RequestEngine req(engine, opt);
    util::Rng rng(77);
    const auto owners = engine.network().live_owners();
    for (int i = 0; i < 120; ++i)
      req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
    int guard = 0;
    while (req.inflight() > 0 && guard++ < 500) {
      engine.step();
      req.on_round();
    }
    EXPECT_EQ(req.inflight(), 0U);
    return std::pair{req.totals(),
                     std::pair{req.completions().size(),
                               req.completions_dropped()}};
  };
  const auto [uncapped, unstats] = run(0);
  const auto [capped, stats] = run(16);
  EXPECT_EQ(unstats.first, 120U);
  EXPECT_EQ(unstats.second, 0U);
  EXPECT_EQ(stats.first, 16U);
  EXPECT_EQ(stats.second, 104U);
  // The cap changes RETENTION only: totals and fingerprint are identical.
  EXPECT_EQ(capped.resolved, uncapped.resolved);
  EXPECT_EQ(capped.fingerprint, uncapped.fingerprint);
  EXPECT_EQ(capped.rounds_sum, uncapped.rounds_sum);
  EXPECT_EQ(capped.hops_sum, uncapped.hops_sum);
}

// Bounded ledger growth (satellite): with a mono_ledger_cap the
// searchability ledger prunes its oldest entries down to 3/4 of the cap
// instead of growing per distinct key, and the pruning changes no outcome
// (same fingerprint as the unbounded run -- lookups of fresh random keys
// can never witness a violation).
TEST(RequestEngine, MonoLedgerCapBoundsMemory) {
  auto run = [](std::size_t cap) {
    core::Engine engine = stable_engine(40, 43);
    RequestOptions opt;
    opt.mono_ledger_cap = cap;
    RequestEngine req(engine, opt);
    util::Rng rng(13);
    const auto owners = engine.network().live_owners();
    for (int wave = 0; wave < 4; ++wave) {
      for (int i = 0; i < 50; ++i)
        req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
      int guard = 0;
      while (req.inflight() > 0 && guard++ < 500) {
        engine.step();
        req.on_round();
      }
      EXPECT_EQ(req.inflight(), 0U);
    }
    return std::pair{req.totals(), req.mono_ledger_size()};
  };
  const auto [unbounded, full_size] = run(0);
  const auto [bounded, capped_size] = run(64);
  EXPECT_EQ(full_size, 200U);  // one ledger entry per resolved lookup
  EXPECT_LE(capped_size, 64U);
  EXPECT_GE(capped_size, 48U);  // pruned to 3/4 of the cap, not to zero
  EXPECT_EQ(bounded.mono_violations, 0U);
  EXPECT_EQ(bounded.fingerprint, unbounded.fingerprint);
  EXPECT_EQ(bounded.resolved, unbounded.resolved);
  // The cap counts its hits: every resolved key entered the ledger once, so
  // the keys the prunes dropped are exactly the ones it no longer holds.
  EXPECT_EQ(unbounded.mono_ledger_pruned, 0U);
  EXPECT_GT(bounded.mono_ledger_pruned, 0U);
  EXPECT_EQ(bounded.mono_ledger_pruned, full_size - capped_size);
}

// The flat ledger's contents as an ordered map, the reference model of the
// ledger tests below.
using RefLedger = std::map<core::RingPos, MonoEntry>;

RefLedger as_map(const MonoLedger& ledger) {
  RefLedger out;
  ledger.for_each([&](core::RingPos k, const MonoEntry& e) {
    EXPECT_TRUE(out.emplace(k, e).second) << "key " << k << " stored twice";
  });
  return out;
}

// Same entries, and every entry reachable through find() -- a cell that a
// back-shift stranded before its home shows up here, not in for_each.
void expect_ledger_equals(const MonoLedger& ledger, const RefLedger& want,
                          const std::string& where) {
  ASSERT_EQ(ledger.size(), want.size()) << where;
  const RefLedger got = as_map(ledger);
  ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first &&
                                  a.second.round == b.second.round &&
                                  a.second.owner == b.second.owner;
                         }))
      << where;
  for (const auto& [k, e] : want) {
    const std::optional<MonoEntry> f = ledger.find(k);
    ASSERT_TRUE(f.has_value()) << where << " key " << k;
    ASSERT_EQ(f->round, e.round) << where << " key " << k;
    ASSERT_EQ(f->owner, e.owner) << where << " key " << k;
  }
}

// The ledger eviction against the algorithm it replaced, kept here as the
// reference: materialize every (round, key) pair, select the `drop` smallest
// and erase them. Rounds are drawn over spans that take one and two radix
// passes (the full 32-bit round range among them), with heavy ties (the cut
// falls inside a round's keys) and the edge drops 1, size - 1 and size.
RefLedger reference_prune(RefLedger ledger, std::size_t drop) {
  std::vector<std::pair<std::uint64_t, core::RingPos>> order;
  for (const auto& [k, e] : ledger) order.emplace_back(e.round, k);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < drop && i < order.size(); ++i)
    ledger.erase(order[i].second);
  return ledger;
}

TEST(RequestEngine, MonoLedgerPruneMatchesTheSortReference) {
  util::Rng rng(29);
  std::size_t cases = 0;
  for (const std::uint64_t span :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{3000},
        std::uint64_t{1} << 20, MonoLedger::kMaxRound + 1}) {
    for (const std::size_t size : {1, 2, 50, 700}) {
      RefLedger ref;
      MonoLedger ledger;
      const std::uint64_t base =
          span > MonoLedger::kMaxRound ? 0 : rng.below(std::uint64_t{1} << 31);
      while (ref.size() < size) {
        const core::RingPos key = rng.next();
        const MonoEntry e{base + rng.below(span),
                          static_cast<std::uint32_t>(ref.size())};
        ref[key] = e;
        ledger.put(key, e.round, e.owner);
      }
      for (const std::size_t drop :
           {std::size_t{0}, std::size_t{1}, size / 4, size / 2, size - 1,
            size}) {
        MonoLedger pruned = ledger;
        prune_oldest(pruned, drop);
        const std::string where = "span " + std::to_string(span) + " size " +
                                  std::to_string(size) + " drop " +
                                  std::to_string(drop);
        ASSERT_EQ(pruned.size(), size - drop) << where;
        expect_ledger_equals(pruned, reference_prune(ref, drop), where);
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 5U * 4U * 6U);
}

// The flat ledger against a std::map under long random put / find / prune
// sequences: keys both random and structured (small integers, high-bit
// strides -- clustered homes), rounds advancing slowly so many keys share a
// round, growth across the 3/4 load limit with a prune right after every
// growth, and drops 0, 1, size - 1 and size.
TEST(RequestEngine, MonoLedgerMatchesAMapUnderRandomOps) {
  util::Rng rng(31);
  RefLedger ref;
  MonoLedger ledger;
  EXPECT_EQ(ledger.cells(), 0U);  // no allocation before the first put
  std::vector<core::RingPos> seen;
  std::uint64_t round = 5;
  std::size_t growths = 0, prunes = 0;
  auto draw_key = [&]() -> core::RingPos {
    switch (rng.below(4)) {
      case 0: return rng.below(512);        // small integers
      case 1: return rng.below(512) << 40;  // high-bit strides
      case 2:                               // a key put before
        if (!seen.empty()) return seen[rng.below(seen.size())];
        [[fallthrough]];
      default: return rng.next();
    }
  };
  auto prune = [&](std::size_t drop) {
    prune_oldest(ledger, drop);
    ref = reference_prune(ref, drop);
    ++prunes;
  };
  for (int step = 0; step < 40000; ++step) {
    if (rng.below(8) == 0) ++round;
    // Growth phases (finds and puts only) alternate with prune phases.
    const bool pruning = step % 10000 >= 7000;
    const std::uint64_t op = rng.below(100);
    if (op < 70) {
      const core::RingPos key = draw_key();
      const auto owner = static_cast<std::uint32_t>(rng.below(1000));
      const std::size_t cells = ledger.cells();
      ledger.put(key, round, owner);
      ref[key] = {round, owner};
      seen.push_back(key);
      ASSERT_LE(4 * ledger.size(), 3 * ledger.cells()) << "step " << step;
      if (ledger.cells() != cells) {
        ++growths;
        ASSERT_EQ(ledger.cells(), cells == 0 ? 64U : 2 * cells);
        // A prune right after the growth, over the freshly rehashed cells.
        prune(rng.below(ledger.size() / 4 + 1));
      }
    } else if (op < 95 || !pruning) {
      const core::RingPos key = draw_key();
      const auto it = ref.find(key);
      const std::optional<MonoEntry> got = ledger.find(key);
      ASSERT_EQ(got.has_value(), it != ref.end()) << "step " << step;
      if (got) {
        ASSERT_EQ(got->round, it->second.round);
        ASSERT_EQ(got->owner, it->second.owner);
      }
    } else {
      const std::size_t n = ledger.size();
      const std::size_t picks[] = {0, 1, n > 0 ? n - 1 : 0, n, n / 2,
                                   rng.below(n + 1)};
      // Mostly partial drops; one in 16 is an edge drop (0, 1, size - 1,
      // size).
      prune(rng.below(16) != 0 ? picks[4 + rng.below(2)] / 4
                               : picks[rng.below(4)]);
    }
    if (step % 97 == 0)
      expect_ledger_equals(ledger, ref, "step " + std::to_string(step));
  }
  expect_ledger_equals(ledger, ref, "end");
  EXPECT_GE(growths, 7U);  // 64 -> 4096 cells
  EXPECT_GT(prunes, 300U);
}

// Probe runs that wrap past the last cell, where a back-shift moves entries
// from the first cells into the last ones. The keys are built to land in the
// last and first cells of a 64-cell table under the ledger's Fibonacci hash
// (the multiplier is odd, so it is invertible mod 2^64); under another hash
// they would merely spread out. Every drop from 0 to size, with tied rounds.
TEST(RequestEngine, MonoLedgerPruneHandlesRunsWrappingPastTheLastCell) {
  constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ULL;
  std::uint64_t inv = kPhi;  // Newton: each step doubles the exact low bits
  for (int i = 0; i < 5; ++i) inv *= 2 - kPhi * inv;
  ASSERT_EQ(inv * kPhi, 1U);
  util::Rng rng(47);
  RefLedger ref;
  MonoLedger ledger;
  for (std::uint64_t salt = 0; ref.size() < 44; ++salt) {
    const std::uint64_t home = salt % 4 == 3 ? salt % 3 : 60 + salt % 4;
    const core::RingPos key = ((home << 58) | salt) * inv;
    const MonoEntry e{100 + rng.below(4), static_cast<std::uint32_t>(salt)};
    ref[key] = e;
    ledger.put(key, e.round, e.owner);
  }
  ASSERT_EQ(ledger.cells(), 64U);  // 44 entries stay under the 48 limit
  for (std::size_t drop = 0; drop <= ref.size(); ++drop) {
    MonoLedger pruned = ledger;
    prune_oldest(pruned, drop);
    expect_ledger_equals(pruned, reference_prune(ref, drop),
                         "drop " + std::to_string(drop));
  }
}

// The round is stored in 32 bits: the bound is explicit and checked, never a
// silent truncation.
TEST(RequestEngine, MonoLedgerRejectsRoundsPastTheBound) {
  MonoLedger ledger;
  ledger.put(1, MonoLedger::kMaxRound, 7);
  ASSERT_EQ(ledger.find(1)->round, MonoLedger::kMaxRound);
  EXPECT_THROW(ledger.put(2, MonoLedger::kMaxRound + 1, 7),
               std::overflow_error);
  EXPECT_THROW(ledger.put(1, std::uint64_t{1} << 32, 8), std::overflow_error);
  EXPECT_EQ(ledger.size(), 1U);
  EXPECT_FALSE(ledger.find(2).has_value());
  EXPECT_EQ(ledger.find(1)->owner, 7U);
}

// Sizing: a 2^20-capped ledger plus a round of new keys (2^16 here, far
// above the suite's 400 requests per round) stays in 2^21 16-byte cells.
TEST(RequestEngine, MonoLedgerAtTheCapFitsInTwoToTheTwentyOneCells) {
  MonoLedger ledger;
  util::Rng rng(37);
  while (ledger.size() < (std::size_t{1} << 20) + (std::size_t{1} << 16))
    ledger.put(rng.next(), ledger.size() >> 10, 1);
  EXPECT_EQ(ledger.cells(), std::size_t{1} << 21);
  prune_oldest(ledger, ledger.size() - (std::size_t{3} << 18));
  EXPECT_EQ(ledger.size(), std::size_t{3} << 18);
  EXPECT_EQ(ledger.cells(), std::size_t{1} << 21);  // never shrinks
}

// custody_of scans the slot column: every outstanding id reports its custody,
// a completed id reports nullopt even once a newer request reuses its slot,
// and the reused slot reports the newer request's custody.
TEST(RequestEngine, CustodyOfSurvivesSlotRecycling) {
  core::Engine engine = stable_engine(40, 41);
  RequestEngine req(engine);
  util::Rng rng(43);
  const auto owners = engine.network().live_owners();
  std::vector<std::uint64_t> first;
  std::map<std::uint64_t, std::uint32_t> origin;
  for (int i = 0; i < 24; ++i) {
    const std::uint32_t o = owners[rng.below(owners.size())];
    const std::uint64_t id = req.submit_lookup(rng.next(), o);
    first.push_back(id);
    origin[id] = o;
  }
  for (const std::uint64_t id : first)
    EXPECT_EQ(req.custody_of(id), origin[id]);
  std::set<std::uint64_t> done;
  auto harvest = [&] {
    for (const RequestRecord& r : req.completions()) done.insert(r.id);
  };
  int guard = 0;
  while (done.size() < 4 && guard++ < 200) {
    engine.step();
    req.on_round();
    harvest();
  }
  ASSERT_GE(done.size(), 4U);
  ASSERT_LT(done.size(), first.size()) << "need requests still outstanding";
  std::map<std::uint64_t, std::uint32_t> before;
  for (const std::uint64_t id : first) {
    const auto c = req.custody_of(id);
    ASSERT_EQ(c.has_value(), done.count(id) == 0) << "id " << id;
    if (c) before[id] = *c;
  }
  // As many new requests as slots were freed: each takes a recycled slot
  // (the free list is used before the columns grow). Their origins are
  // picked away from the stale custody those slots still hold.
  std::vector<std::uint64_t> second;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const std::uint32_t o = owners[(i * 7 + 3) % owners.size()];
    const std::uint64_t id = req.submit_lookup(rng.next(), o);
    second.push_back(id);
    origin[id] = o;
  }
  for (const std::uint64_t id : first) {
    if (done.count(id)) {
      EXPECT_FALSE(req.custody_of(id).has_value()) << "completed id " << id;
    } else {
      EXPECT_EQ(req.custody_of(id), before[id]) << "id " << id;
    }
  }
  for (const std::uint64_t id : second)
    EXPECT_EQ(req.custody_of(id), origin[id]);
  guard = 0;
  while (req.inflight() > 0 && guard++ < 500) {
    engine.step();
    req.on_round();
    harvest();
    for (const std::uint64_t id : first)
      ASSERT_EQ(req.custody_of(id).has_value(), done.count(id) == 0);
    for (const std::uint64_t id : second)
      ASSERT_EQ(req.custody_of(id).has_value(), done.count(id) == 0);
  }
  EXPECT_EQ(req.inflight(), 0U);
  EXPECT_EQ(done.size(), first.size() + second.size());
  EXPECT_FALSE(req.custody_of(first.front()).has_value());
  EXPECT_FALSE(req.custody_of(UINT64_MAX).has_value());  // the free sentinel
  EXPECT_FALSE(req.custody_of(1U << 30).has_value());     // never issued
}

// The scenario CSV schema: the header is exactly these 20 columns, every
// row is as wide as it, and round rows carry the request and dc-lag cells.
TEST(RequestEngine, ScenarioCsvCarriesRequestAndDcLagColumns) {
  sim::ScenarioParams params;
  params.n = 40;
  params.seed = 3;
  std::ostringstream csv;
  const auto out = sim::run_registered_scenario(
      "lookups-across-wan-partition-heal", params, &csv);
  ASSERT_TRUE(out.ok);
  std::istringstream in(csv.str());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header,
            "record,event,round,real_nodes,virtual_nodes,unmarked_edges,"
            "ring_edges,connection_edges,active,replayed,skipped,changed,"
            "inflight,req_inflight,req_done,req_failed,mono_violations,"
            "dc_lag_max,checkpoint_rounds,checkpoint_passed");
  const std::size_t columns =
      static_cast<std::size_t>(std::count(header.begin(), header.end(), ',')) +
      1;
  std::string line;
  std::size_t rows = 0;
  bool saw_req_inflight = false, saw_dc_lag = false;
  while (std::getline(in, line)) {
    ASSERT_EQ(static_cast<std::size_t>(
                  std::count(line.begin(), line.end(), ',')) +
                  1,
              columns)
        << line;
    if (line.rfind("round,", 0) != 0) continue;
    ++rows;
    // Columns 13..17 (0-based) are the request/dc-lag cells on round rows.
    std::vector<std::string> cells;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      std::size_t next = line.find(',', pos);
      if (next == std::string::npos) next = line.size();
      cells.push_back(line.substr(pos, next - pos));
      pos = next + 1;
    }
    if (cells[13] != "0" && !cells[13].empty()) saw_req_inflight = true;
    if (cells[17] != "0" && !cells[17].empty()) saw_dc_lag = true;
  }
  EXPECT_EQ(rows, out.total_rounds);
  EXPECT_TRUE(saw_req_inflight);  // requests were genuinely in flight
  EXPECT_TRUE(saw_dc_lag);        // some datacenter lagged during the WAN run
}

}  // namespace
}  // namespace rechord::net
