// The engine's own cost on one fixed grid: no flags, seed 1, engines on 2
// threads unless a cell says otherwise. Sections, in output order:
//   steady      the materialized fixpoint at n in {1k, 10k}: 30 certified
//               active-set rounds, then 30 uncertified all-skipped rounds
//               (the certificate voided before each), against 3 full-scan
//               rounds, each engine after a warm-up
//   crash       n=10k, k in {1, 10, 100} crashed peers, then 12 recovery
//               rounds on the active set
//   tail        a random connected start at n=1000 run to the exact fixpoint
//   throughput  open-loop lookups at n=20k, 400 req/round, 80% to 32 hot
//               keys, 30 warm-up + 60 measured rounds, on 1 and 2 threads
//   verify      open-loop at n=2000, 60 req/round, 5 + 15 rounds, on
//               {active set, full scan} x {1, 2} threads
//   latency     128 lookups at n=1000 under the sync, wan and spike delay
//               models, with 0 or 1 churn events per round
//   memory      (inside steady) the active engine's memory by part at each
//               fixpoint after the recording step: network per-slot and
//               per-owner arrays, edge sets, reader index, the recording
//               cache by field, the op-sender index and the round scratch;
//               each throughput cell adds its ledger's bytes
//
// stdout gets every exact counter as bench::BenchJson lines, plus any FAIL:
// line. It is committed as tests/golden/perf.jsonl and the Release ctest
// `perf_golden` diffs a fresh run against it; the memory lines there count
// elements x element size, which the simulated state alone decides. stderr
// gets every wall-clock value (ns/round, speedup, req/s, ms) and the
// allocator-dependent memory values (capacities, the process's VmHWM); it
// is reported, never diffed.
// Exits 1 if a gate trips:
//   - a materialized fixpoint changes, or the full scan is less than 3x
//     slower per round than the certified or the uncertified active-set
//     round at some n;
//   - the tail misses the exact fixpoint within 20n+1000 rounds;
//   - a throughput window is unsteady (completions below 95% of arrivals),
//     its p99 rounds in flight exceeds 48, or 1 and 2 threads disagree;
//   - a request drain hits its round guard, or the verify cells disagree.

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/churn.hpp"
#include "core/engine.hpp"
#include "core/spec.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace rechord;

namespace {

constexpr std::uint64_t kSeed = 1;
constexpr unsigned kThreads = 2;
constexpr double kMinSpeedup = 3.0;  // full scan over active set, steady
constexpr std::uint64_t kP99Rounds = 48;

using Params = bench::BenchJson::Params;
bench::BenchJson exact(std::cout);  // deterministic counters: the golden
bench::BenchJson wall(std::cerr);   // wall-clock: reported, not gated
bool all_ok = true;

void fail(const std::string& what) {
  std::cout << "FAIL: " << what << '\n';
  all_ok = false;
}

std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "%016" PRIx64, v);
  return b;
}
std::string num(std::uint64_t v) { return bench::jnum(v); }

/// Scheduler work summed over rounds.
struct Work {
  std::uint64_t live = 0, replayed = 0, skipped = 0, boundary = 0;
  void add(const core::RoundMetrics& mt) {
    live += mt.active_peers;
    replayed += mt.replayed_peers;
    skipped += mt.skipped_peers;
    boundary += mt.boundary_peers;
  }
  void record(std::string_view bench, const Params& p) const {
    exact.record(bench, p, "live_peer_rounds", live);
    exact.record(bench, p, "replayed_peer_rounds", replayed);
    exact.record(bench, p, "skipped_peer_rounds", skipped);
    exact.record(bench, p, "boundary_peer_rounds", boundary);
  }
};

/// Untimed warm-up into the steady regime: the baseline build, the all-live
/// cache-recording round and, for the full scan, which never goes quiescent,
/// a third plain round. Returns whether every round left the state as is.
bool warm_up(core::Engine& engine) {
  bool fixed = true;
  for (int w = 0; w < 3; ++w) {
    const auto mt = engine.step();
    fixed &= !mt.changed;
    if (mt.active_peers == 0) break;
  }
  return fixed;
}

struct Timed {
  Work work;
  std::uint64_t certified = 0;  // rounds answered by a quiescence certificate
  double ns_per_round = 0.0;
  bool fixed = true;  // no round changed the state
};

/// With `void_certificate`, each round is preceded by set_message_loss(0.0):
/// it bumps the input epoch and changes nothing else, so a quiescent round
/// takes the uncertified all-skipped path instead of the certificate.
Timed run_rounds(core::Engine& engine, std::size_t rounds,
                 bool void_certificate = false) {
  Timed t;
  const std::uint64_t certified0 = engine.certified_rounds();
  bench::WallTimer timer;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (void_certificate) engine.set_message_loss(0.0);
    const auto mt = engine.step();
    t.fixed &= !mt.changed;
    t.work.add(mt);
  }
  t.ns_per_round = timer.elapsed_ns() / static_cast<double>(rounds);
  t.certified = engine.certified_rounds() - certified0;
  return t;
}

/// Peak resident set of this process so far (VmHWM), in MB; 0 where
/// /proc/self/status is unavailable.
double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
  return 0.0;
}

/// The engine's memory by part (core::Engine::memory_parts) and in total:
/// exact bytes to the golden, capacities and the process's VmHWM to the
/// wall stream.
void record_memory(const core::Engine& engine, std::size_t n) {
  std::uint64_t bytes = 0, reserved = 0;
  for (const core::MemoryPart& part : engine.memory_parts()) {
    const Params p{{"n", num(n)}, {"part", bench::jstr(part.name)}};
    exact.record("memory", p, "bytes", std::uint64_t{part.bytes});
    wall.record("memory", p, "reserved_bytes",
                std::uint64_t{part.reserved_bytes});
    bytes += part.bytes;
    reserved += part.reserved_bytes;
  }
  const Params p{{"n", num(n)}};
  exact.record("memory", p, "bytes", bytes);
  wall.record("memory", p, "reserved_bytes", reserved);
  wall.record("memory", p, "vm_hwm_mb", vm_hwm_mb());
}

/// Returns the full scan's ns/round at this n.
double run_steady(const core::Network& base, std::size_t n) {
  const Params p{{"n", num(n)}};
  exact.record("steady", p, "live_nodes",
               std::uint64_t{base.live_slot_count()});
  exact.record("steady", p, "edges",
               std::uint64_t{base.edge_count(core::EdgeKind::kUnmarked) +
                             base.edge_count(core::EdgeKind::kRing) +
                             base.edge_count(core::EdgeKind::kConnection)});
  core::Engine active(base, {.threads = kThreads});
  bool fixed = warm_up(active);
  const Timed ta = run_rounds(active, 30);
  exact.record("steady", p, "edge_set_bytes",
               std::uint64_t{active.network().edge_set_bytes()});
  record_memory(active, n);
  const Timed tu = run_rounds(active, 30, /*void_certificate=*/true);
  core::Engine full(base, {.threads = kThreads, .full_scan = true});
  fixed &= warm_up(full);
  const Timed tf = run_rounds(full, 3);
  fixed &= ta.fixed && tu.fixed && tf.fixed;
  exact.record("steady", p, "fixpoint_held", std::uint64_t{fixed});
  const Params pa{{"n", num(n)}, {"engine", bench::jstr("active")}};
  const Params pf{{"n", num(n)}, {"engine", bench::jstr("full")}};
  const Params pu{{"n", num(n)}, {"engine", bench::jstr("uncertified")}};
  ta.work.record("steady", pa);
  exact.record("steady", pa, "certified_rounds", ta.certified);
  tf.work.record("steady", pf);
  exact.record("steady", pf, "certified_rounds", tf.certified);
  tu.work.record("steady", pu);
  exact.record("steady", pu, "certified_rounds", tu.certified);
  const double speedup = tf.ns_per_round / ta.ns_per_round;
  const double speedup_uncertified = tf.ns_per_round / tu.ns_per_round;
  wall.record("steady", p, "active_ns_per_round", ta.ns_per_round);
  wall.record("steady", p, "full_ns_per_round", tf.ns_per_round);
  wall.record("steady", p, "speedup", speedup);
  wall.record("steady", p, "uncertified_ns_per_round", tu.ns_per_round);
  wall.record("steady", p, "speedup_uncertified", speedup_uncertified);
  if (!fixed) fail("steady n=" + num(n) + " left the fixpoint");
  if (speedup < kMinSpeedup)
    fail("steady n=" + num(n) + " full/active speedup " +
         bench::jnum(speedup) + " < " + bench::jnum(kMinSpeedup));
  if (speedup_uncertified < kMinSpeedup)
    fail("steady n=" + num(n) + " full/uncertified speedup " +
         bench::jnum(speedup_uncertified) + " < " +
         bench::jnum(kMinSpeedup));
  return tf.ns_per_round;
}

/// Crashes k random peers without a reset (the engine's out-of-band scan
/// picks them up) and runs 12 recovery rounds.
void run_crash(const core::Network& base, std::size_t n, std::size_t k,
               double full_ns) {
  core::Engine engine(base, {.threads = kThreads});
  warm_up(engine);
  util::Rng rng(kSeed ^ 0xC4A5Dull);
  for (std::size_t i = 0; i < k; ++i) {
    const auto owners = engine.network().live_owners();
    core::crash(engine.network(), owners[rng.below(owners.size())]);
  }
  const Timed t = run_rounds(engine, 12);
  const Params p{{"n", num(n)}, {"k", num(k)}};
  t.work.record("crash", p);
  exact.record("crash", p, "fingerprint",
               hex(engine.network().state_fingerprint()));
  wall.record("crash", p, "active_ns_per_round", t.ns_per_round);
  wall.record("crash", p, "speedup_vs_steady_full", full_ns / t.ns_per_round);
}

/// Bring-up from a random connected start to the exact fixpoint; the long
/// tail is the translating chains that the translation closure
/// fast-forwards (DESIGN.md §6.6).
void run_tail(std::size_t n) {
  util::Rng rng(kSeed);
  core::Engine engine(
      gen::make_network(gen::Topology::kRandomConnected, n, rng),
      {.threads = kThreads});
  const std::uint64_t cap = 20 * static_cast<std::uint64_t>(n) + 1000;
  Work work;
  std::uint64_t rounds = 0;
  bool converged = false;
  bench::WallTimer timer;
  for (; rounds < cap; ++rounds) {
    const auto mt = engine.step();
    work.add(mt);
    if (!mt.changed) {
      converged = true;
      break;
    }
  }
  const Params p{{"n", num(n)}};
  exact.record("tail", p, "rounds", rounds);
  work.record("tail", p);
  exact.record("tail", p, "fingerprint",
               hex(engine.network().state_fingerprint()));
  wall.record("tail", p, "ms", timer.elapsed_ns() / 1e6);
  if (!converged) fail("tail n=" + num(n) + " missed the exact fixpoint");
}

/// Open-loop Poisson lookups, 80% of them to a hot set of 32 keys.
struct Load {
  double rate;  // arrivals per round
  std::uint64_t warmup, rounds;
};

struct LoadResult {
  std::uint64_t issued = 0, done = 0, inflight = 0;  // over the window
  std::uint64_t p50 = 0, p99 = 0, max = 0;  // window rounds in flight
  std::uint64_t certified = 0;  // window rounds answered by a certificate
  std::uint64_t ledger = 0;  // mono_ledger_size() at the end of the window
  std::uint64_t ledger_bytes = 0;  // mono_ledger_bytes() at the same point
  double window_ms = 0.0;
  bool drained = false;  // the queue emptied before the drain guard
  std::uint64_t fingerprint = 0;  // after the drain: the whole workload
};

// The arrival schedule is a pure function of (seed, n): the rng never reads
// engine state, so every mode, thread count and scheduler sees the same
// requests and must produce the same fingerprint.
LoadResult run_load(const core::Network& base, std::size_t n,
                    unsigned threads, bool full_scan, const Load& load) {
  core::Engine engine(base, {.threads = threads, .full_scan = full_scan});
  net::RequestOptions ropt;
  ropt.seed = kSeed ^ 0x7412E57ULL ^ n;
  // Bounded memory (DESIGN.md §10); totals and fingerprint stay exact.
  ropt.completion_cap = 4096;
  ropt.mono_ledger_cap = 1ULL << 20;
  net::RequestEngine req(engine, ropt);
  util::Rng rng(kSeed ^ (n * 0x9E3779B97F4A7C15ULL));
  const auto owners = engine.network().live_owners();
  std::vector<std::uint64_t> hot(32);
  for (auto& key : hot) key = rng.next();
  auto draw_key = [&]() -> std::uint64_t {
    const std::uint64_t u = rng.next();
    if (static_cast<double>(u >> 11) * 0x1.0p-53 < 0.8)
      return hot[rng.below(hot.size())];
    return u;
  };
  // The completion ring is capped, so each round's completions are read
  // before the next round can evict them.
  std::vector<std::uint32_t> rif;
  std::uint64_t harvested = 0;
  auto harvest = [&] {
    const auto& comps = req.completions();
    const std::uint64_t dropped = req.completions_dropped();
    harvested = std::max(harvested, dropped);
    for (; harvested < dropped + comps.size(); ++harvested)
      rif.push_back(static_cast<std::uint32_t>(
          comps[harvested - dropped].rounds_in_flight()));
  };
  auto drive = [&](std::uint64_t rounds, bool collect) {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      for (std::size_t k = util::poisson_knuth(rng, load.rate); k > 0; --k)
        req.submit_lookup(draw_key(), owners[rng.below(owners.size())]);
      engine.step();
      req.on_round();
      if (collect) harvest();
    }
  };
  drive(load.warmup, false);
  LoadResult res;
  const std::uint64_t issued0 = req.totals().issued;
  const std::uint64_t done0 = req.totals().completed();
  harvested = req.completions_dropped() + req.completions().size();
  const std::uint64_t certified0 = engine.certified_rounds();
  bench::WallTimer timer;
  drive(load.rounds, true);
  res.window_ms = timer.elapsed_ns() / 1e6;
  res.certified = engine.certified_rounds() - certified0;
  res.ledger = req.mono_ledger_size();
  res.ledger_bytes = req.mono_ledger_bytes();
  res.issued = req.totals().issued - issued0;
  res.done = req.totals().completed() - done0;
  res.inflight = req.inflight();
  if (!rif.empty()) {
    std::sort(rif.begin(), rif.end());
    res.p50 = rif[(rif.size() - 1) / 2];
    res.p99 = rif[((rif.size() - 1) * 99) / 100];
    res.max = rif.back();
  }
  for (std::uint64_t guard = 0; req.inflight() > 0 && guard < 100000;
       ++guard) {
    engine.step();
    req.on_round();
  }
  res.drained = req.inflight() == 0;
  res.fingerprint = req.fingerprint();
  return res;
}

std::string cell_name(std::string_view bench, std::size_t n, bool full_scan,
                      unsigned threads) {
  return std::string(bench) + " n=" + num(n) +
         (full_scan ? " full" : " active") + "/" + num(threads);
}

void run_throughput(const core::Network& base, std::size_t n) {
  const Load load{400.0, 30, 60};
  std::uint64_t fp1 = 0;
  for (const unsigned threads : {1U, kThreads}) {
    const LoadResult r = run_load(base, n, threads, false, load);
    const std::string name = cell_name("throughput", n, false, threads);
    const Params p{{"n", num(n)}, {"threads", num(threads)}};
    exact.record("throughput", p, "issued_window", r.issued);
    exact.record("throughput", p, "completed_window", r.done);
    exact.record("throughput", p, "end_inflight", r.inflight);
    exact.record("throughput", p, "p50_rounds", r.p50);
    exact.record("throughput", p, "p99_rounds", r.p99);
    exact.record("throughput", p, "max_rounds", r.max);
    exact.record("throughput", p, "fingerprint", hex(r.fingerprint));
    exact.record("throughput", p, "certified_rounds", r.certified);
    exact.record("throughput", p, "mono_ledger_size", r.ledger);
    exact.record("memory", p, "mono_ledger_bytes", r.ledger_bytes);
    wall.record("throughput", p, "req_per_sec",
                static_cast<double>(r.done) / (r.window_ms / 1e3));
    wall.record("throughput", p, "ms_per_round",
                r.window_ms / static_cast<double>(load.rounds));
    // With the pipeline full after the warm-up, a growing queue shows up
    // as completions falling behind arrivals over the window.
    if (static_cast<double>(r.done) < 0.95 * static_cast<double>(r.issued))
      fail(name + " queue is not steady");
    if (r.p99 > kP99Rounds)
      fail(name + " p99 rounds in flight " + num(r.p99) + " > " +
           num(kP99Rounds));
    if (!r.drained) fail(name + " drain hit its round guard");
    if (threads == 1)
      fp1 = r.fingerprint;
    else if (r.fingerprint != fp1)
      fail(name + " fingerprint differs from 1 thread");
  }
}

void run_verify(const core::Network& base, std::size_t n) {
  const Load load{60.0, 5, 15};
  std::uint64_t ref = 0;
  for (const bool full_scan : {false, true})
    for (const unsigned threads : {1U, kThreads}) {
      const LoadResult r = run_load(base, n, threads, full_scan, load);
      const std::string name = cell_name("verify", n, full_scan, threads);
      if (!r.drained) fail(name + " drain hit its round guard");
      if (!full_scan && threads == 1)
        ref = r.fingerprint;
      else if (r.fingerprint != ref)
        fail(name + " fingerprint differs from active/1");
    }
  exact.record("verify", {{"n", num(n)}}, "fingerprint", hex(ref));
}

/// One membership op: a join through a random contact or a crash.
void churn_op(core::Engine& engine, util::Rng& rng) {
  const auto owners = engine.network().live_owners();
  const std::uint32_t pick = owners[rng.below(owners.size())];
  if (rng.below(2) == 0 || owners.size() <= 4)
    engine.join_peer(rng.next(), pick);
  else
    engine.crash_peer(pick);
}

/// A batch of lookups driven until it drains (cap 1000 rounds).
void run_latency(const core::Network& base, std::size_t n) {
  struct Model {
    const char* name;
    bool installed;
    core::DelayClass inter;  // the inter-datacenter delay class
  };
  const Model models[] = {
      {"sync", false, {}},
      {"wan", true, {.base = 2, .jitter = 1}},
      {"spike", true,
       {.base = 1,
        .jitter = 2,
        .kind = core::JitterKind::kSpike,
        .spike_percent = 25}}};
  std::uint64_t cell = 0;
  for (const Model& model : models)
    for (const std::uint64_t churn : {0, 1}) {
      core::Engine engine(base, {.threads = kThreads});
      if (model.installed) {
        std::vector<std::uint8_t> dc(engine.network().owner_count());
        for (std::uint32_t o = 0; o < dc.size(); ++o) dc[o] = o % 2;
        engine.assign_datacenters(std::move(dc));
        engine.set_latency_model(
            core::LatencyModel::uniform(2, model.inter, kSeed ^ 0x1A7EULL));
      }
      net::RequestEngine req(engine, {.seed = kSeed ^ ++cell});
      util::Rng rng(kSeed ^ (cell * 0x9E3779B97F4A7C15ULL));
      const auto owners = engine.network().live_owners();
      for (int i = 0; i < 128; ++i)
        req.submit_lookup(rng.next(), owners[rng.below(owners.size())]);
      bench::WallTimer timer;
      std::uint64_t rounds = 0;
      for (; req.inflight() > 0 && rounds < 1000; ++rounds) {
        for (std::size_t k = churn ? util::poisson_knuth(rng, 1.0) : 0; k > 0;
             --k)
          churn_op(engine, rng);
        engine.step();
        req.on_round();
      }
      std::vector<double> rif;
      for (const auto& rec : req.completions())
        if (rec.status == net::RequestStatus::kResolved)
          rif.push_back(static_cast<double>(rec.rounds_in_flight()));
      const auto s = util::summarize(std::move(rif));
      const auto& tot = req.totals();
      const Params p{{"n", num(n)},
                     {"model", bench::jstr(model.name)},
                     {"churn", num(churn)}};
      exact.record("latency", p, "resolved", tot.resolved);
      exact.record("latency", p, "failed", tot.failed());
      exact.record("latency", p, "mean_hops", tot.mean_hops());
      exact.record("latency", p, "rif_mean", s.mean);
      exact.record("latency", p, "rif_p50", s.p50);
      exact.record("latency", p, "rif_p90", s.p90);
      exact.record("latency", p, "rif_p99", s.p99);
      exact.record("latency", p, "rif_max", s.max);
      exact.record("latency", p, "rounds", rounds);
      wall.record("latency", p, "ms", timer.elapsed_ns() / 1e6);
    }
}

}  // namespace

int main() {
  // One materialized fixpoint per n, copied into every engine that starts
  // from it.
  const core::Network fix1k = core::stable_network(1000, kSeed);
  run_steady(fix1k, 1000);
  {
    const core::Network fix10k = core::stable_network(10000, kSeed);
    const double full_ns = run_steady(fix10k, 10000);
    for (const std::size_t k : {1, 10, 100})
      run_crash(fix10k, 10000, k, full_ns);
  }
  run_tail(1000);
  run_throughput(core::stable_network(20000, kSeed), 20000);
  run_verify(core::stable_network(2000, kSeed), 2000);
  run_latency(fix1k, 1000);
  return all_ok ? 0 : 1;
}
