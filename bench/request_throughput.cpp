// Sustained request throughput of the sharded request engine
// (net/request_engine.hpp, DESIGN.md §10): an open-loop Poisson arrival
// process pours lookups into the materialized fixpoint overlay -- arrivals
// never wait for the outstanding queue -- and the bench measures sustained
// requests/sec over a steady-state window (warmup first, so the pipeline is
// full), NOT rounds-to-completion of a one-shot batch. Per cell it checks
// the open-loop stability condition (drain rate >= arrival rate: completions
// in the window keep up with arrivals) and, per size, that the sharded
// engine on 1 and on T threads, and every {active-set, full-scan} x
// {1, T threads} combination of a shorter verify run, produce bit-identical
// completion fingerprints -- the determinism contract under production
// traffic. Exit code is nonzero if any cell is unsteady, fails to drain
// within its round guard, or any fingerprint diverges, so CI can run a small
// cell as a sanity gate.
//
// Besides sustained req/s, each cell reports the per-request latency SLO
// numbers: p50/p99/max ROUNDS-IN-FLIGHT (completion_round - issue_round)
// over the requests completed inside the steady-state window, harvested
// incrementally from the bounded completion ring. The exit code is gated on
// the steady-state p99 staying within --p99-rounds (open-loop queueing
// explosions show up here long before the 0.95 drain-rate check trips).
//
//   ./bench_request_throughput [--sizes 20000,100000] [--rate R]
//                              [--hot-frac 0.8] [--hot-keys 32]
//                              [--rounds 60] [--warmup 30] [--threads 8]
//                              [--p99-rounds 48] [--seed S] [--no-verify]
//                              [--csv out.csv] [--json out.json] [--profile]
//
// --json OUT writes every cell's measurements as JSON lines
// ({"bench","params","metric","value"} -- see bench::BenchJson) for perf
// tracking; --profile prints the phase-timing table (DESIGN.md §11),
// including the request engine's shard-advance and merge phases, at exit.
//
// --rate 0 (default) scales arrivals with the overlay: max(200, n/50)
// requests per round, which holds tens of thousands of requests in flight
// at n = 100k. Traffic is skewed like production lookups: --hot-frac of
// arrivals target a --hot-keys hot set (0 for uniform keys). Sizes up to
// 1M are supported (--sizes 1000000); there the bring-up of the fixpoint
// overlay and the full-scan verify cells dominate the wall clock (pass
// --no-verify to skip the latter).

#include <algorithm>
#include <cinttypes>

#include "common.hpp"
#include "core/engine.hpp"
#include "net/request_engine.hpp"
#include "util/rng.hpp"

using namespace rechord;

namespace {

struct CellResult {
  std::uint64_t issued_window = 0;
  std::uint64_t completed_window = 0;
  std::uint64_t end_inflight = 0;
  double window_ms = 0.0;
  double rps = 0.0;
  bool steady = false;
  bool drained = false;  // the queue emptied before the drain guard
  std::uint64_t fingerprint = 0;  // after full drain -- cross-cell invariant
  // Rounds-in-flight distribution of the requests completed inside the
  // measured window (the steady-state latency SLO numbers).
  std::uint64_t lat_p50 = 0, lat_p99 = 0, lat_max = 0;
};

// One open-loop cell: warmup rounds fill the pipeline, the measured window
// times sustained completions, then the queue drains fully so the
// fingerprint covers the WHOLE workload (identical arrival schedule per
// (seed, n) regardless of mode/threads/scan -- the rng never reads engine
// state).
struct Traffic {
  double rate = 200.0;       // Poisson arrivals per round
  double hot_frac = 0.8;     // fraction of lookups aimed at the hot set
  std::size_t hot_keys = 32; // size of the hot set (0 = uniform keys only)
};

CellResult run_cell(const core::Network& base, std::size_t n,
                    unsigned threads, bool full_scan,
                    const Traffic& traffic, std::uint64_t warmup,
                    std::uint64_t rounds, std::uint64_t seed) {
  core::EngineOptions eopt;
  eopt.threads = threads;
  eopt.full_scan = full_scan;
  core::Engine engine(base, eopt);
  net::RequestOptions ropt;
  ropt.seed = seed ^ 0x7412E57ULL ^ n;
  // Bounded-memory configuration (DESIGN.md §10): totals and the
  // fingerprint are exact regardless of these caps.
  ropt.completion_cap = 4096;
  ropt.mono_ledger_cap = 1ULL << 20;
  net::RequestEngine req(engine, ropt);
  util::Rng rng(seed ^ (n * 0x9E3779B97F4A7C15ULL));
  const auto owners = engine.network().live_owners();
  // Production lookup traffic is skewed: a small hot set (flash crowds,
  // popular content) receives most of the load. Hot lookups converge onto
  // the same custody owners near the target, which is where batch advance
  // amortizes the per-owner edge scan. The hot set is drawn from the same
  // rng stream, so the whole arrival schedule is a pure function of
  // (seed, n) -- identical across modes, threads and scan schedulers.
  std::vector<std::uint64_t> hot(traffic.hot_keys);
  for (auto& k : hot) k = rng.next();
  auto draw_key = [&]() -> std::uint64_t {
    const std::uint64_t u = rng.next();
    if (!hot.empty() &&
        static_cast<double>(u >> 11) * 0x1.0p-53 < traffic.hot_frac)
      return hot[rng.below(hot.size())];
    return u;
  };
  // Per-request rounds-in-flight, harvested incrementally: the completion
  // ring is capped, so each round's completions must be read before the
  // next round can evict them (completions_dropped() keeps the cursor
  // honest if a burst ever outruns the cap).
  std::vector<std::uint32_t> rif;
  std::uint64_t harvested = 0;
  auto harvest = [&] {
    const auto& comps = req.completions();
    const std::uint64_t base = req.completions_dropped();
    if (harvested < base) harvested = base;
    for (; harvested < base + comps.size(); ++harvested)
      rif.push_back(static_cast<std::uint32_t>(
          comps[harvested - base].rounds_in_flight()));
  };
  auto drive = [&](std::uint64_t r, bool collect) {
    for (std::uint64_t i = 0; i < r; ++i) {
      for (std::size_t k = util::poisson_knuth(rng, traffic.rate); k > 0; --k)
        req.submit_lookup(draw_key(), owners[rng.below(owners.size())]);
      engine.step();
      req.on_round();
      if (collect) harvest();
    }
  };
  drive(warmup, false);
  CellResult res;
  const std::uint64_t issued0 = req.totals().issued;
  const std::uint64_t done0 = req.totals().completed();
  // The window's latency sample starts empty: skip everything the warmup
  // completed.
  harvested = req.completions_dropped() + req.completions().size();
  bench::WallTimer timer;
  drive(rounds, true);
  res.window_ms = timer.elapsed_ns() / 1e6;
  res.issued_window = req.totals().issued - issued0;
  res.completed_window = req.totals().completed() - done0;
  res.end_inflight = req.inflight();
  // Open-loop stability: with the pipeline full after warmup, completions
  // per round must match arrivals per round -- a growing queue shows up as
  // completed << issued over the window.
  res.steady = static_cast<double>(res.completed_window) >=
               0.95 * static_cast<double>(res.issued_window);
  res.rps = res.window_ms > 0.0
                ? static_cast<double>(res.completed_window) /
                      (res.window_ms / 1e3)
                : 0.0;
  if (!rif.empty()) {
    std::sort(rif.begin(), rif.end());
    res.lat_p50 = rif[(rif.size() - 1) / 2];
    res.lat_p99 = rif[((rif.size() - 1) * 99) / 100];
    res.lat_max = rif.back();
  }
  // A drain that hits the guard leaves requests in flight, so its
  // fingerprint covers only part of the workload: the cell fails.
  for (std::uint64_t guard = 0; req.inflight() > 0 && guard < 100000;
       ++guard) {
    engine.step();
    req.on_round();
  }
  res.drained = req.inflight() == 0;
  res.fingerprint = req.fingerprint();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bench::ProfileGuard prof(cli);
  bench::BenchJson json(cli.get("json", ""));
  auto cfg = bench::BenchConfig::from_cli(cli);
  if (!cli.has("sizes")) cfg.sizes = {20000, 100000};
  if (!cli.has("threads")) cfg.threads = 8;
  const double rate_flag = cli.get_double("rate", 0.0);
  const double hot_frac = cli.get_double("hot-frac", 0.8);
  const auto hot_keys =
      static_cast<std::size_t>(cli.get_int("hot-keys", 32));
  const auto rounds = static_cast<std::uint64_t>(cli.get_int("rounds", 60));
  const auto warmup = static_cast<std::uint64_t>(cli.get_int("warmup", 30));
  const bool verify = !cli.get_flag("no-verify");
  // Steady-state latency SLO: the window's p99 rounds-in-flight must stay
  // under this bound in every measured cell, or the exit code is nonzero.
  const auto p99_bound =
      static_cast<std::uint64_t>(cli.get_int("p99-rounds", 48));

  bench::banner(
      "request_throughput -- sustained req/s under open-loop Poisson load",
      "sharded request engine at production traffic volume, DESIGN.md §10");
  util::Table table({"n", "mode", "scan", "threads", "rate/r", "issued",
                     "done", "inflight", "steady", "p50", "p99", "max",
                     "req/s", "ms/round"});
  bool all_ok = true;
  for (const std::size_t n : cfg.sizes) {
    Traffic traffic;
    traffic.rate = rate_flag > 0.0
                       ? rate_flag
                       : std::max(200.0, static_cast<double>(n) / 50.0);
    traffic.hot_frac = hot_frac;
    traffic.hot_keys = hot_keys;
    const core::Network base = bench::stable_network(n, cfg.seed);
    struct Mode {
      const char* name;
      unsigned threads;
    };
    const Mode modes[] = {{"sharded", 1}, {"sharded", cfg.threads}};
    std::vector<CellResult> cells;
    for (const Mode& m : modes)
      cells.push_back(run_cell(base, n, m.threads, /*full_scan=*/false,
                               traffic, warmup, rounds, cfg.seed));
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const CellResult& r = cells[c];
      all_ok = all_ok && r.steady;
      if (!r.drained) {
        std::printf("FAIL: n=%zu %s/%u drain hit the round guard with "
                    "requests still in flight\n",
                    n, modes[c].name, modes[c].threads);
        all_ok = false;
      }
      if (r.lat_p99 > p99_bound) {
        std::printf("FAIL: n=%zu %s/%u window p99 rounds-in-flight %" PRIu64
                    " exceeds bound %" PRIu64 "\n",
                    n, modes[c].name, modes[c].threads, r.lat_p99, p99_bound);
        all_ok = false;
      }
      table.add_row(
          {std::to_string(n), modes[c].name, "active",
           std::to_string(modes[c].threads), util::fixed(traffic.rate, 0),
           std::to_string(r.issued_window), std::to_string(r.completed_window),
           std::to_string(r.end_inflight), r.steady ? "yes" : "NO",
           std::to_string(r.lat_p50), std::to_string(r.lat_p99),
           std::to_string(r.lat_max), util::fixed(r.rps, 0),
           util::fixed(r.window_ms / static_cast<double>(rounds), 2)});

      char fp[24];
      std::snprintf(fp, sizeof fp, "%016" PRIx64, r.fingerprint);
      const bench::BenchJson::Params jp{
          {"n", bench::jnum(static_cast<std::uint64_t>(n))},
          {"mode", bench::jstr(modes[c].name)},
          {"threads", bench::jnum(static_cast<std::uint64_t>(modes[c].threads))},
          {"rate", bench::jnum(traffic.rate)}};
      json.record("request_throughput", jp, "req_per_sec", r.rps);
      json.record("request_throughput", jp, "issued_window", r.issued_window);
      json.record("request_throughput", jp, "completed_window",
                  r.completed_window);
      json.record("request_throughput", jp, "end_inflight", r.end_inflight);
      json.record("request_throughput", jp, "steady",
                  static_cast<std::uint64_t>(r.steady ? 1 : 0));
      json.record("request_throughput", jp, "ms_per_round",
                  r.window_ms / static_cast<double>(rounds));
      json.record("request_throughput", jp, "lat_p50_rounds", r.lat_p50);
      json.record("request_throughput", jp, "lat_p99_rounds", r.lat_p99);
      json.record("request_throughput", jp, "lat_max_rounds", r.lat_max);
      json.record("request_throughput", jp, "fingerprint", std::string(fp));
    }
    // The cells above share one arrival schedule, so their post-drain
    // fingerprints must be bit-identical (the worker count reorders
    // nothing).
    for (std::size_t c = 1; c < cells.size(); ++c)
      if (cells[c].fingerprint != cells[0].fingerprint) {
        std::printf("FAIL: n=%zu %s/%u fingerprint diverged from %s/%u\n",
                    n, modes[c].name, modes[c].threads, modes[0].name,
                    modes[0].threads);
        all_ok = false;
      }
    if (verify) {
      // Short open-loop runs across {active, full-scan} x {1, T threads}:
      // one fingerprint, four schedules. Kept short because the full scan
      // re-runs every peer every round at these sizes.
      const std::uint64_t vwarm = 5, vrounds = 15;
      std::uint64_t ref = 0;
      bool vok = true;
      for (const bool fs : {false, true})
        for (const unsigned t : {1U, cfg.threads}) {
          const CellResult r =
              run_cell(base, n, t, fs, traffic, vwarm, vrounds, cfg.seed);
          if (!r.drained) vok = false;
          if (ref == 0)
            ref = r.fingerprint;
          else if (r.fingerprint != ref)
            vok = false;
        }
      std::printf("n=%zu determinism: fingerprints %s across "
                  "{active,full-scan} x {1,%u} threads (%016" PRIx64 ")\n",
                  n, vok ? "bit-identical" : "DIVERGED", cfg.threads, ref);
      all_ok = all_ok && vok;
      json.record("request_throughput",
                  {{"n", bench::jnum(static_cast<std::uint64_t>(n))}},
                  "determinism_ok", static_cast<std::uint64_t>(vok ? 1 : 0));
    }
  }
  table.print(std::cout);
  if (!cfg.csv_path.empty()) {
    std::ofstream out(cfg.csv_path);
    table.write_csv(out);
    std::printf("(csv written to %s)\n", cfg.csv_path.c_str());
  }
  json.note();
  if (!all_ok) {
    std::printf(
        "FAIL: unsteady queue, partial drain, latency SLO breach or "
        "fingerprint divergence (see above)\n");
    return 1;
  }
  return 0;
}
