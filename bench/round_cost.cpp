// Steady-state round cost at scale: ns/round for the active-set scheduler
// vs. the full scan, at n in {1k, 10k, 50k}. The workload is the exact
// fixpoint state materialized from the StableSpec, so every measured round
// is an unchanged round -- the case every long-running scaling/churn
// scenario spends almost all of its time in. Exits 1 if a materialized
// start leaves the fixpoint. A second table measures the rounds right after
// crashing k peers (k in {1, 10, 100}), where the scheduler's cost should
// track the perturbation, not n.
//
// A third table measures the exact-fixpoint CONVERGENCE TAIL (DESIGN.md
// §6.6): from a random connected bring-up state, rounds and total scheduler
// work (live + replayed peer-rounds) until the exact fixpoint under the
// translation closure. Exits 1 if a tail run misses the fixpoint.
//
//   ./bench_round_cost [--sizes 1000,10000,50000] [--rounds 30]
//                      [--full-rounds N] [--threads T]
//                      [--seed S] [--csv out.csv] [--churn-sizes 10000]
//                      [--churn-ks 1,10,100] [--churn-rounds 12]
//                      [--tail-sizes 2000]
//                      [--assert-speedup X]   (exit 1 if active-set is not
//                                              at least X times faster than
//                                              the full scan at every size)
//                      [--json out.json] [--profile]
//
// --json OUT writes every measured value as one JSON object per line
// ({"bench","params","metric","value"} -- see bench::BenchJson) for perf
// tracking; --profile prints the engine phase-timing table (DESIGN.md §11)
// at exit.
//
// --csv OUT writes the steady-state table to OUT and the k-churn recovery
// table to OUT with a `.churn` suffix inserted (foo.csv -> foo.churn.csv),
// both through the shared util::Table::write_csv path.

#include "common.hpp"
#include "core/churn.hpp"
#include "core/engine.hpp"
#include "gen/topologies.hpp"

using namespace rechord;

namespace {

struct Measurement {
  double ns_per_round = 0.0;
  std::size_t edge_bytes = 0;
  bool stayed_fixed = true;
  double mean_active = 0.0;
  double mean_replayed = 0.0;
};

Measurement run_rounds(core::Engine& engine, std::size_t rounds) {
  // Warm up outside the timed section until the engine is in its steady
  // regime: the baseline build, the all-live cache-recording round and (for
  // the full scan, which never goes quiescent) a bounded number of plain
  // rounds.
  Measurement m;
  for (int w = 0; w < 3; ++w) {
    const auto mt = engine.step();
    m.stayed_fixed &= !mt.changed;
    if (mt.active_peers == 0) break;
  }
  bench::WallTimer timer;
  std::size_t active = 0, replayed = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto mt = engine.step();
    m.stayed_fixed &= !mt.changed;
    active += mt.active_peers;
    replayed += mt.replayed_peers;
  }
  m.ns_per_round = timer.elapsed_ns() / static_cast<double>(rounds);
  m.mean_active = static_cast<double>(active) / static_cast<double>(rounds);
  m.mean_replayed =
      static_cast<double>(replayed) / static_cast<double>(rounds);
  m.edge_bytes = engine.network().edge_set_bytes();
  return m;
}

// Crashes k distinct random peers (no reset: the engine's out-of-band scan
// picks the churn up), then measures the mean cost of the next `rounds`
// recovery rounds.
Measurement run_churn(core::Engine& engine, std::size_t k, std::size_t rounds,
                      std::uint64_t seed) {
  // Materialize baseline and caches at the fixpoint (see run_rounds).
  for (int w = 0; w < 3 && engine.step().active_peers > 0; ++w) {
  }
  util::Rng rng(seed ^ 0xC4A5Dull);
  for (std::size_t i = 0; i < k; ++i) {
    const auto owners = engine.network().live_owners();
    core::crash(engine.network(), owners[rng.below(owners.size())]);
  }
  Measurement m;
  bench::WallTimer timer;
  std::size_t active = 0, replayed = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto mt = engine.step();
    active += mt.active_peers;
    replayed += mt.replayed_peers;
  }
  m.ns_per_round = timer.elapsed_ns() / static_cast<double>(rounds);
  m.mean_active = static_cast<double>(active) / static_cast<double>(rounds);
  m.mean_replayed =
      static_cast<double>(replayed) / static_cast<double>(rounds);
  return m;
}

std::string fmt(double v, std::size_t digits = 5) {
  return std::to_string(v).substr(0, digits);
}

// Full bring-up from a random connected state to the EXACT fixpoint,
// accumulating the scheduler work split.
struct TailResult {
  std::uint64_t rounds = 0;
  std::uint64_t live = 0, replayed = 0, skipped = 0;
  double wall_ms = 0.0;
  bool converged = false;
};

TailResult run_tail(std::size_t n, std::uint64_t seed,
                    const core::EngineOptions& opt) {
  util::Rng rng(seed);
  core::Network net =
      gen::make_network(gen::Topology::kRandomConnected, n, rng);
  core::Engine engine(std::move(net), opt);
  TailResult t;
  const std::uint64_t cap = 20 * static_cast<std::uint64_t>(n) + 1000;
  bench::WallTimer timer;
  for (; t.rounds < cap; ++t.rounds) {
    const auto mt = engine.step();
    t.live += mt.active_peers;
    t.replayed += mt.replayed_peers;
    t.skipped += mt.skipped_peers;
    if (!mt.changed) {
      t.converged = true;
      break;
    }
  }
  t.wall_ms = timer.elapsed_ns() / 1e6;
  return t;
}

// foo.csv -> foo.churn.csv (suffix appended when the final path component
// has no extension; dots in directory names are not extensions).
std::string churn_csv_path(const std::string& path) {
  const auto slash = path.rfind('/');
  const auto dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + ".churn";
  return path.substr(0, dot) + ".churn" + path.substr(dot);
}

void write_table_csv(const util::Table& table, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  table.write_csv(out);
  std::printf("(csv written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bench::ProfileGuard prof(cli);
  bench::BenchJson json(cli.get("json", ""));
  bench::banner(
      "round_cost: steady-state ns/round, active-set vs full scan",
      "quiescence-driven scheduler (ISSUE 2) on top of ISSUE 1's overhaul");

  std::vector<std::size_t> sizes;
  for (auto v : cli.get_int_list("sizes", {1000, 10000, 50000}))
    if (v > 0) sizes.push_back(static_cast<std::size_t>(v));
  if (sizes.empty()) {
    std::fprintf(stderr, "error: --sizes needs at least one positive size\n");
    return 2;
  }
  const auto rounds = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("rounds", 30)));
  const auto full_rounds = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("full-rounds", 10)));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double assert_speedup = cli.get_double("assert-speedup", 0.0);
  const core::EngineOptions base_opt = core::engine_options_from_cli(cli);

  util::Table table({"n", "live nodes", "edges", "active ns/round",
                     "full ns/round", "act/full", "edge-set MiB"});
  bool assert_ok = true, fixed_ok = true;
  for (std::size_t n : sizes) {
    core::Network net = bench::stable_network(n, seed);
    const auto nodes = net.live_slot_count();
    const auto edges = net.edge_count(core::EdgeKind::kUnmarked) +
                       net.edge_count(core::EdgeKind::kRing) +
                       net.edge_count(core::EdgeKind::kConnection);

    core::Engine active(net, base_opt);
    const Measurement ma = run_rounds(active, rounds);

    core::EngineOptions full_opt = base_opt;
    full_opt.full_scan = true;
    core::Engine full(std::move(net), full_opt);
    const Measurement mf = run_rounds(full, full_rounds);

    if (!ma.stayed_fixed || !mf.stayed_fixed) {
      std::printf("FAIL: n=%zu did not stay at the fixpoint\n", n);
      fixed_ok = false;
    }

    const double su_full = mf.ns_per_round / ma.ns_per_round;
    if (assert_speedup > 0.0 && su_full < assert_speedup) assert_ok = false;
    const double mib = static_cast<double>(ma.edge_bytes) / (1024.0 * 1024.0);
    table.add_row(
        {std::to_string(n), std::to_string(nodes), std::to_string(edges),
         std::to_string(static_cast<std::int64_t>(ma.ns_per_round)),
         std::to_string(static_cast<std::int64_t>(mf.ns_per_round)),
         fmt(su_full), fmt(mib, 6)});

    const bench::BenchJson::Params jp{
        {"n", bench::jnum(static_cast<std::uint64_t>(n))}};
    json.record("round_cost", jp, "active_ns_per_round", ma.ns_per_round);
    json.record("round_cost", jp, "full_ns_per_round", mf.ns_per_round);
    json.record("round_cost", jp, "speedup_vs_full", su_full);
    json.record("round_cost", jp, "edge_set_mib", mib);
  }
  table.print(std::cout);
  write_table_csv(table, cli.csv_path());

  // -- recovery cost after crashing k peers ---------------------------------
  std::vector<std::size_t> churn_sizes;
  for (auto v : cli.get_int_list("churn-sizes", {10000}))
    if (v > 0) churn_sizes.push_back(static_cast<std::size_t>(v));
  std::vector<std::size_t> ks;
  for (auto v : cli.get_int_list("churn-ks", {1, 10, 100}))
    if (v > 0) ks.push_back(static_cast<std::size_t>(v));
  const auto churn_rounds = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("churn-rounds", 12)));
  if (!churn_sizes.empty() && !ks.empty()) {
    std::printf("\nrecovery rounds after crashing k peers (mean over %zu "
                "rounds, no reset):\n",
                churn_rounds);
    util::Table churn_table({"n", "k", "active ns/round", "full ns/round",
                             "speedup", "mean woken peers", "mean replayed"});
    for (std::size_t n : churn_sizes) {
      for (std::size_t k : ks) {
        if (k >= n) continue;
        core::Network net = bench::stable_network(n, seed);
        core::Engine active(net, base_opt);
        const Measurement ma = run_churn(active, k, churn_rounds, seed);
        core::EngineOptions full_opt = base_opt;
        full_opt.full_scan = true;
        core::Engine full(std::move(net), full_opt);
        const Measurement mf = run_churn(full, k, churn_rounds, seed);
        churn_table.add_row(
            {std::to_string(n), std::to_string(k),
             std::to_string(static_cast<std::int64_t>(ma.ns_per_round)),
             std::to_string(static_cast<std::int64_t>(mf.ns_per_round)),
             fmt(mf.ns_per_round / ma.ns_per_round),
             std::to_string(static_cast<std::int64_t>(ma.mean_active)),
             std::to_string(static_cast<std::int64_t>(ma.mean_replayed))});

        const bench::BenchJson::Params jp{
            {"n", bench::jnum(static_cast<std::uint64_t>(n))},
            {"k", bench::jnum(static_cast<std::uint64_t>(k))}};
        json.record("round_cost.churn", jp, "active_ns_per_round",
                    ma.ns_per_round);
        json.record("round_cost.churn", jp, "full_ns_per_round",
                    mf.ns_per_round);
        json.record("round_cost.churn", jp, "speedup",
                    mf.ns_per_round / ma.ns_per_round);
        json.record("round_cost.churn", jp, "mean_woken", ma.mean_active);
        json.record("round_cost.churn", jp, "mean_replayed",
                    ma.mean_replayed);
      }
    }
    churn_table.print(std::cout);
    if (!cli.csv_path().empty())
      write_table_csv(churn_table, churn_csv_path(cli.csv_path()));
  }

  // -- exact-fixpoint convergence tail --------------------------------------
  // The long tail of bring-up is dominated by uniformly-translating
  // connection-edge chains, which the translation closure fast-forwards
  // (DESIGN.md §6.6); "work" = live + replayed peer-rounds.
  std::vector<std::size_t> tail_sizes;
  for (auto v : cli.get_int_list("tail-sizes", {2000}))
    if (v > 0) tail_sizes.push_back(static_cast<std::size_t>(v));
  bool tail_ok = true;
  if (!tail_sizes.empty()) {
    std::printf("\nconvergence tail to the exact fixpoint (random connected "
                "start; work = live + replayed peer-rounds):\n");
    util::Table tail_table(
        {"n", "rounds", "live", "replayed", "work", "wall ms"});
    for (std::size_t n : tail_sizes) {
      const TailResult tr = run_tail(n, seed, base_opt);
      if (!tr.converged) tail_ok = false;
      const std::uint64_t tr_work = tr.live + tr.replayed;
      tail_table.add_row(
          {std::to_string(n), std::to_string(tr.rounds),
           std::to_string(tr.live), std::to_string(tr.replayed),
           std::to_string(tr_work), fmt(tr.wall_ms, 8)});
      const bench::BenchJson::Params jp{
          {"n", bench::jnum(static_cast<std::uint64_t>(n))},
          {"closure", bench::jstr("translate")}};
      json.record("round_cost.tail", jp, "rounds", tr.rounds);
      json.record("round_cost.tail", jp, "work", tr_work);
      json.record("round_cost.tail", jp, "wall_ms", tr.wall_ms);
    }
    tail_table.print(std::cout);
    if (!tail_ok)
      std::printf("FAIL: a tail run missed the exact fixpoint\n");
  }

  json.note();
  if (assert_speedup > 0.0) {
    std::printf("\nassert-speedup %.2f: %s\n", assert_speedup,
                assert_ok ? "ok" : "FAILED");
    if (!assert_ok) return 1;
  }
  return tail_ok && fixed_ok ? 0 : 1;
}
