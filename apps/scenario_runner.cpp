// Scenario runner: lists and executes the registered event-timeline
// scenarios (sim/scenario.hpp) against one persistent engine run.
//
//   ./scenario_runner --list
//   ./scenario_runner --scenario flash-crowd [--n 48] [--seed 1] [--ops K]
//                     [--intensity X] [--replicas 2] [--threads T]
//                     [--full-scan] [--csv series.csv]
//   ./scenario_runner --all [--seed 1]        (smoke-run every scenario at a
//                                              common small size; override
//                                              with --n)
//
// Observability (DESIGN.md §11) -- all bit-identical-off:
//   --profile                 phase timing table after the run
//   --profile-csv <path>      same data as CSV
//   --trace-out <path>        structured event log, one JSON object per line
//   --trace-chrome <path>     Chrome trace-event JSON (load in Perfetto)
//   --metrics                 end-of-run metrics-registry summary
//
// Exit code 0 iff every convergence checkpoint of every executed scenario
// passed and the runner read every request completion record -- CI runs
// the scenarios through this binary and relies on it.
// Exit code 2 on a usage error or an unwritable --csv, --profile-csv,
// --trace-out or --trace-chrome path.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/metrics_registry.hpp"
#include "util/profiler.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace rechord;

void print_outcome(const sim::ScenarioOutcome& out) {
  std::printf("scenario %s: n=%zu, %llu rounds total, %s\n", out.name.c_str(),
              out.n, static_cast<unsigned long long>(out.total_rounds),
              out.ok                   ? "all checkpoints passed"
              : out.completions_missed ? "COMPLETIONS MISSED"
                                       : "CHECKPOINT FAILED");
  util::Table table({"#", "checkpoint", "events", "peers", "integ", "exact",
                     "live p-r", "skip p-r", "ok"});
  int i = 0;
  for (const auto& cp : out.checkpoints) {
    std::string events = cp.events.empty() ? "-" : cp.events;
    if (events.size() > 36) events = events.substr(0, 33) + "...";
    table.add_row({std::to_string(++i), cp.label, events,
                   std::to_string(cp.peers),
                   std::to_string(cp.rounds_almost),
                   std::to_string(cp.rounds),
                   std::to_string(cp.live_peer_rounds),
                   std::to_string(cp.skipped_peer_rounds),
                   cp.passed ? "ok" : "FAILED"});
  }
  table.print(std::cout);
  if (out.requests.issued > 0) {
    const auto& rq = out.requests;
    std::printf(
        "requests: %llu issued, %llu resolved (mean %.2f hops, mean %.2f "
        "rounds in flight, max %llu), %llu failed "
        "(%llu stale / %llu partition / %llu timeout)\n"
        "          gets: %llu found, %llu stale-miss, %llu lost-miss; "
        "bounces: %llu loss / %llu partition / %llu dead-hop; "
        "%llu custody failovers; %llu mono violations; fingerprint %016llx\n"
        "          harvest: %llu completion records evicted unread\n",
        static_cast<unsigned long long>(rq.issued),
        static_cast<unsigned long long>(rq.resolved), rq.mean_hops(),
        rq.mean_rounds_in_flight(),
        static_cast<unsigned long long>(rq.max_rounds_in_flight),
        static_cast<unsigned long long>(rq.failed()),
        static_cast<unsigned long long>(rq.failed_stale),
        static_cast<unsigned long long>(rq.failed_partition),
        static_cast<unsigned long long>(rq.failed_timeout),
        static_cast<unsigned long long>(rq.gets_found),
        static_cast<unsigned long long>(rq.gets_stale_miss),
        static_cast<unsigned long long>(rq.gets_lost_miss),
        static_cast<unsigned long long>(rq.loss_bounces),
        static_cast<unsigned long long>(rq.partition_bounces),
        static_cast<unsigned long long>(rq.dead_hop_bounces),
        static_cast<unsigned long long>(rq.custody_failovers),
        static_cast<unsigned long long>(rq.mono_violations),
        static_cast<unsigned long long>(rq.fingerprint),
        static_cast<unsigned long long>(out.completions_missed));
  }
  if (out.messages_dropped + out.partition_dropped > 0)
    std::printf("faults: %llu messages lost, %llu dropped at partition cut\n",
                static_cast<unsigned long long>(out.messages_dropped),
                static_cast<unsigned long long>(out.partition_dropped));
  std::printf("scheduler: %llu live / %llu replayed / %llu skipped "
              "peer-rounds, final fingerprint %016llx\n\n",
              static_cast<unsigned long long>(out.live_peer_rounds),
              static_cast<unsigned long long>(out.replayed_peer_rounds),
              static_cast<unsigned long long>(out.skipped_peer_rounds),
              static_cast<unsigned long long>(out.final_fingerprint));
}

/// Observability flags, parsed once. Enabling any of them never changes a
/// single outcome bit -- asserted registry-wide in tests/test_observability.
struct ObsConfig {
  bool profile = false;
  std::string profile_csv;
  std::string trace_jsonl;
  std::string trace_chrome;
  bool metrics = false;

  static ObsConfig from_cli(const util::Cli& cli) {
    ObsConfig cfg;
    cfg.profile = cli.get_flag("profile");
    cfg.profile_csv = cli.get("profile-csv", "");
    cfg.trace_jsonl = cli.get("trace-out", "");
    cfg.trace_chrome = cli.get("trace-chrome", "");
    cfg.metrics = cli.get_flag("metrics");
    return cfg;
  }

  void arm() const {
    if (profile || !profile_csv.empty())
      util::Profiler::instance().set_enabled(true);
    if (!trace_jsonl.empty() || !trace_chrome.empty())
      util::Tracer::instance().set_enabled(true);
  }

  /// Emits the per-run artifacts and resets the collectors so --all runs
  /// do not bleed into each other. An unwritable path is reported on stderr
  /// by name and makes the result false.
  bool emit(const sim::ScenarioOutcome& out) const {
    bool ok = true;
    // Opens `path` and hands the stream to `write`; false when unwritable.
    const auto write_file = [&ok](const std::string& path, auto&& write) {
      std::ofstream f(path);
      if (!f) {
        std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
        ok = false;
        return false;
      }
      write(f);
      return true;
    };
    if (metrics) {
      std::printf("metrics (end-of-run registry snapshot):\n");
      util::MetricsRegistry::print_snapshot(out.metrics, std::cout);
    }
    util::Profiler& prof = util::Profiler::instance();
    if (profile) prof.print_table(std::cout);
    if (!profile_csv.empty() &&
        write_file(profile_csv, [&](std::ostream& f) { prof.write_csv(f); }))
      std::printf("(profile csv written to %s)\n", profile_csv.c_str());
    const util::Tracer& tr = util::Tracer::instance();
    if (!trace_jsonl.empty() &&
        write_file(trace_jsonl, [&](std::ostream& f) { tr.write_jsonl(f); }))
      std::printf("(trace: %llu events recorded, %llu retained -> %s)\n",
                  static_cast<unsigned long long>(tr.recorded()),
                  static_cast<unsigned long long>(tr.size()),
                  trace_jsonl.c_str());
    if (!trace_chrome.empty() &&
        write_file(trace_chrome, [&](std::ostream& f) { tr.write_chrome(f); }))
      std::printf("(chrome trace written to %s -- load at ui.perfetto.dev)\n",
                  trace_chrome.c_str());
    prof.reset();
    util::Tracer::instance().clear();
    return ok;
  }
};

int run_one(const sim::ScenarioInfo& info, const sim::ScenarioParams& params,
            const std::string& csv_path, const ObsConfig& obs) {
  std::ofstream csv_file;
  std::ostream* csv = nullptr;
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "error: cannot write %s\n", csv_path.c_str());
      return 2;
    }
    csv = &csv_file;
  }
  const sim::Scenario sc = info.build(params);
  const auto out = sim::run_scenario(sc, params, csv);
  print_outcome(out);
  if (csv) std::printf("(csv series written to %s)\n", csv_path.c_str());
  if (!obs.emit(out)) return 2;
  return out.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto& registry = sim::scenario_registry();

  if (cli.get_flag("list") ||
      (!cli.has("scenario") && !cli.get_flag("all"))) {
    std::printf("%zu registered scenarios:\n\n", registry.size());
    for (const auto& info : registry)
      std::printf("  %-22s %s\n", info.name.c_str(),
                  info.description.c_str());
    std::printf("\nrun one:   %s --scenario <name> [--n N] [--seed S] "
                "[--ops K] [--intensity X]\n"
                "           [--threads T] [--full-scan] [--csv series.csv]\n"
                "           [--profile] [--trace-out t.jsonl] [--metrics]\n"
                "run all:   %s --all\n",
                cli.program().c_str(), cli.program().c_str());
    return 0;
  }

  const ObsConfig obs = ObsConfig::from_cli(cli);
  obs.arm();

  auto params = sim::scenario_params_from_cli(cli);
  if (cli.get_flag("all")) {
    // Smoke semantics: without an explicit --n, run every scenario at one
    // small common size -- scale scenarios like sustained-churn default to
    // n=100k when run individually, which is not a smoke run.
    if (params.n == 0) params.n = 48;
    int failures = 0;
    bool unwritable = false;
    for (const auto& info : registry) {
      const int rc = run_one(info, params, "", obs);
      failures += rc != 0;
      unwritable = unwritable || rc == 2;
    }
    std::printf("%d/%zu scenarios passed\n",
                static_cast<int>(registry.size()) - failures, registry.size());
    if (unwritable) return 2;
    return failures == 0 ? 0 : 1;
  }

  const std::string name = cli.scenario();
  const sim::ScenarioInfo* info = sim::find_scenario(name);
  if (!info) {
    std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
                 name.c_str());
    return 2;
  }
  return run_one(*info, params, cli.csv_path(), obs);
}
