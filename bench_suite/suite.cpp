// End-to-end benchmark of the Re-Chord simulator. One invocation runs one
// workload, drives the library only through its public calls, and times
// each call from outside (no spans inside src/):
//
//   bench_suite --workload NAME --seed S --seconds T [--trace 0|1]
//               [--trace-out trace.json]
//
//   bringup            random weakly connected start -> exact fixpoint
//   steady-lookups     open-loop hot-key lookups on a materialized fixpoint
//   churn-lookups-wan  Poisson churn + KV traffic over a two-datacenter link
//   paper-sweep        the paper's §5 sweep from random and scrambled starts
//
// A workload repeats its operation (one bring-up, one simulated round, one
// trial) until --seconds of measuring have passed. Host-time numbers cover
// every operation. Simulated results -- rounds, request outcomes, state
// fingerprints -- cover a fixed prefix of operations instead, so they depend
// on the seed alone and bench_suite/goldens.json can pin them.
//
// The last line of stdout is one JSON object: correctness, the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1), and the exact
// values of the prefix. bench_suite/run.py builds this binary, runs it in a
// child process, adds the child's peak RSS and checks the goldens. The exit
// code is 1 when a correctness check failed and 2 on bad arguments.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/latency.hpp"
#include "core/spec.hpp"
#include "dht/kv_store.hpp"
#include "gen/topologies.hpp"
#include "net/request_engine.hpp"
#include "util/cli.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace rechord;
using Clock = std::chrono::steady_clock;

namespace {

// -- workload parameters -----------------------------------------------------
// Sizes are chosen so a 20-second run of each workload measures dozens to
// thousands of operations on a 4-core box and stays under 0.5 GB of memory.

constexpr std::uint64_t kMaxRounds = 100000;  // convergence and drain guard

// bringup: the paper's headline claim, stabilization from a random weakly
// connected state, at a size where the rule phase and commit dominate.
constexpr std::size_t kBringupN = 300;
constexpr unsigned kBringupThreads = 2;
constexpr std::uint64_t kBringupPrefix = 12;  // bring-ups with exact results

// steady-lookups: the production read path on a stabilized overlay.
constexpr std::size_t kSteadyN = 10000;
constexpr unsigned kSteadyThreads = 2;
constexpr double kSteadyRate = 400.0;  // Poisson arrivals per round
constexpr double kSteadyHotFrac = 0.8;
constexpr std::size_t kSteadyHotKeys = 32;
constexpr std::uint64_t kSteadyWarmup = 50;
constexpr std::uint64_t kSteadyPrefix = 300;  // rounds whose requests count
constexpr int kSteadySetups = 3;

// churn-lookups-wan: membership writes beside reads over a slow link.
constexpr std::size_t kChurnN = 600;
constexpr double kChurnRate = 0.2;  // churn events per round
constexpr std::uint64_t kChurnRounds = 150;
constexpr double kChurnTraffic = 100.0;  // Poisson arrivals per round
constexpr std::size_t kWaveSize = 256;
constexpr std::uint32_t kChurnRequestBudget = 1000;  // hops and rounds

// paper-sweep: many small engines (§5: n = 5..105, 30 graphs per size).
constexpr std::size_t kSweepTrials = 30;

// Stream tags: every workload draws from its own seeded streams.
constexpr std::uint64_t kTagBringup = 0xB1;
constexpr std::uint64_t kTagSteady = 0x57;
constexpr std::uint64_t kTagChurn = 0xC4;
constexpr std::uint64_t kTagSweep = 0x5E;

/// Seed of the i-th stream of a workload: a pure function of (seed, tag, i).
std::uint64_t stream(std::uint64_t seed, std::uint64_t tag, std::uint64_t i) {
  return util::mix64(util::mix64(seed ^ (tag << 56)) + i);
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return util::percentile_sorted(xs, q);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "%016" PRIx64, v);
  return b;
}

std::string num(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

// -- spans -------------------------------------------------------------------

struct Span {
  const char* layer;
  const char* name;
  double start_ns;  // since the tracer was created
  double end_ns;
  int parent;  // index of the enclosing span, -1 for a root
};

/// Spans the suite records around its calls into each layer while tracing.
/// Kept in memory and written out as Chrome trace JSON when the run ends.
/// Spans nest in call order: the span open when another begins is its
/// parent. Recording only toggles between operations, never inside one.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

  void set_recording(bool on) { recording_ = on; }

  int begin(const char* layer, const char* name, Clock::time_point t) {
    if (!recording_ || spans_.size() >= kMaxSpans) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({layer, name, ns_between(epoch_, t), 0.0, parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void end(int id, Clock::time_point t) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = ns_between(epoch_, t);
    open_.pop_back();
  }

  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].layer] += spans_[i].end_ns - spans_[i].start_ns - child[i];
    return self;
  }

  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << num(s.start_ns / 1e3) << ",\"dur\":"
          << num((s.end_ns - s.start_ns) / 1e3) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  bool recording_ = false;
};

/// One call site the suite wraps: a layer boundary and its timings (ns).
struct Probe {
  const char* layer;
  const char* name;
  std::vector<double> ns;
};

// -- one run -----------------------------------------------------------------

class Run {
 public:
  Run(std::string workload, std::uint64_t seed, double seconds, bool trace)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace) {}

  // Call sites, one per layer boundary the suite crosses.
  Probe op{"suite", "op", {}};
  Probe make_network{"gen", "make_network", {}};
  Probe scramble{"gen", "scramble_state", {}};
  Probe materialize{"gen", "materialize_fixpoint", {}};
  Probe ctor{"core", "engine_ctor", {}};
  Probe first_step{"core", "first_step", {}};
  Probe spec{"core", "spec_compute", {}};
  Probe step{"core", "step", {}};
  Probe almost{"core", "almost_check", {}};
  Probe exact_check{"core", "exact_match", {}};
  Probe churn{"core", "churn_op", {}};
  Probe submit{"net", "submit_batch", {}};
  Probe on_round{"net", "on_round", {}};
  Probe handoff{"dht", "handoff", {}};

  [[nodiscard]] const std::string& workload() const { return workload_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Times f() at probe p (and records a span while tracing); returns ns.
  template <class F>
  double timed(Probe& p, F&& f) {
    const auto t0 = Clock::now();
    const int id = tracer_.begin(p.layer, p.name, t0);
    f();
    const auto t1 = Clock::now();
    tracer_.end(id, t1);
    const double ns = ns_between(t0, t1);
    p.ns.push_back(ns);
    return ns;
  }

  /// Runs one measured operation. Traced runs profile every other one, so
  /// the two halves of one run give the tracing overhead (host time per
  /// peer-round, which evens out operations of different sizes).
  template <class F>
  void operation(F&& f) {
    const bool on = trace_ && (ops_ % 2 == 1);
    tracer_.set_recording(on);
    util::Profiler::instance().set_enabled(on);
    const double peer_rounds0 = peer_rounds_, req_rounds0 = req_rounds_;
    const double ns = timed(op, std::forward<F>(f));
    Half& half = on ? traced_ : untraced_;
    ++half.ops;
    half.ns += ns;
    half.peer_rounds += peer_rounds_ - peer_rounds0;
    half.req_rounds += req_rounds_ - req_rounds0;
    util::Profiler::instance().set_enabled(false);
    tracer_.set_recording(false);
    ++ops_;
  }

  void start_clock() { t_start_ = Clock::now(); }
  [[nodiscard]] bool out_of_time() const {
    return ns_between(t_start_, Clock::now()) >= seconds_ * 1e9;
  }

  void setup_done(double ns) { setup_ns_.push_back(ns); }
  void attempted(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  void check(bool ok, const std::string& what) {
    if (!ok && failures_.size() < 20) failures_.push_back(what);
    if (!ok) correct_ = false;
  }

  /// Scheduler work of one engine round. The prefix counts are exact.
  void note_round(const core::RoundMetrics& mt, bool prefix) {
    const double peers = static_cast<double>(
        mt.active_peers + mt.replayed_peers + mt.skipped_peers);
    peer_rounds_ += peers;
    inflight_msgs_peak_ = std::max(inflight_msgs_peak_, mt.inflight_messages);
    if (!prefix) return;
    live_ += mt.active_peers;
    replayed_ += mt.replayed_peers;
    skipped_ += mt.skipped_peers;
    boundary_ += mt.boundary_peers;
  }
  /// Requests parked or in flight when on_round starts (net's work unit).
  void note_requests(std::size_t inflight) {
    req_rounds_ += static_cast<double>(inflight);
    req_inflight_peak_ = std::max(req_inflight_peak_, inflight);
  }
  void note_edge_bytes(const core::Network& net) {
    edge_bytes_per_peer_ =
        ratio(static_cast<double>(net.edge_set_bytes()),
              static_cast<double>(net.alive_owner_count()));
  }
  void note_totals(const net::RequestTotals& t) { totals_ = t; }

  void exact(const std::string& key, std::string value) {
    exact_.emplace_back(key, std::move(value));
  }
  void exact(const std::string& key, std::uint64_t v) {
    exact(key, std::to_string(v));
  }
  /// The simulated rounds one operation took, averaged over the prefix.
  void set_op_rounds(double v) {
    op_rounds_ = v;
    exact("op_rounds", num(v));
  }

  /// Prints the result object as one JSON line.
  void print(std::FILE* out, const std::string& trace_out) {
    std::string s = "{\"workload\":\"" + workload_ +
                    "\",\"seed\":" + std::to_string(seed_) +
                    ",\"correct\":" + (correct_ ? "true" : "false") +
                    ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
      s += (i ? ",\"" : "\"") + failures_[i] + "\"";
    s += "],\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{";
    const auto metrics = trace_ ? per_layer(trace_out) : end_to_end();
    for (std::size_t i = 0; i < metrics.size(); ++i)
      s += (i ? ",\"" : "\"") + metrics[i].first + "\":" +
           num(metrics[i].second);
    s += "},\"exact\":{";
    for (std::size_t i = 0; i < exact_.size(); ++i)
      s += (i ? ",\"" : "\"") + exact_[i].first + "\":\"" + exact_[i].second +
           "\"";
    s += "},\"samples\":{\"setup\":" + std::to_string(setup_ns_.size()) +
         ",\"op\":" + std::to_string(op.ns.size()) + "}}";
    std::fprintf(out, "%s\n", s.c_str());
  }

  [[nodiscard]] bool correct() const { return correct_; }

 private:
  using Metrics = std::vector<std::pair<std::string, double>>;

  [[nodiscard]] Metrics end_to_end() const {
    return {{"setup_s", quantile(setup_ns_, 0.5) / 1e9},
            {"op_ms", quantile(op.ns, 0.5) / 1e6},
            {"op_rounds", op_rounds_}};
  }

  [[nodiscard]] Metrics per_layer(const std::string& trace_out) const {
    auto med = [](const Probe& p) { return quantile(p.ns, 0.5); };
    auto total = [](const Probe& p) {
      double s = 0.0;
      for (double v : p.ns) s += v;
      return s;
    };
    auto mean = [&](const Probe& p) {
      return ratio(total(p), static_cast<double>(p.ns.size()));
    };
    Metrics m;
    m.emplace_back("core.step_us_p50", quantile(step.ns, 0.5) / 1e3);
    m.emplace_back("core.step_us_p99", quantile(step.ns, 0.99) / 1e3);
    m.emplace_back("core.step_ns_per_peer_round",
                   ratio(total(step), peer_rounds_));
    m.emplace_back("core.live_peer_rounds", static_cast<double>(live_));
    m.emplace_back("core.replayed_peer_rounds", static_cast<double>(replayed_));
    m.emplace_back("core.skipped_peer_rounds", static_cast<double>(skipped_));
    m.emplace_back("core.boundary_peer_rounds", static_cast<double>(boundary_));
    m.emplace_back("core.skip_frac",
                   ratio(static_cast<double>(skipped_),
                         static_cast<double>(live_ + replayed_ + skipped_)));
    m.emplace_back("core.engine_ctor_ms", med(ctor) / 1e6);
    m.emplace_back("core.first_step_ms", med(first_step) / 1e6);
    m.emplace_back("core.spec_compute_ms", med(spec) / 1e6);
    m.emplace_back("core.almost_check_us", med(almost) / 1e3);
    m.emplace_back("core.edge_bytes_per_peer", edge_bytes_per_peer_);
    m.emplace_back("core.churn_op_us", mean(churn) / 1e3);
    m.emplace_back("core.inflight_messages_peak",
                   static_cast<double>(inflight_msgs_peak_));

    // The engine's own phase profiler, read while the profiled half ran.
    const auto& prof = util::Profiler::instance();
    std::map<util::Phase, double> phase_ns;
    for (const auto& [p, st] : prof.snapshot())
      phase_ns[p] = static_cast<double>(st.total_ns);
    auto per = [&](util::Phase p, double unit) {
      const auto it = phase_ns.find(p);
      return it == phase_ns.end() ? 0.0 : ratio(it->second, unit);
    };
    using P = util::Phase;
    const std::pair<const char*, P> core_phases[] = {
        {"core.phase.wake_scan_ns", P::kWakeScan},
        {"core.phase.skip_set_ns", P::kSkipSet},
        {"core.phase.rule_phase_ns", P::kRulePhase},
        {"core.phase.deferred_evict_ns", P::kDeferredEvict},
        {"core.phase.route_inflight_ns", P::kRouteInflight},
        {"core.phase.index_register_ns", P::kIndexRegister},
        {"core.phase.commit_ns", P::kCommit},
        {"core.phase.publish_normalize_ns", P::kPublishNormalize},
        {"core.phase.index_rebuild_ns", P::kIndexRebuild},
        {"core.phase.fixpoint_ns", P::kFixpoint}};
    double named = 0.0;
    for (const auto& [name, p] : core_phases) {
      m.emplace_back(name, per(p, traced_.peer_rounds));
      named += per(p, 1.0);
    }
    // Share of step time the named core phases cover (the profiler's own
    // attributed_fraction() also counts the request engine's phases).
    m.emplace_back("core.phase.attributed_frac",
                   ratio(named, per(P::kStepTotal, 1.0)));

    m.emplace_back("net.on_round_us_p50", quantile(on_round.ns, 0.5) / 1e3);
    m.emplace_back("net.on_round_us_p99", quantile(on_round.ns, 0.99) / 1e3);
    m.emplace_back("net.on_round_ns_per_req_round",
                   ratio(total(on_round), req_rounds_));
    m.emplace_back("net.phase.shard_advance_ns",
                   per(P::kReqShardAdvance, traced_.req_rounds));
    m.emplace_back("net.phase.merge_ns",
                   per(P::kReqMerge, traced_.req_rounds));
    m.emplace_back("net.submit_batch_us", mean(submit) / 1e3);
    const auto done = static_cast<double>(totals_.completed());
    m.emplace_back("net.hops_mean", totals_.mean_hops());
    m.emplace_back("net.retries_mean",
                   ratio(static_cast<double>(totals_.retries_sum), done));
    m.emplace_back("net.dead_hop_bounces",
                   static_cast<double>(totals_.dead_hop_bounces));
    m.emplace_back("net.custody_failovers",
                   static_cast<double>(totals_.custody_failovers));
    m.emplace_back("net.inflight_peak",
                   static_cast<double>(req_inflight_peak_));
    m.emplace_back("net.mono_violations",
                   static_cast<double>(totals_.mono_violations));
    const double gets = static_cast<double>(
        totals_.gets_found + totals_.gets_stale_miss + totals_.gets_lost_miss);
    m.emplace_back("dht.gets_found_frac",
                   ratio(static_cast<double>(totals_.gets_found), gets));
    m.emplace_back("dht.gets_stale_miss",
                   static_cast<double>(totals_.gets_stale_miss));
    m.emplace_back("dht.handoff_us", mean(handoff) / 1e3);

    m.emplace_back("gen.make_network_us", med(make_network) / 1e3);
    m.emplace_back("gen.scramble_us", med(scramble) / 1e3);
    m.emplace_back("gen.materialize_ms", med(materialize) / 1e6);

    // Self time per layer over the profiled operations (gen runs only in
    // set-up, outside them).
    const auto self = tracer_.self_ns_by_layer();
    for (const char* layer : {"core", "net", "dht", "suite"}) {
      const auto it = self.find(layer);
      m.emplace_back(std::string(layer) + ".self_us_per_op",
                     it == self.end()
                         ? 0.0
                         : ratio(it->second / 1e3,
                                 static_cast<double>(traced_.ops)));
    }
    m.emplace_back("trace.overhead_frac",
                   ratio(traced_.ns_per_peer_round(),
                         untraced_.ns_per_peer_round()) -
                       1.0);
    if (!trace_out.empty() && !tracer_.write_chrome(trace_out))
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return m;
  }

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  Tracer tracer_;
  Clock::time_point t_start_ = Clock::now();

  bool correct_ = true;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::uint64_t ops_ = 0;
  std::vector<double> setup_ns_;
  /// Totals of the profiled or of the unprofiled operations.
  struct Half {
    std::uint64_t ops = 0;
    double ns = 0.0, peer_rounds = 0.0, req_rounds = 0.0;
    [[nodiscard]] double ns_per_peer_round() const {
      return ratio(ns, peer_rounds);
    }
  };
  Half traced_, untraced_;
  double op_rounds_ = 0.0;
  std::vector<std::pair<std::string, std::string>> exact_;

  double peer_rounds_ = 0.0, req_rounds_ = 0.0;
  std::uint64_t live_ = 0, replayed_ = 0, skipped_ = 0, boundary_ = 0;
  std::size_t inflight_msgs_peak_ = 0, req_inflight_peak_ = 0;
  double edge_bytes_per_peer_ = 0.0;
  net::RequestTotals totals_;
};

// -- shared building blocks --------------------------------------------------

/// The protocol's exact fixpoint for n random peers, built directly from the
/// StableSpec without running the protocol. Same construction as
/// bench::stable_network; repeated here so the benchmark depends on the
/// library alone.
core::Network materialize_fixpoint(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto ids = gen::random_ids(rng, n);
  core::Network net{std::span<const core::RingPos>(ids)};
  const auto spec = core::StableSpec::compute(net);
  for (core::Slot s : spec.nodes_in_order()) net.set_alive(s, true);
  for (core::Slot s : spec.nodes_in_order()) {
    for (core::Slot t : spec.eu(s))
      net.add_edge(s, core::EdgeKind::kUnmarked, t);
    for (core::Slot t : spec.er(s)) net.add_edge(s, core::EdgeKind::kRing, t);
    for (core::Slot t : spec.ec(s))
      net.add_edge(s, core::EdgeKind::kConnection, t);
    net.set_rl(s, spec.rl(s));
    net.set_rr(s, spec.rr(s));
  }
  return net;
}

struct Converged {
  bool stable = false;
  bool exact = false;
  std::uint64_t rounds = 0;  // rounds to the exact fixpoint
  std::uint64_t almost = 0;  // rounds to almost stable
};

/// Steps the engine to its fixpoint like core::run_to_stable, timing every
/// step and every spec check.
Converged converge(Run& run, core::Engine& engine, const core::StableSpec& spec,
                   bool prefix) {
  Converged c;
  bool almost = false;
  run.timed(run.almost, [&] { almost = spec.almost_stable(engine.network()); });
  for (std::uint64_t r = 1; r <= kMaxRounds && !c.stable; ++r) {
    core::RoundMetrics mt;
    run.timed(run.step, [&] { mt = engine.step(); });
    run.note_round(mt, prefix);
    if (!almost) {
      run.timed(run.almost,
                [&] { almost = spec.almost_stable(engine.network()); });
      if (almost) c.almost = r;
    }
    if (!mt.changed) {
      c.stable = true;
      c.rounds = r - 1;
    }
  }
  run.timed(run.exact_check,
            [&] { c.exact = spec.exact_match(engine.network()); });
  return c;
}

/// Exact outcome of the requests a workload's prefix issued.
struct RequestPrefix {
  std::uint64_t lo = 0;           // first covered request id
  std::uint64_t hi = UINT64_MAX;  // one past the last, once known
  struct Rec {
    std::uint64_t id, rounds;
    std::uint32_t hops, retries, result;
    net::RequestStatus status;
  };
  std::vector<Rec> recs;

  void take(const net::RequestRecord& r) {
    if (r.id >= lo && r.id < hi)
      recs.push_back({r.id, r.rounds_in_flight(), r.hops, r.retries,
                      r.result_owner, r.status});
  }

  /// Publishes the prefix's exact values; returns mean rounds in flight.
  double publish(Run& run) {
    std::erase_if(recs, [&](const Rec& r) { return r.id < lo || r.id >= hi; });
    std::sort(recs.begin(), recs.end(),
              [](const Rec& a, const Rec& b) { return a.id < b.id; });
    run.check(recs.size() == hi - lo, "covered requests did not all complete");
    std::uint64_t fp = 0, rounds = 0, hops = 0, failed = 0;
    std::vector<double> rif;
    for (const Rec& r : recs) {
      fp = util::mix64(fp ^ util::mix64(r.id ^ (r.rounds << 20) ^
                                        (std::uint64_t{r.hops} << 36) ^
                                        (std::uint64_t{r.retries} << 46) ^
                                        (static_cast<std::uint64_t>(r.status)
                                         << 56)) ^
                       r.result);
      rounds += r.rounds;
      hops += r.hops;
      failed += r.status == net::RequestStatus::kResolved ? 0 : 1;
      rif.push_back(static_cast<double>(r.rounds));
    }
    run.exact("requests", recs.size());
    run.exact("req_failed", failed);
    run.exact("req_rounds_sum", rounds);
    run.exact("req_hops_sum", hops);
    run.exact("req_p50_rounds", static_cast<std::uint64_t>(quantile(rif, 0.5)));
    run.exact("req_p99_rounds",
              static_cast<std::uint64_t>(quantile(rif, 0.99)));
    run.exact("completion_fingerprint", hex(fp));
    return ratio(static_cast<double>(rounds), static_cast<double>(recs.size()));
  }
};

/// Reads each round's new completion records before the capped completion
/// ring evicts them.
class Harvest {
 public:
  explicit Harvest(const net::RequestEngine& req) : req_(req) {}

  template <class F>
  void drain(F&& f) {
    const auto& comps = req_.completions();
    const std::uint64_t base = req_.completions_dropped();
    if (seen_ < base) {
      missed_ += base - seen_;
      seen_ = base;
    }
    for (; seen_ < base + comps.size(); ++seen_) f(comps[seen_ - base]);
  }
  /// Records evicted before they were read (must stay 0).
  [[nodiscard]] std::uint64_t missed() const { return missed_; }

 private:
  const net::RequestEngine& req_;
  std::uint64_t seen_ = 0;
  std::uint64_t missed_ = 0;
};

net::RequestOptions request_options(std::uint64_t seed) {
  net::RequestOptions opt;
  opt.seed = seed;
  // Bounded memory for open-loop runs; totals stay exact under the caps.
  opt.completion_cap = 8192;
  opt.mono_ledger_cap = std::size_t{1} << 20;
  return opt;
}

bool conserved(const net::RequestEngine& req) {
  const auto& t = req.totals();
  return t.issued == t.completed() + req.inflight();
}

// -- bringup and paper-sweep -------------------------------------------------

/// The start state of one convergence operation.
struct Start {
  std::size_t n;
  bool scramble;
};

/// A convergence workload. Set-up generates a start state as sim::run_trial
/// does (a random connected network, scrambled on request) and builds its
/// engine and spec; the operation runs it to the exact fixpoint. Operation i
/// draws from stream i and starts from schedule[i % schedule.size()]; the
/// first `prefix` operations carry the exact results.
void run_convergence(Run& run, const std::vector<Start>& schedule,
                     std::uint64_t prefix, unsigned threads,
                     std::uint64_t tag) {
  std::uint64_t rounds = 0, almost = 0, fp = 0;
  run.start_clock();
  for (std::uint64_t i = 0; i < prefix || !run.out_of_time(); ++i) {
    const Start& start = schedule[i % schedule.size()];
    util::Rng rng(stream(run.seed(), tag, i));
    const auto t0 = Clock::now();
    std::optional<core::Network> net;
    run.timed(run.make_network, [&] {
      net.emplace(gen::make_network(gen::Topology::kRandomConnected, start.n,
                                    rng));
    });
    if (start.scramble)
      run.timed(run.scramble, [&] { gen::scramble_state(*net, rng); });
    std::unique_ptr<core::Engine> engine;
    run.timed(run.ctor, [&] {
      engine = std::make_unique<core::Engine>(
          std::move(*net), core::EngineOptions{.threads = threads});
    });
    std::optional<core::StableSpec> spec;
    run.timed(run.spec, [&] {
      spec.emplace(core::StableSpec::compute(engine->network()));
    });
    run.setup_done(ns_between(t0, Clock::now()));

    Converged c;
    run.operation([&] { c = converge(run, *engine, *spec, i < prefix); });
    const bool ok = c.stable && c.exact;
    run.attempted(1, ok ? 0 : 1);
    run.check(ok, "op " + std::to_string(i) + " (n=" +
                      std::to_string(start.n) + ") missed the exact fixpoint");
    run.note_edge_bytes(engine->network());
    if (i >= prefix) continue;
    rounds += c.rounds;
    almost += c.almost;
    fp = util::mix64(fp ^ engine->network().state_fingerprint());
  }
  run.exact("rounds_to_exact_sum", rounds);
  run.exact("rounds_to_almost_sum", almost);
  run.exact("state_fingerprint", hex(fp));
  run.set_op_rounds(static_cast<double>(rounds) / static_cast<double>(prefix));
}

void run_bringup(Run& run) {
  run_convergence(run, {{kBringupN, false}}, kBringupPrefix, kBringupThreads,
                  kTagBringup);
}

/// The paper's §5 sweep: every size from a random and from a scrambled
/// start. Sizes interleave, so a sweep cut short by the clock still holds
/// every size in the same proportion.
void run_sweep(Run& run) {
  std::vector<Start> schedule;
  for (std::size_t n = 5; n <= 105; n += 10)
    for (const bool scramble : {false, true}) schedule.push_back({n, scramble});
  run_convergence(run, schedule, schedule.size() * kSweepTrials, 1, kTagSweep);
}

// -- steady-lookups ----------------------------------------------------------

void run_steady(Run& run) {
  // Set up several times; the last engine serves the traffic.
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<net::RequestEngine> req;
  for (int rep = 0; rep < kSteadySetups; ++rep) {
    req.reset();
    engine.reset();
    const auto t0 = Clock::now();
    std::optional<core::Network> net;
    run.timed(run.materialize, [&] {
      net.emplace(materialize_fixpoint(kSteadyN,
                                       stream(run.seed(), kTagSteady, 0)));
    });
    run.timed(run.ctor, [&] {
      engine = std::make_unique<core::Engine>(
          std::move(*net), core::EngineOptions{.threads = kSteadyThreads});
    });
    core::RoundMetrics first;
    run.timed(run.first_step, [&] { first = engine->step(); });
    run.check(!first.changed, "materialized start is not a fixpoint");
    req = std::make_unique<net::RequestEngine>(
        *engine, request_options(stream(run.seed(), kTagSteady, 1)));
    run.setup_done(ns_between(t0, Clock::now()));
  }
  run.note_edge_bytes(engine->network());

  // Open loop in simulated time: each round's Poisson draw is submitted
  // before the round runs, whatever the queue holds. 80% of the keys come
  // from a small hot set, so hot requests share custody owners.
  util::Rng rng(stream(run.seed(), kTagSteady, 2));
  std::vector<std::uint64_t> hot(kSteadyHotKeys);
  for (auto& k : hot) k = rng.next();
  const auto owners = engine->network().live_owners();
  Harvest harvest(*req);
  RequestPrefix covered;
  auto round = [&](bool prefix) {
    run.timed(run.submit, [&] {
      for (std::size_t k = util::poisson_knuth(rng, kSteadyRate); k > 0; --k) {
        const std::uint64_t u = rng.next();
        const std::uint64_t key =
            static_cast<double>(u >> 11) * 0x1.0p-53 < kSteadyHotFrac
                ? hot[rng.below(hot.size())]
                : rng.next();
        req->submit_lookup(key, owners[rng.below(owners.size())]);
      }
    });
    core::RoundMetrics mt;
    run.timed(run.step, [&] { mt = engine->step(); });
    run.note_round(mt, prefix);
    run.note_requests(req->inflight());
    run.timed(run.on_round, [&] { req->on_round(); });
    harvest.drain([&](const net::RequestRecord& r) { covered.take(r); });
  };

  for (std::uint64_t i = 0; i < kSteadyWarmup; ++i) round(false);
  covered.lo = req->totals().issued;
  run.start_clock();
  for (std::uint64_t i = 0; i < kSteadyPrefix || !run.out_of_time(); ++i) {
    run.operation([&] { round(i < kSteadyPrefix); });
    if (i + 1 == kSteadyPrefix) covered.hi = req->totals().issued;
  }
  run.check(conserved(*req), "request conservation broken at window end");

  // Drain: no arrivals, run until every request completed.
  std::uint64_t guard = 0;
  while (req->inflight() > 0 && guard++ < kMaxRounds) {
    engine->step();
    req->on_round();
    harvest.drain([&](const net::RequestRecord& r) { covered.take(r); });
  }
  run.check(req->inflight() == 0, "drain hit its round guard");
  run.check(harvest.missed() == 0, "completion records evicted unread");
  run.check(conserved(*req), "request conservation broken after drain");
  const auto& t = req->totals();
  run.attempted(t.issued, t.failed());
  run.note_totals(t);
  run.set_op_rounds(covered.publish(run));
}

// -- churn-lookups-wan -------------------------------------------------------

/// One episode: a materialized fixpoint split over two datacenters with a
/// slow link between them; Poisson churn beside mixed KV traffic; then the
/// link is flattened, the overlay heals to almost stable, and a wave of
/// lookups for keys that resolved during churn must drain without a
/// monotonic-searchability violation. The first episode carries the exact
/// results.
void churn_episode(Run& run, std::uint64_t ep) {
  const bool prefix = ep == 0;
  const std::string tag = "episode " + std::to_string(ep) + ": ";
  const auto t0 = Clock::now();
  std::optional<core::Network> net;
  run.timed(run.materialize, [&] {
    net.emplace(
        materialize_fixpoint(kChurnN, stream(run.seed(), kTagChurn, 2 * ep)));
  });
  std::unique_ptr<core::Engine> engine;
  run.timed(run.ctor, [&] {
    engine = std::make_unique<core::Engine>(std::move(*net),
                                            core::EngineOptions{.threads = 1});
  });
  core::RoundMetrics first;
  run.timed(run.first_step, [&] { first = engine->step(); });
  run.check(!first.changed, "materialized start is not a fixpoint");
  util::Rng rng(stream(run.seed(), kTagChurn, 2 * ep + 1));
  const auto initial = engine->network().live_owners();
  std::vector<std::uint8_t> dc(engine->network().owner_count());
  for (const std::uint32_t o : initial) dc[o] = rng.next() & 1;
  engine->assign_datacenters(dc);
  engine->set_latency_model(
      core::LatencyModel::uniform(2, core::DelayClass{2, 1}, rng.next()));
  dht::KvStore kv;
  auto ropt = request_options(rng.next());
  // Under churn over the slow link a rare lookup crawls for 60-100 hops
  // (about one in 40000). A budget this large lets it finish, so the crawl
  // shows in the latency tail instead of as a failed request.
  ropt.hop_cap = kChurnRequestBudget;
  ropt.ttl_rounds = kChurnRequestBudget;
  net::RequestEngine req(*engine, ropt);
  req.bind_store(&kv);
  run.setup_done(ns_between(t0, Clock::now()));

  // Requests come from client peers, a fixed half of the initial peers that
  // never leave or crash, so no request fails because its origin vanished.
  // Churn picks its victims among the other peers and the newcomers.
  std::vector<std::uint32_t> clients, churnable;
  for (const std::uint32_t o : initial)
    (rng.next() & 1 ? clients : churnable).push_back(o);

  Harvest harvest(req);
  RequestPrefix covered;
  std::vector<std::uint64_t> lookup_key;  // by request id (lookups only)
  std::vector<std::string> gettable;      // keys of resolved puts
  std::vector<std::uint64_t> resolved_keys;
  auto collect = [&](const net::RequestRecord& r) {
    if (prefix) covered.take(r);
    if (r.status != net::RequestStatus::kResolved) return;
    if (r.kind == net::RequestKind::kKvPut) gettable.push_back(r.key);
    if (r.kind == net::RequestKind::kLookup && r.id < lookup_key.size())
      resolved_keys.push_back(lookup_key[r.id]);
  };
  auto submit_lookup = [&](std::uint64_t key, std::uint32_t origin) {
    const std::uint64_t id = req.submit_lookup(key, origin);
    if (lookup_key.size() <= id) lookup_key.resize(id + 1);
    lookup_key[id] = key;
  };
  auto advance = [&] {
    core::RoundMetrics mt;
    run.timed(run.step, [&] { mt = engine->step(); });
    run.note_round(mt, prefix);
    run.note_requests(req.inflight());
    run.timed(run.on_round, [&] { req.on_round(); });
    harvest.drain(collect);
  };
  auto churn_event = [&] {
    const auto live = engine->network().live_owners();
    std::erase_if(churnable, [&](std::uint32_t o) {
      return !engine->network().owner_alive(o);
    });
    const std::uint64_t kind = rng.below(3);
    if (kind == 0 || churnable.size() < 2) {
      const core::RingPos id = rng.next();
      const std::uint32_t contact = live[rng.below(live.size())];
      run.timed(run.churn, [&] {
        churnable.push_back(engine->join_peer(id, contact));
      });
      return;
    }
    const std::uint32_t victim = churnable[rng.below(churnable.size())];
    if (kind == 1) {
      run.timed(run.handoff, [&] {
        kv.handoff(dht::RoutingView::snapshot(engine->network()), victim);
      });
      run.timed(run.churn, [&] { engine->leave_peer(victim); });
    } else {
      kv.drop(victim);
      run.timed(run.churn, [&] { engine->crash_peer(victim); });
    }
  };
  std::uint64_t puts = 0;
  for (std::uint64_t r = 0; r < kChurnRounds; ++r) {
    run.operation([&] {
      for (std::size_t k = util::poisson_knuth(rng, kChurnRate); k > 0; --k)
        churn_event();
      run.timed(run.submit, [&] {
        for (std::size_t k = util::poisson_knuth(rng, kChurnTraffic); k > 0;
             --k) {
          const std::uint32_t origin = clients[rng.below(clients.size())];
          const std::uint64_t mix = rng.below(10);
          if (mix == 8) {
            const std::string key = std::to_string(puts++);
            req.submit_put(key, key, origin);
          } else if (mix == 9 && !gettable.empty()) {
            req.submit_get(gettable[rng.below(gettable.size())], origin);
          } else {
            submit_lookup(rng.next(), origin);
          }
        }
      });
      advance();
    });
  }
  run.check(conserved(req), tag + "request conservation broken after churn");
  if (prefix) covered.hi = req.totals().issued;

  // Heal: flatten the link and run until the overlay is almost stable and
  // the churn-phase traffic has drained.
  engine->set_latency_model(core::LatencyModel());
  std::optional<core::StableSpec> spec;
  run.timed(run.spec, [&] {
    spec.emplace(core::StableSpec::compute(engine->network()));
  });
  std::uint64_t heal_rounds = 0, to_almost = 0;
  while ((to_almost == 0 || req.inflight() > 0) && heal_rounds < kMaxRounds) {
    run.operation([&] {
      advance();
      ++heal_rounds;
      if (to_almost == 0)
        run.timed(run.almost, [&] {
          if (spec->almost_stable(engine->network())) to_almost = heal_rounds;
        });
    });
  }
  run.check(to_almost > 0, tag + "did not reach almost stable");
  run.check(req.inflight() == 0, tag + "churn traffic did not drain");
  const std::uint64_t churn_mono = req.totals().mono_violations;

  // Wave: re-look-up keys that resolved during churn.
  run.timed(run.submit, [&] {
    for (std::size_t k = 0; k < kWaveSize; ++k) {
      const std::uint64_t key =
          resolved_keys.empty()
              ? rng.next()
              : resolved_keys[rng.below(resolved_keys.size())];
      submit_lookup(key, clients[rng.below(clients.size())]);
    }
  });
  std::uint64_t guard = 0;
  while (req.inflight() > 0 && guard++ < kMaxRounds) run.operation(advance);
  run.check(req.inflight() == 0, tag + "wave did not drain");
  run.check(req.totals().mono_violations == churn_mono,
            tag + "monotonic-searchability violation after healing");
  run.check(conserved(req), tag + "request conservation broken after wave");
  run.check(harvest.missed() == 0, tag + "completion records evicted unread");

  const auto& t = req.totals();
  run.attempted(t.issued, t.failed());
  run.note_totals(t);
  run.note_edge_bytes(engine->network());
  if (!prefix) return;
  run.exact("rounds_to_almost", to_almost);
  run.exact("mono_violations", churn_mono);
  run.exact("state_fingerprint", hex(engine->network().state_fingerprint()));
  run.exact("request_fingerprint", hex(t.fingerprint));
  run.set_op_rounds(covered.publish(run));
}

void run_churn(Run& run) {
  run.start_clock();
  for (std::uint64_t ep = 0; ep == 0 || !run.out_of_time(); ++ep)
    churn_episode(run, ep);
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Run> run;
  std::string trace_out;
  try {
    const util::Cli cli(argc, argv);
    const std::string workload = cli.get("workload", "");
    const auto seed = cli.get_int("seed", 1);
    const double seconds = cli.get_double("seconds", 10.0);
    const auto trace = cli.get_int("trace", 0);
    trace_out = cli.get("trace-out", "");
    if (seed < 0 || seconds < 0.0 || (trace != 0 && trace != 1))
      throw std::invalid_argument("bad --seed, --seconds or --trace");
    run.emplace(workload, static_cast<std::uint64_t>(seed), seconds,
                trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 2;
  }
  const std::string& w = run->workload();
  if (w == "bringup") {
    run_bringup(*run);
  } else if (w == "steady-lookups") {
    run_steady(*run);
  } else if (w == "churn-lookups-wan") {
    run_churn(*run);
  } else if (w == "paper-sweep") {
    run_sweep(*run);
  } else {
    std::fprintf(stderr,
                 "bench_suite: unknown --workload '%s' (bringup, "
                 "steady-lookups, churn-lookups-wan, paper-sweep)\n",
                 w.c_str());
    return 2;
  }
  run->print(stdout, trace_out);
  return run->correct() ? 0 : 1;
}
