#pragma once
// Declarative scenario events (DESIGN.md §7). A Scenario is a seeded timeline
// of these events applied in order to ONE persistent Engine run -- membership
// bursts, Poisson churn, fault and partition windows, state scrambles,
// convergence checkpoints and interleaved request/KV traffic. Events carry
// no owner ids or rng state of their own: victims, contacts and identifiers
// are drawn at application time from the scenario's single rng stream, so a
// timeline is deterministic in (scenario, params) and -- because no draw
// depends on engine internals -- identical under the active-set scheduler,
// the flag-gated full scan, and any thread count (tests/test_scenario.cpp
// asserts bit-equal state fingerprints across all four).

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/latency.hpp"

namespace rechord::sim {

// -- instantaneous membership events ----------------------------------------

/// `count` new peers join in the same round, each through a uniformly random
/// live contact (a flash crowd when count is large: the whole burst lands
/// before the next round runs).
struct JoinBurst {
  std::size_t count = 1;
};

/// `count` uniformly random peers depart gracefully (paper §4 leave). Stops
/// early if the network would drop to 3 peers.
struct LeaveBurst {
  std::size_t count = 1;
};

/// `count` uniformly random peers crash (no notification). Stops early if
/// the network would drop to 3 peers.
struct CrashBurst {
  std::size_t count = 1;
};

/// `ops` membership operations, each drawn uniformly from
/// {join, graceful leave, crash} -- the mix the churn example drives.
struct MixedChurn {
  std::size_t ops = 1;
};

/// Background churn: for `rounds` rounds, draw k ~ Poisson(events_per_round)
/// mixed membership ops, apply them, then run the round -- churn arriving
/// WHILE the protocol is healing, not between convergence phases.
struct PoissonChurn {
  double events_per_round = 0.5;
  std::uint64_t rounds = 20;
};

/// Fuzzes the current state (random re-markings + garbage virtual nodes) in
/// place -- the adversarial mid-run state corruption Theorem 1.1 must absorb.
struct Scramble {};

/// Crash-restart (rejoin with stale state, DESIGN.md §8): one uniformly
/// random peer crashes, the overlay runs `down_rounds` rounds without it,
/// then the peer re-enters with the edges it held at crash time. No-op when
/// fewer than 4 peers are live (with exactly 4, the overlay runs the dark
/// rounds at the 3-peer floor).
struct CrashRestart {
  std::uint64_t down_rounds = 2;
};

// -- multi-datacenter latency (DESIGN.md §8) ---------------------------------

/// Assigns every live owner to one of `dcs` datacenter groups via a
/// stateless hash of (scenario seed, owner id) -- deliberately NOT a draw
/// from the event rng stream, so installing datacenter assignments never
/// perturbs the rest of the schedule (the backbone of the zero-delay
/// equivalence tests). Peers joining later inherit their contact's group.
struct AssignDatacenters {
  std::size_t dcs = 2;
};

/// Installs a delivery-delay model from the next round on: `classes` is the
/// row-major dcs x dcs matrix of per-(source-dc, target-dc) delay classes
/// (empty = all zero). Installing a trivial model (dcs = 1, empty classes)
/// closes the latency window; messages already in flight still deliver at
/// their scheduled rounds.
struct SetLatencyModel {
  std::size_t dcs = 1;
  std::vector<core::DelayClass> classes;
};

// -- fault and partition windows --------------------------------------------

/// Sets the engine's message-loss probability from the next round on
/// (probability 0 closes the window).
struct SetMessageLoss {
  double probability = 0.0;
};

/// Sets the per-peer sleep (partial activation) probability from the next
/// round on (0 closes the window).
struct SetSleep {
  double probability = 0.0;
};

/// Splits the live peers into two sides, assigning each peer to side 1 with
/// probability `fraction`; messages across the cut are dropped at commit
/// until PartitionEnd. Peers joining during the window inherit their
/// contact's side.
struct PartitionBegin {
  double fraction = 0.5;
};

struct PartitionEnd {};

// -- segments ---------------------------------------------------------------

/// Runs exactly `rounds` rounds (fixpoint or not) -- the spacing primitive
/// used to interleave probes with healing.
struct RunRounds {
  std::uint64_t rounds = 1;
};

/// Runs until the exact fixpoint (cap `max_rounds`), recording a
/// CheckpointResult. The scenario FAILS if the cap is hit, or -- when
/// `require_exact` -- if the fixpoint differs from the StableSpec of the
/// current peer set.
struct Checkpoint {
  std::string label = "checkpoint";
  std::uint64_t max_rounds = 100000;
  bool require_exact = true;
};

/// Runs until the "almost stable" predicate of the current peer set holds
/// (every desired edge present), recording a CheckpointResult with
/// require_exact semantics off -- the convergence measure that stays
/// meaningful under fault injection, where exact-fixpoint detection can fire
/// spuriously.
struct AwaitAlmost {
  std::string label = "almost";
  std::uint64_t max_rounds = 4000;
};

// -- KV data plane ----------------------------------------------------------

/// Re-replicates / migrates every record stored by kKvPut requests to the
/// current responsible peers (Chord's key migration after churn; the copy
/// count is ScenarioParams::replicas).
struct KvRebalance {};

// -- in-network request workload (DESIGN.md §9) ------------------------------

/// Kind of request a LookupLoad batch issues.
enum class LoadKind : std::uint8_t {
  kLookup = 0,  // pure lookups of uniformly random ring keys
  kKvGet = 1,   // gets of previously loaded keys (random keys when none)
  /// Puts of fresh keys, stored at the reached owner. A put's key becomes
  /// eligible for later kKvGet draws only once the put RESOLVES -- a get
  /// against an unstored key would misread its miss as data loss.
  kKvPut = 2,
};

/// Issues `count` asynchronous requests through the in-network request
/// engine (net/request_engine.hpp): hop-by-hop traffic that advances one
/// hop per round over the owners' CURRENT published edges -- re-read each
/// hop, so stabilization helps or hurts it live -- paying per-(dc,dc)
/// delivery delays and the loss/partition fault model at every hop. The
/// requests stay outstanding across subsequent events; AwaitRequestsDrained
/// waits for them. Keys and origins are drawn from the scenario rng stream
/// (origins from the live peers), so the batch is deterministic in
/// (scenario, params) like every other event.
struct LookupLoad {
  std::size_t count = 64;
  LoadKind kind = LoadKind::kLookup;
};

/// Open-loop Poisson arrival process (production traffic, DESIGN.md §10):
/// for `rounds` rounds, draw k ~ Poisson(requests_per_round) fresh requests
/// of `kind`, submit them through the request engine, then run the round.
/// Unlike LookupLoad's one-shot batch, arrivals keep coming REGARDLESS of
/// how many requests are still outstanding -- the load never waits for the
/// system -- so queue growth vs drain rate is the measured quantity (the
/// per-round CSV's req_inflight column plots it). Keys and origins draw
/// from the scenario rng stream like every other event, so the arrival
/// schedule is deterministic in (scenario, params) and identical across
/// scheduler modes and thread counts.
struct PoissonLookupLoad {
  double requests_per_round = 32.0;
  std::uint64_t rounds = 16;
  LoadKind kind = LoadKind::kLookup;
};

/// Runs rounds until every outstanding request completed (cap `max_rounds`),
/// recording a CheckpointResult: passed iff the requests drained in time
/// and -- when `require_no_mono_violations` -- no monotonic-searchability
/// violation was recorded during the drain (the post-stabilization CI
/// assertion: on a healed overlay, a search that ever succeeded keeps
/// succeeding).
struct AwaitRequestsDrained {
  std::string label = "requests-drained";
  std::uint64_t max_rounds = 4000;
  bool require_no_mono_violations = false;
};

using Event =
    std::variant<JoinBurst, LeaveBurst, CrashBurst, MixedChurn, PoissonChurn,
                 Scramble, CrashRestart, AssignDatacenters, SetLatencyModel,
                 SetMessageLoss, SetSleep, PartitionBegin, PartitionEnd,
                 RunRounds, Checkpoint, AwaitAlmost, KvRebalance, LookupLoad,
                 PoissonLookupLoad, AwaitRequestsDrained>;

/// Short kind name for logs and the per-round CSV ("join-burst", ...).
[[nodiscard]] const char* event_name(const Event& e);

}  // namespace rechord::sim
