#pragma once
// The synchronous round engine (the paper's model, §2.1): in each round every
// peer applies rules 1..6 to its own state; all cross-node effects (delayed
// assignments / messages) are collected and delivered simultaneously at the
// end of the round. Peers are independent within a round -- no rule reads
// another node's edge sets, only static attributes (position, realness),
// real-slot aliveness and previous-round published rl/rr -- so the phase can
// be sharded over threads with bit-identical results (asserted in tests).
//
// ACTIVE-SET SCHEDULER (DESIGN.md §6). By default the engine does not re-run
// the rule phase of every peer every round. A peer whose read set (its own
// slots plus the published state of the owners it holds edges to) is
// untouched since its last live run is *provably quiescent-modulo-replay*:
// its phase is a pure function of unchanged inputs, so the engine replays
// the recorded phase output -- effective own-slot edits, the emitted delayed
// ops, the rl/rr publishes and the rule-activity counters -- without
// entering the rules. Wake-up is driven by the network's reverse-dependency
// reader index: when an owner's published state changes, its readers run
// live next round; private edge-set changes wake only the owner itself.
//
// On top of replay sits the RESTING-CHAIN SKIP: a quiescent peer whose
// digests did not move in its last executed round contributed *net zero* to
// the round -- its recorded edits and the delayed ops addressed to it cancel
// exactly (the stationary connection-edge chains remove and re-add every
// chain edge each round). Such a peer can be skipped outright -- no replay,
// no op emission, no publish -- provided the whole cached op-flow it
// participates in rests too: the skip set is closed so that every owner a
// skipped peer's cached ops reference is skipped as well, and no peer
// running live this round has cached ops into a skipped peer (engine.cpp
// documents the two closure rules; DESIGN.md §6 has the proof sketch).
//
// The TRANSLATION CLOSURE (DESIGN.md §6.6) generalizes the skip to
// *uniformly-translating* chains -- connection-edge flow that still slides
// one hop per round toward its resting position. A quiescent peer inside
// such a flow is net-zero for ITSELF (the value passing through it is
// stationary), but its cached ops feed the sliding frontier downstream, so
// the net-zero closure above used to evict the whole chain into replay
// every round, O(n) peers for the O(n) rounds of the convergence tail.
// Instead of evicting, the scheduler demotes such a peer to EMIT-ONLY
// ("boundary"): it stays skipped -- no rules, no replay, no delta, no
// publish -- and only its cached ops are delivered at commit. Injection is
// exactly a replay minus the delta application and the rl/rr republish, and
// both omissions are sound: the peer's own removal/re-add pair is
// suppressed as a pair (its upstream is skipped too), and a duplicate
// delivery into a skipped target is a set-level no-op that leaves digests
// untouched (network.cpp documents that guarantee) -- which is also why
// commit drops, per op, every cached op whose target and payload owners
// both rest. Evictions never propagate upstream, so each round's real work
// tracks the O(frontier) peers whose state genuinely moves, and the
// exact-fixpoint tail costs O(total chain length) live peer-rounds instead
// of O(n * rounds). At
// the fixpoint every peer is skipped and a round costs a few O(owners)
// scans, and every round after the first such round is a CERTIFIED
// quiescent round that costs O(1) (DESIGN.md §6.7); under churn the
// eviction tracks the perturbed op-flow region. The
// result is bit-identical to the full scan (EngineOptions::full_scan, the
// one reference oracle), serial and sharded, which tests/test_scheduler.cpp
// asserts.

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/churn.hpp"
#include "core/latency.hpp"
#include "core/network.hpp"
#include "core/rules.hpp"
#include "core/types.hpp"
#include "core/worker_pool.hpp"

namespace rechord::util {
class Cli;
}

namespace rechord::core {

/// Per-round measurements; the quantities plotted in the paper's figures.
struct RoundMetrics {
  std::uint64_t round = 0;
  std::size_t real_nodes = 0;
  std::size_t virtual_nodes = 0;
  std::size_t unmarked_edges = 0;
  std::size_t ring_edges = 0;
  std::size_t connection_edges = 0;
  /// Peers whose rule phase ran live this round (the active set); equals the
  /// participating peers under EngineOptions::full_scan.
  std::size_t active_peers = 0;
  /// Peers whose inputs were provably unchanged: their cached phase output
  /// was replayed without re-running the rules.
  std::size_t replayed_peers = 0;
  /// Peers skipped outright: provably resting (their recorded edits and the
  /// ops addressed to them cancel to a net-zero round contribution), so
  /// neither rules nor replay ran and no ops were emitted.
  std::size_t skipped_peers = 0;
  /// Subset of skipped_peers demoted to emit-only by the translation
  /// closure (DESIGN.md §6.6): still skipped -- no rules, no replay, no
  /// delta, no publish -- but their cached ops were delivered at commit
  /// because a downstream owner runs this round.
  std::size_t boundary_peers = 0;
  /// Delayed assignments still in the latency model's in-flight queue at the
  /// end of the round (0 without a nontrivial model, DESIGN.md §8).
  std::size_t inflight_messages = 0;
  /// Per-datacenter change flags: dc_changed(d) iff some owner assigned to
  /// datacenter d changed state this round, valid for d < dc_count.
  /// dc_count stays 0 unless datacenters are assigned. A pure state
  /// property, so identical across scheduler modes and thread counts -- the
  /// scenario CSV derives its per-dc convergence-lag column from it. An
  /// inline 256-bit set (the dc id domain), not a vector: RoundMetrics is
  /// copied per round by observers and must stay allocation-free.
  std::uint32_t dc_count = 0;
  std::array<std::uint64_t, 4> dc_changed_bits{};
  [[nodiscard]] bool dc_changed(std::uint8_t d) const noexcept {
    return (dc_changed_bits[d >> 6] >> (d & 63)) & 1;
  }
  /// True when this round changed the global state (fixpoint detector). With
  /// a latency model installed, a round with in-flight messages is never a
  /// fixpoint: the queued deliveries are pending state changes.
  bool changed = true;

  /// The paper's "normal edges": everything except connection edges.
  [[nodiscard]] std::size_t normal_edges() const noexcept {
    return unmarked_edges + ring_edges;
  }
  [[nodiscard]] std::size_t total_edges() const noexcept {
    return normal_edges() + connection_edges;
  }
  [[nodiscard]] std::size_t total_nodes() const noexcept {
    return real_nodes + virtual_nodes;
  }
};

struct EngineOptions {
  /// Number of worker threads for the rule phase; 1 = serial. Values > 1
  /// shard peers over a persistent worker pool (deterministic result either
  /// way).
  unsigned threads = 1;

  /// Run every peer's rule phase every round (the pre-scheduler behavior)
  /// instead of the active-set scheduler. Same observable results; the
  /// reference oracle of the equivalence tests and the bench comparison.
  bool full_scan = false;

  /// Test instrumentation: peers the scheduler would replay run live anyway
  /// and their fresh phase output is compared against the cache; mismatches
  /// are counted in Engine::replay_check_failures(). Proves the wake set
  /// sound (a replayed peer would have produced exactly the replayed
  /// output). Ignored under full_scan.
  bool paranoid_replay = false;

  // -- fault injection (beyond the paper's model; see the "Beyond the
  // model" section of CLAIMS.md)
  /// Probability that a peer does NOT act in a given round (asynchrony /
  /// partial activation). 0 = the paper's fully synchronous model. With
  /// activation faults, fixpoint detection can fire spuriously (a round in
  /// which nothing happened to act); measure against the spec instead.
  double sleep_probability = 0.0;
  /// Probability that a delayed assignment (message) is dropped at commit.
  /// The paper's model assumes reliable delivery; loss can permanently
  /// destroy information (e.g. a linearization forward), so recovery is
  /// empirical, not guaranteed.
  double message_loss = 0.0;
  /// Seed of the deterministic fault schedule.
  std::uint64_t fault_seed = 0x5EEDFA17;
};

/// Parses the engine-related command-line flags shared by the bench and
/// example binaries: --threads N, --full-scan.
[[nodiscard]] EngineOptions engine_options_from_cli(const util::Cli& cli,
                                                    EngineOptions base = {});

class Engine {
 public:
  explicit Engine(Network net, EngineOptions opt = {});

  [[nodiscard]] Network& network() noexcept { return net_; }
  [[nodiscard]] const Network& network() const noexcept { return net_; }

  /// Executes one synchronous round and reports metrics (incl. whether the
  /// state changed -- `!changed` means the network was already stable).
  RoundMetrics step();

  /// Metrics of the current state without running a round.
  [[nodiscard]] RoundMetrics measure() const;

  [[nodiscard]] std::uint64_t rounds_executed() const noexcept {
    return round_;
  }

  /// Call after out-of-band mutations (churn, fuzzing) so that fixpoint
  /// detection does not compare against a stale snapshot: the next round's
  /// `changed` is measured against the state at that round's start. Also
  /// resets the scheduler (every peer runs live, reader index rebuilt).
  /// Out-of-band mutations *without* a reset are also safe: the engine's
  /// pre-round scan picks the dirty marks up and wakes the affected peers.
  void reset_change_tracking() noexcept {
    baseline_ready_ = false;
    ++inputs_epoch_;
  }

  /// Rounds answered by a quiescence certificate (DESIGN.md §6.7): the round
  /// before was an all-skipped fixpoint round and no round input moved since,
  /// so step() returned its metrics without touching an owner. Cumulative;
  /// always 0 under full_scan, paranoid_replay or an open fault window.
  [[nodiscard]] std::uint64_t certified_rounds() const noexcept {
    return certified_rounds_;
  }

  // -- mid-run scenario hooks (timeline engine, DESIGN.md §7) ---------------
  //
  // Membership and fault events may be applied between rounds on a live,
  // persistent engine -- no reset_change_tracking, no scheduler epoch reset.
  // The membership hooks mutate the network out-of-band; the engine's
  // pre-round dirty scan (wake_out_of_band) wakes the touched peers and their
  // readers and registers index entries for edges created by the event, so
  // the active-set scheduler re-engages around the perturbation instead of
  // restarting from an all-live epoch.

  /// Joins a new peer through `contact_owner` (core::join); returns the new
  /// owner id. Under an active partition the newcomer inherits the contact's
  /// side of the cut.
  std::uint32_t join_peer(RingPos id, std::uint32_t contact_owner);
  /// Graceful departure (core::leave_gracefully).
  void leave_peer(std::uint32_t owner);
  /// Crash failure (core::crash).
  void crash_peer(std::uint32_t owner);
  /// Crash-restart (core::restart_peer): the captured peer re-enters with
  /// its stale pre-crash edges. Keeps its old owner id, partition side and
  /// datacenter assignment; the pre-round dirty scan wakes it and its new
  /// readers like any out-of-band mutation.
  void restart_peer(const PeerSnapshot& snapshot);

  /// Fault windows: adjust the fault-injection knobs mid-run (scenario
  /// loss/asynchrony windows). Takes effect from the next step(); while a
  /// fault probability is nonzero the resting-chain skip is disabled, exactly
  /// as if the engine had been constructed with the value. Setting a knob
  /// back to zero RE-ARMS the skip immediately: skip_possible() reads the
  /// live values. Re-arming right at the window edge relies on every drop or
  /// missed activation during the window having left a digest trail that
  /// keeps the affected peers woken -- a peer that is quiescent in the first
  /// fault-free round is then quiescent for exactly the same reason as one
  /// that never saw the window (tests/test_scheduler.cpp pins a post-window
  /// fixpoint round to the never-faulted cost). Loss coins and sleep coins
  /// are re-drawn per delivery and round, so the trail is left; a partition
  /// cut is not -- it drops the same delivery every round, which is why
  /// clear_partition() arms a one-round grace instead. Messages still queued
  /// from the window need no grace period: the rule-(3) eviction keeps every
  /// owner an in-flight message references out of the skip set until the
  /// queue drains.
  void set_message_loss(double p) noexcept {
    opt_.message_loss = p;
    ++inputs_epoch_;
  }
  void set_sleep_probability(double p) noexcept {
    opt_.sleep_probability = p;
    ++inputs_epoch_;
  }

  /// Begins a partition window: a delayed assignment whose target owner and
  /// payload owner sit on different sides of the cut is dropped at commit
  /// (the sender cannot reach across). `group_of_owner[o]` is owner o's side;
  /// owners beyond the vector (e.g. peers that join later without a contact)
  /// default to side 0. Existing edges are untouched -- only message delivery
  /// is cut, matching the engine's message-level fault model.
  void set_partition(std::vector<std::uint8_t> group_of_owner);
  /// Ends the partition window. The next step() is a grace round in which
  /// no peer is skipped (DESIGN.md §7.3): a cut drops the same cross-cut
  /// delivery every round, so a partitioned steady state leaves no digest
  /// trail, and a resting sender would otherwise never re-emit the op the
  /// full scan now delivers. In the grace round every quiescent peer replays
  /// and re-emits; the deliveries that land leave the trail from then on.
  void clear_partition() noexcept {
    if (partition_active_) partition_grace_ = true;
    partition_active_ = false;
    partition_group_.clear();
    ++inputs_epoch_;
  }
  [[nodiscard]] bool partition_active() const noexcept {
    return partition_active_;
  }
  /// Delayed assignments dropped at the partition cut so far.
  [[nodiscard]] std::uint64_t partition_dropped() const noexcept {
    return partition_dropped_;
  }
  /// True when the active partition separates owners `a` and `b`. The
  /// request engine (net/request_engine.hpp) shares the cut with the
  /// protocol's delayed assignments through this -- a lookup hop across the
  /// partition is dropped at delivery exactly like a protocol message.
  [[nodiscard]] bool partition_cut_owners(std::uint32_t a,
                                          std::uint32_t b) const noexcept {
    if (!partition_active_) return false;
    return partition_side(a) != partition_side(b);
  }

  // -- multi-datacenter latency model (DESIGN.md §8) ------------------------
  //
  // Once installed, every delayed assignment is routed through the model: a
  // message from owner u to owner v issued at round r commits at round
  // r + delay(dc(u), dc(v)) instead of unconditionally at r. Nonzero delays
  // go through the in-flight queue (buckets by due round, deterministic
  // drain order: due bucket first, then this round's delay-0 traffic, both
  // in emission order); loss coins, partition cuts and ghost re-homing are
  // all applied at DELIVERY time, against the state of the delivery round.
  // An all-zero model keeps the queue structurally empty and reproduces the
  // synchronous pipeline bit for bit (asserted in tests/test_scenario.cpp).

  /// Installs (or replaces) the latency model. Messages already in flight
  /// keep their scheduled delivery rounds; only future sends use the new
  /// classes. Install a trivial model to close a latency window -- the
  /// queue then drains within max_delay rounds.
  void set_latency_model(LatencyModel model) {
    latency_ = std::move(model);
    latency_installed_ = true;
    ++inputs_epoch_;
  }
  [[nodiscard]] const LatencyModel& latency_model() const noexcept {
    return latency_;
  }
  [[nodiscard]] bool latency_installed() const noexcept {
    return latency_installed_;
  }
  /// Assigns owners to datacenter groups (`dc_of_owner[o]`; owners beyond
  /// the vector, and all owners before any assignment, are datacenter 0).
  /// Peers joining later through join_peer inherit their contact's group.
  void assign_datacenters(std::vector<std::uint8_t> dc_of_owner) {
    dc_of_owner_ = std::move(dc_of_owner);
    dc_max_ = 0;
    for (const std::uint8_t d : dc_of_owner_) dc_max_ = std::max(dc_max_, d);
    ++inputs_epoch_;
  }
  [[nodiscard]] std::uint8_t datacenter_of(std::uint32_t owner) const noexcept {
    return owner < dc_of_owner_.size() ? dc_of_owner_[owner] : 0;
  }
  /// Delayed assignments currently in flight (issued, not yet committed).
  [[nodiscard]] std::size_t inflight_message_count() const noexcept {
    return inflight_count_;
  }
  /// Sorted unique owners referenced (target or payload) by an in-flight
  /// message -- exactly the owners the next step() must keep out of the
  /// resting-skip set (test instrumentation). Derived by walking the queue.
  [[nodiscard]] std::vector<std::uint32_t> inflight_referenced_owners() const;
  /// True when `owner` was skipped as resting by the most recent step()
  /// (test instrumentation).
  [[nodiscard]] bool owner_was_skipped(std::uint32_t owner) const noexcept {
    return owner < skip_.size() && skip_[owner] != 0;
  }

  /// Worker-pool hook for subsystems that run their own sharded phases
  /// between rounds on the ENGINE's threads (the request engine's custody
  /// shards, net/request_engine.hpp): ensures the persistent pool exists
  /// with capacity for `ways`-way runs and returns it. The pool is shared
  /// with the rule phase -- both callers pass a shard job to WorkerPool::run
  /// from the driving thread, never concurrently (the request engine
  /// advances strictly between step() calls), so one pool serves the whole
  /// engine and the thread structure never depends on which subsystem runs.
  [[nodiscard]] WorkerPool& shared_worker_pool(unsigned ways);

  /// Per-round metrics observer, invoked at the end of every step() with the
  /// round's metrics -- regardless of which driver (scenario runner,
  /// run_to_stable, a bench loop) issues the steps. One observer at a time;
  /// pass nullptr to detach.
  void set_round_observer(std::function<void(const RoundMetrics&)> observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] const EngineOptions& options() const noexcept { return opt_; }

  /// Rule actions fired in the most recent round (see RuleActivity).
  [[nodiscard]] const RuleActivity& last_activity() const noexcept {
    return activity_;
  }
  /// Messages (delayed assignments) dropped by fault injection so far.
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return dropped_;
  }
  /// Replay cross-check mismatches observed under paranoid_replay; any
  /// nonzero value means the wake set was unsound.
  [[nodiscard]] std::uint64_t replay_check_failures() const noexcept {
    return replay_mismatches_;
  }

  /// The engine's memory by part (bench instrumentation, DESIGN.md §6.8):
  /// the recording cache by field ("cache.headers", "cache.delta",
  /// "cache.ops", "cache.op_owners", "cache.rl_rr"), the
  /// op-sender index, the per-owner scheduler arrays, the latency queue and
  /// the round scratch, followed by Network::memory_parts().
  [[nodiscard]] std::vector<MemoryPart> memory_parts() const;

 private:
  /// Cached phase output of one peer's last live run; valid (replayable)
  /// until a slot in the peer's read set changes. Storm entry invalidates
  /// every cache at once (storm rounds run bare, like the full scan).
  struct PeerCache {
    bool valid = false;
    std::uint32_t max_index = 0;
    std::vector<LocalEdit> delta;  // effective own-slot edits, in order
    std::vector<DelayedOp> ops;    // emitted delayed assignments, in order
    std::vector<Slot> rl, rr;      // per index 0..max_index
    /// Distinct owners referenced by `ops` (targets and payloads), sorted.
    /// The skip set must contain every owner a skipped peer's ops touch --
    /// payloads too, because commit-time ghost re-homing resolves a dead
    /// payload against its owner's current slots.
    std::vector<std::uint32_t> op_owners;
    /// Set by the live run that recorded this cache iff its output (delta +
    /// ops) differed from the previous recording; the engine then (re-)
    /// registers the reader/op-sender index entries. A woken peer that
    /// reproduces its old output verbatim -- the common case during
    /// recovery -- skips the registration, whose entries already exist.
    bool notes_fresh = true;
    RuleActivity activity;
  };

  Network net_;
  EngineOptions opt_;
  std::uint64_t round_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t partition_dropped_ = 0;
  std::uint64_t replay_mismatches_ = 0;
  bool partition_active_ = false;
  /// Set by clear_partition(); the next step() skips no peer, then clears it.
  bool partition_grace_ = false;
  std::vector<std::uint8_t> partition_group_;  // per owner; absent = side 0

  // Latency model state (DESIGN.md §8). inflight_[k] holds the delayed
  // assignments due at the commit of the k-th next step(); the front bucket
  // is drained into this round's commit before the freshly issued delay-0
  // traffic. Buckets preserve emission order, so the committed sequence is
  // deterministic across scheduler modes and thread counts.
  LatencyModel latency_;
  bool latency_installed_ = false;
  /// Re-decided each step(): the routing pass only runs while it can matter
  /// (nontrivial model, or a queue still draining after the model was
  /// flattened). A trivial model with an empty queue reverts to the plain
  /// pipeline -- no span recording, no routing walk.
  bool latency_round_ = false;
  std::vector<std::uint8_t> dc_of_owner_;  // per owner; absent = dc 0
  std::uint8_t dc_max_ = 0;                // largest assigned datacenter id
  std::deque<std::vector<DelayedOp>> inflight_;
  std::size_t inflight_count_ = 0;
  std::vector<DelayedOp> route_buf_;  // route_inflight scratch
  std::function<void(const RoundMetrics&)> observer_;
  RuleActivity activity_;
  bool baseline_ready_ = false;  // incremental-tracking baseline

  // Quiescence certificate (DESIGN.md §6.7). Issued at the end of a round in
  // which every live peer was skipped outright and nothing was emitted,
  // queued or changed; such a round leaves every input of the next step()
  // as it found it, so the next round is the same round. While the network's
  // topology_version() and inputs_epoch_ still match the stamps, step()
  // returns the stored metrics without touching an owner. Every setter of a
  // round input outside the network bumps inputs_epoch_; every network
  // mutation (membership hooks, direct network() edits) bumps the version.
  std::uint64_t inputs_epoch_ = 0;
  bool cert_valid_ = false;
  std::uint64_t cert_version_ = 0;
  std::uint64_t cert_epoch_ = 0;
  RoundMetrics cert_metrics_;
  std::uint64_t certified_rounds_ = 0;

  /// One worker's round state: run_range(t) writes only shards_[t], and
  /// begin_round() resets every kept shard, so a round that uses fewer
  /// shards than an earlier one leaves the rest empty and zeroed.
  struct Shard {
    RuleActivity activity;
    std::size_t active = 0, replayed = 0, skipped = 0, boundary = 0;
    std::uint64_t mismatch = 0;  // paranoid_replay cross-check failures
    /// Op queue of shards 1..T-1 (shard 0 emits into ops_ directly).
    std::vector<DelayedOp> ops;
    /// The edits of the live run in progress (RuleCtx::record).
    std::vector<LocalEdit> record;
    RuleArena arena;
    /// (owner, op count) runs recording which peer emitted which contiguous
    /// span of the shard's op queue -- the sender is what selects the delay
    /// class. Only filled in latency rounds. Emit-only owners and the
    /// deferred pass need no spans: every op they emit is delay-0 (see
    /// route_inflight).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> op_src;
    /// Owners referenced by ops the shard's live runs dropped (deferred
    /// rule (2), see lazy_evict_round_).
    std::vector<std::uint32_t> pending_evict;
    /// The dropped-op diff's open-addressing set of the fresh ops, probed
    /// once per cached op.
    std::vector<DelayedOp> fresh_set;
    PeerCache paranoid_prev;
    std::vector<std::uint32_t> live;  // owners run live, in order
  };

  // Round working set, reused across rounds so a steady-state round
  // allocates nothing (capacity persists between calls).
  std::vector<std::uint32_t> owners_;
  std::vector<DelayedOp> ops_;
  std::vector<Slot> rl_next_, rr_next_;
  std::vector<Shard> shards_;  // one per worker thread
  std::unique_ptr<WorkerPool> pool_;

  // Scheduler state (active-set mode).
  std::vector<PeerCache> cache_;          // per owner
  std::vector<std::uint8_t> wake_;        // per owner: must run live
  std::vector<std::uint8_t> skip_;        // per owner: resting, skip outright
  // Per owner: skipped in emit-only mode (translation closure) -- the
  // cached ops are delivered at commit, nothing else runs. Only ever set for
  // owners with skip_[o] == 1, and only refilled in rounds that build a skip
  // set (lazy_evict_round_): commit scans it in those rounds alone
  // (DESIGN.md §6.6, emit-only delivery).
  std::vector<std::uint8_t> boundary_;
  // op_senders_[o] = sorted owner ids whose cached ops reference o (the
  // reverse of PeerCache::op_owners). Append-only over-approximation like
  // the network's reader index; rebuilt from scratch at an epoch reset.
  std::vector<std::vector<std::uint32_t>> op_senders_;
  /// Translation-closure lazy rule (2) (DESIGN.md §6.6): in a round that
  /// builds a skip set, owners referenced by a live runner's cached ops are
  /// NOT evicted up front -- whether the fresh run keeps re-sending each op
  /// is only knowable after it ran. run_range diffs the fresh output
  /// against the cache and collects the owners referenced by *dropped* ops
  /// per shard; apply_deferred_evictions() then replays the still-skipped
  /// ones in the same round (sound: a round's own-slot edits and emissions
  /// commute -- peers read only round-start state -- so a post-pass replay
  /// commits identically to an in-pass one) and injects their skipped
  /// senders emit-only. A translating chain thus costs its live frontier
  /// plus the O(1) references the frontier actually moved, not the whole
  /// reference neighborhood of every woken peer.
  bool lazy_evict_round_ = false;
  std::vector<std::uint32_t> phase_b_;          // deferred replays, in order
  // This round's deferred-pass counts, for the metric recount: replays,
  // emit-only injections, and emit-only owners that turned into replays.
  std::size_t deferred_replays_ = 0;
  std::size_t deferred_boundary_ = 0;
  std::size_t deferred_unboundary_ = 0;
  /// Storm mode, re-decided every round: when nearly every live peer is
  /// digest-woken (mass churn / early convergence), recording caches and
  /// registering index entries costs more than it can ever save, so the
  /// round IS a full-scan round: run_range runs every peer bare. Storm entry
  /// invalidates every cache; the first calm round re-records them, the
  /// indices are rebuilt once after it, and skip re-engages.
  bool bulk_round_ = false;
  /// Mass-registration rounds (the all-live round after an epoch reset, the
  /// re-recording round after a storm): nearly every peer records a fresh
  /// cache, so per-entry incremental index registration would walk ~every
  /// delta and op in the system through scattered sorted inserts. Instead
  /// the round skips incremental registration entirely and the indices are
  /// rebuilt once from ground truth after commit -- before apply_wakes
  /// needs them -- at O(edges + cached ops) total.
  bool mass_reg_pending_ = false;
  std::vector<std::uint32_t> changed_owners_, published_owners_;
  std::vector<std::uint32_t> oob_owners_;  // out-of-band-dirty owners

  [[nodiscard]] bool active_mode() const noexcept { return !opt_.full_scan; }
  /// Skipping requires rounds to be repeatable: the per-round fault coins
  /// (activation, loss), an active partition cut, the grace round after a
  /// cut and the paranoid cross-check all force every quiescent peer
  /// through the replay path instead.
  [[nodiscard]] bool skip_possible() const noexcept {
    return active_mode() && opt_.sleep_probability <= 0.0 &&
           opt_.message_loss <= 0.0 && !partition_active_ &&
           !partition_grace_ && !opt_.paranoid_replay;
  }
  [[nodiscard]] std::uint8_t partition_side(std::uint32_t o) const noexcept {
    return o < partition_group_.size() ? partition_group_[o] : 0;
  }
  /// True when the active partition separates the two slots' owners.
  [[nodiscard]] bool partition_cut(Slot a, Slot b) const noexcept {
    return partition_side(owner_of(a)) != partition_side(owner_of(b));
  }
  void run_peers();
  /// Sizes shards_ to at least `shards` and resets every kept shard.
  void begin_round(unsigned shards);
  void run_range(std::size_t begin, std::size_t end,
                 std::vector<DelayedOp>& out, Shard& sh);
  /// `scratch` holds the targets of a bulk-removed run (the shard's arena).
  void replay_peer(std::uint32_t owner, const PeerCache& pc,
                   std::vector<DelayedOp>& out, RuleActivity& act,
                   std::vector<Slot>& scratch);
  void ensure_scheduler_arrays();
  void wake_out_of_band();
  void apply_wakes();
  void compute_skip_set();
  void apply_deferred_evictions();
  void route_inflight();
  /// True when none of `ops`, sent by `sender`, travels on a nonzero delay
  /// class (skip rule (4), and the debug checks of the delay-0 paths that
  /// bypass route_inflight).
  [[nodiscard]] bool zero_delay_ops(std::uint32_t sender,
                                    const std::vector<DelayedOp>& ops) const;
  void note_op_sender(std::uint32_t referenced, std::uint32_t sender);
  void rebuild_flow_indices();
  /// End of every step(), certified or not: the kRound trace event and the
  /// round observer.
  RoundMetrics publish_round(const RoundMetrics& mt);
};

}  // namespace rechord::core
