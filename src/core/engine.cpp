#include "core/engine.hpp"

#include <algorithm>
#include <cassert>

#include "core/churn.hpp"
#include "util/cli.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"
#include "util/sorted_vec.hpp"
#include "util/trace.hpp"

namespace rechord::core {

namespace {
// Deterministic per-(seed, round, index) coin with probability p.
bool fault_coin(std::uint64_t seed, std::uint64_t round, std::uint64_t index,
                double p) {
  return util::hash_coin(
      util::mix64(seed ^ util::mix64(round * 0x9E3779B97F4A7C15ULL + index)),
      p);
}

// Hash of a delayed assignment for the dropped-op diff's open-addressing set.
std::size_t op_hash(const DelayedOp& op) noexcept {
  std::uint64_t h = ((static_cast<std::uint64_t>(op.target) << 32) |
                     op.payload) *
                    0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(op.kind) * 0xC2B2AE3D27D4EB4FULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

// Stores [first, last) in `v` with capacity == size. A cache vector lives as
// long as its peer's cache, so growth slack would stay resident for the run.
template <class T, class It>
void assign_exact(std::vector<T>& v, It first, It last) {
  if (v.capacity() == static_cast<std::size_t>(std::distance(first, last))) {
    v.assign(first, last);
  } else {
    std::vector<T> exact(first, last);
    v.swap(exact);
  }
}
}  // namespace

EngineOptions engine_options_from_cli(const util::Cli& cli,
                                      EngineOptions base) {
  base.threads = static_cast<unsigned>(std::max<std::int64_t>(
      1, cli.get_int("threads", static_cast<std::int64_t>(base.threads))));
  if (cli.get_flag("full-scan")) base.full_scan = true;
  return base;
}

Engine::Engine(Network net, EngineOptions opt)
    : net_(std::move(net)), opt_(opt) {
  if (opt_.threads == 0) opt_.threads = 1;
}

std::uint32_t Engine::join_peer(RingPos id, std::uint32_t contact_owner) {
  const std::uint32_t owner = join(net_, id, contact_owner);
  if (partition_active_) {
    // The newcomer can only talk to its contact, so it joins the contact's
    // side of the cut; otherwise its bootstrap messages would all be dropped.
    if (partition_group_.size() <= owner) partition_group_.resize(owner + 1, 0);
    partition_group_[owner] = contact_owner < partition_group_.size()
                                  ? partition_group_[contact_owner]
                                  : 0;
  }
  if (!dc_of_owner_.empty()) {
    // A newcomer is racked where its contact lives: it inherits the
    // contact's datacenter group (mirrors the partition-side inheritance).
    const std::uint8_t dc = datacenter_of(contact_owner);
    if (dc_of_owner_.size() <= owner) dc_of_owner_.resize(owner + 1, 0);
    dc_of_owner_[owner] = dc;
  }
  return owner;
}

void Engine::leave_peer(std::uint32_t owner) { leave_gracefully(net_, owner); }

void Engine::crash_peer(std::uint32_t owner) { crash(net_, owner); }

void Engine::restart_peer(const PeerSnapshot& snapshot) {
  core::restart_peer(net_, snapshot);
}

std::vector<std::uint32_t> Engine::inflight_referenced_owners() const {
  std::vector<std::uint32_t> out;
  for (const auto& bucket : inflight_)
    for (const DelayedOp& op : bucket) {
      out.push_back(owner_of(op.target));
      out.push_back(owner_of(op.payload));
    }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Engine::set_partition(std::vector<std::uint8_t> group_of_owner) {
  partition_group_ = std::move(group_of_owner);
  partition_active_ = true;
  ++inputs_epoch_;
}

void Engine::ensure_scheduler_arrays() {
  const std::uint32_t n = net_.owner_count();
  if (cache_.size() < n) cache_.resize(n);
  if (wake_.size() < n) wake_.resize(n, 1);  // new owners run live
  if (skip_.size() < n) skip_.resize(n, 0);
  if (boundary_.size() < n) boundary_.resize(n, 0);
  if (op_senders_.size() < n) op_senders_.resize(n);
}

void Engine::note_op_sender(std::uint32_t referenced, std::uint32_t sender) {
  if (referenced == sender) return;  // a peer trivially rests with itself
  util::insert_sorted_unique(op_senders_[referenced], sender);
}

void Engine::rebuild_flow_indices() {
  // Exact reader index from the current edge sets, extended by the
  // op-derived entries of every surviving cache: an in-flight cached op is
  // both a future read of its target's and payload's aliveness (commit-time
  // ghost re-homing) and a skip dependency. Called at an epoch reset and at
  // a storm -> calm transition -- bulk rounds run bare, so edges they
  // created or delivered carry no incremental registrations; before any
  // peer can go quiescent again the index must be rebuilt from ground
  // truth. O(edges + cached ops).
  // Bulk path throughout: flat pair collections sorted and distributed once
  // instead of one sorted insert per entry (the mass-rebuild case touches
  // every edge and cached op in the system, where scattered inserts used to
  // dominate the whole round).
  // Fault-free rounds deliver (or provably rest) every cached op, so at the
  // round boundary the edge each cached op (re-)creates exists in its
  // target's edge set and the reader pair it implies -- (payload owner read
  // by target owner), owner-level like the commit's ghost re-homing -- is
  // exactly the pair the edge scan below derives. The per-op collection is
  // therefore only needed while a cached op's edge can go missing: message
  // loss and partition cuts drop deliveries, and a peer sleeping through a
  // round keeps its cache without re-sending, while the downstream holder
  // may still have applied its removal.
  // ... and a nonzero-delay emission is in flight rather than applied, so
  // while the latency queue is non-empty the cached-op pairs (plus the
  // queued ops' own pairs, below) must be collected explicitly.
  const bool ops_covered_by_edges = opt_.message_loss <= 0.0 &&
                                    opt_.sleep_probability <= 0.0 &&
                                    !partition_active_ && inflight_count_ == 0;
  // The pair collections are locals, released when the rebuild returns:
  // they are O(cached ops) and a rebuild is rare, so keeping them as members
  // would only hold that much memory idle between rebuilds.
  std::vector<std::uint64_t> reader_pairs, sender_pairs;
  for (const auto& bucket : inflight_)
    for (const DelayedOp& op : bucket) {
      const std::uint32_t to = owner_of(op.target), po = owner_of(op.payload);
      if (to != po)
        reader_pairs.push_back((static_cast<std::uint64_t>(po) << 32) | to);
    }
  for (std::uint32_t o = 0; o < net_.owner_count(); ++o) {
    const PeerCache& pcc = cache_[o];
    if (!pcc.valid || !net_.owner_alive(o)) continue;
    if (!ops_covered_by_edges)
      for (const DelayedOp& op : pcc.ops) {
        const std::uint32_t to = owner_of(op.target),
                            po = owner_of(op.payload);
        if (to != po)
          reader_pairs.push_back((static_cast<std::uint64_t>(po) << 32) | to);
      }
    for (std::uint32_t d : pcc.op_owners)
      if (d != o)
        sender_pairs.push_back((static_cast<std::uint64_t>(d) << 32) | o);
  }
  // Counting scatter for the op-sender index. The collection above walks
  // owners in ascending order with sorted-unique op_owners per cache, so for
  // a fixed referenced owner the senders arrive already sorted and unique --
  // no per-bucket post-processing needed.
  const std::uint32_t n = net_.owner_count();
  {
    std::vector<std::size_t> counts;
    std::vector<std::uint32_t> senders;
    util::bucket_by_key(sender_pairs, n, counts, senders);
    sender_pairs.clear();
    sender_pairs.shrink_to_fit();
    for (std::uint32_t d = 0; d < n; ++d)
      op_senders_[d].assign(
          senders.begin() + static_cast<std::ptrdiff_t>(counts[d]),
          senders.begin() + static_cast<std::ptrdiff_t>(counts[d + 1]));
  }
  net_.rebuild_reader_index(reader_pairs);
}

void Engine::compute_skip_set() {
  // Resting-chain recognition (DESIGN.md §6). A candidate is a quiescent
  // peer (valid cache, not woken): since its last executed round moved no
  // digest of its slots, that round's own recorded edits plus the delayed
  // ops addressed to it cancelled exactly -- the peer is resting, its whole
  // round contribution is the identity. Skipping it (no replay, no ops, no
  // publish) stays bit-identical to the full scan as long as the
  // cancellation partners keep up their side, which two closure rules
  // guarantee:
  //   (1) downstream: every owner referenced by a skipped peer's cached ops
  //       (targets AND payloads) is skipped too. A referenced owner that
  //       replays applies its recorded removals and needs the skipped
  //       peer's re-adds; a referenced owner whose aliveness pattern moved
  //       would resolve the op differently at commit. Either way the peer
  //       must emit -- which under the TRANSLATION CLOSURE (DESIGN.md §6.6)
  //       does not require replaying: the peer is demoted to emit-only
  //       ("boundary") -- still skipped, but its cached ops are
  //       delivered verbatim at commit (filtered per op, see there). The
  //       injection is exactly what a replay would emit (the cache IS the
  //       pure phase output), and omitting the replay's delta application
  //       is sound because the peer's own removal/re-add cancellation is
  //       omitted as a PAIR: its upstream senders are either skipped
  //       (suppressed with it) or emit duplicates, which are set-level
  //       no-ops against the un-removed edge (network.cpp documents that
  //       duplicate adds leave digests and dirty marks untouched). Hence
  //       eviction never cascades upstream through op_senders_ -- a
  //       uniformly-translating chain costs its O(frontier) live peers plus
  //       the boundary injections at the woken fringe instead of replaying
  //       end to end every round.
  //   (2) upstream: no peer running live this round has cached ops into a
  //       skipped peer. A live run may stop re-sending the op that cancels
  //       the skipped peer's recorded removal, so the skipped peer must
  //       apply that removal itself, i.e. replay. (A *replaying* upstream
  //       re-sends its cached ops verbatim; against an un-replayed resting
  //       peer those arrive as duplicate insertions and change nothing.)
  // Owners that left the system stopped emitting in both modes; their
  // cached references were evicted once via rule (2) in the round their
  // death was observed (oob scan), after which ordinary digest wakes take
  // over. Ops referencing a dead owner resolve to dropped in both modes,
  // so dead owners are not eviction seeds.
  const std::uint32_t n = net_.owner_count();
  std::fill(skip_.begin(), skip_.end(), 0);
  lazy_evict_round_ = false;
  std::uint32_t live = 0, woken = 0;
  for (std::uint32_t o = 0; o < n; ++o) {
    if (!net_.owner_alive(o)) continue;
    ++live;
    if (wake_[o]) ++woken;
  }
  // Hysteresis: entering storm mode takes 7/8 of the live peers woken,
  // leaving it takes the storm dying down to a quarter -- otherwise a long
  // recovery oscillates between bare rounds and mass re-recording rounds
  // that the next storm round immediately invalidates again. The entry bar
  // is deliberately high: storm entry invalidates EVERY cache, so leaving
  // it costs one all-live re-record round plus a ground-truth index
  // rebuild -- worth it at bring-up (everyone genuinely woken, many storm
  // rounds follow) but a net loss for mid-size churn bursts, where the
  // out-of-band wake fan-out (crash normalize dirt plus readers) inflates
  // the first-round wake count far beyond the genuinely perturbed region
  // and most woken peers reproduce their cached output verbatim at a
  // fraction of a bare re-run's cost.
  const bool was_bulk = bulk_round_;
  bulk_round_ = !opt_.paranoid_replay &&
                (8 * woken > 7 * live || (bulk_round_ && 4 * woken > live));
  // Leaving a storm: the bare rounds created and delivered edges with no
  // incremental index registrations, so the indices must be rebuilt from
  // ground truth before any of this round's fresh recordings can be trusted
  // for future wakes. The rebuild is deferred to the end of the round (after
  // commit, before apply_wakes) -- during the round itself the stale index
  // is sound: it is append-only since every surviving (replayable) cache was
  // recorded, so no entry a valid cache depends on is missing, and extra
  // entries only over-wake / over-evict. Deferring lets the mass
  // re-recording round skip incremental registration entirely.
  if (was_bulk && !bulk_round_) mass_reg_pending_ = true;
  if (bulk_round_ != was_bulk) {
    util::Tracer& tr = util::Tracer::instance();
    if (tr.enabled())
      tr.note({round_, 0, woken, live, 0, 0,
               bulk_round_ ? util::TraceKind::kStormEnter
                           : util::TraceKind::kStormExit});
  }
  if (bulk_round_) {
    // A storm round IS a full-scan round: run_range runs every peer bare and
    // records nothing. Every cache goes stale at storm entry, so none may be
    // replayed or skipped until a calm round re-records it; the wake flags
    // are cleared so that consume() re-wakes exactly the owners whose
    // digests this round moved, which the hysteresis above counts.
    if (!was_bulk)
      for (PeerCache& pc : cache_) pc.valid = false;
    std::fill(wake_.begin(), wake_.end(), 0);
    return;
  }
  if (!skip_possible()) return;
  for (std::uint32_t o = 0; o < n; ++o)
    skip_[o] = net_.owner_alive(o) && cache_[o].valid && !wake_[o] ? 1 : 0;
  // Lazy rule (2): the referents of live runners are evicted AFTER the live
  // runs, and only when the fresh output really dropped the op that
  // referenced them (apply_deferred_evictions). Evictions are DIRECT only --
  // each rule below clears the skip flag of the owners it names, and
  // senders into those owners are demoted to boundary afterwards instead of
  // being evicted transitively.
  lazy_evict_round_ = true;
  const auto evict = [this](std::uint32_t d) { skip_[d] = 0; };
  for (std::uint32_t o : oob_owners_)
    if (!net_.owner_alive(o))  // departed peers: one-time rule (2) eviction
      for (std::uint32_t d : cache_[o].op_owners) evict(d);
  // Latency rules (DESIGN.md §8). (3) In-flight traffic pins its endpoints:
  // an owner referenced (target or payload) by a queued delayed assignment
  // receives -- or resolves -- a delivery the full scan also performs, so it
  // must at least replay until the queue no longer references it. The scan
  // walks the queue itself: O(queued messages) per skip-set round, and the
  // queue holds only the nonzero-delay traffic of the last max-delay rounds
  // (DESIGN.md §8.2). (4) A candidate whose cached ops travel on a
  // nonzero delay class must replay, not skip: skipping would stop its
  // emissions from entering the queue, and the active-mode queue would
  // diverge from the full scan's (the queue's emptiness gates fixpoint
  // detection). Keyed on the CLASS being nonzero, not a concrete draw --
  // jitter re-rolls every round. Its referents replay with it: the owners
  // (target and payload) of every nonzero-class op a peer with a valid cache
  // sends -- replayed or live -- are evicted. A delayed re-add cannot cancel
  // its target's recorded removal in the round it is sent, so the target
  // must apply that removal as the full scan does. Rule (3) alone misses it:
  // it sees the op only once it is queued, and nothing is queued yet in the
  // first round of a new model or datacenter assignment (nor after a run of
  // zero draws of a jittered class).
  for (const auto& bucket : inflight_)
    for (const DelayedOp& op : bucket) {
      evict(owner_of(op.target));
      evict(owner_of(op.payload));
    }
  if (latency_installed_ && !latency_.trivial())
    for (std::uint32_t o = 0; o < n; ++o) {
      const PeerCache& pc = cache_[o];
      if (!pc.valid || !net_.owner_alive(o)) continue;
      const std::uint8_t src = datacenter_of(o);
      for (const DelayedOp& op : pc.ops)
        if (latency_.cls(src, datacenter_of(owner_of(op.target))).nonzero()) {
          evict(o);
          evict(owner_of(op.target));
          evict(owner_of(op.payload));
        }
    }
  // Translation closure, boundary marking (rule (1) without a cascade):
  // every still-skipped sender whose cached ops reference an owner running
  // this round is demoted to emit-only. Dead owners are deliberately not
  // boundary sources -- ops referencing them resolve to dropped in both
  // modes, so their senders stay fully suppressed. Cost: O(owners) plus the
  // op-sender lists of the non-skipped region -- the woken fringe, not the
  // chains.
  std::fill(boundary_.begin(), boundary_.end(), 0);
  for (std::uint32_t o = 0; o < n; ++o) {
    if (skip_[o] || !net_.owner_alive(o)) continue;
    for (std::uint32_t u : op_senders_[o])
      if (skip_[u]) boundary_[u] = 1;
  }
}

void Engine::wake_out_of_band() {
  // Out-of-band mutations (churn applied without reset_change_tracking)
  // leave dirty marks between consume() and this round. The affected owners
  // and their current readers must run live *now* -- and, because this round
  // may revert the change before the digests are compared at consume(),
  // again next round: apply_wakes() re-wakes oob_owners_ after consume.
  for (std::uint32_t o = 0; o < net_.owner_count(); ++o) {
    if (!net_.owner_dirty(o)) continue;
    oob_owners_.push_back(o);
    wake_[o] = 1;
    for (std::uint32_t r : net_.readers(o)) wake_[r] = 1;
    for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
      const Slot s = slot_of(o, i);
      if (!net_.slot_dirty(s)) continue;
      // Register reader entries for edges added out-of-band (join bootstrap,
      // graceful-leave informs): the dirty slot's owner reads its targets.
      for (int k = 0; k < kEdgeKinds; ++k)
        for (Slot t : net_.edges(s, static_cast<EdgeKind>(k)))
          net_.note_reader(owner_of(t), o);
    }
  }
}

void Engine::apply_wakes() {
  // Wake invariant (DESIGN.md §6): before round t+1 starts, every peer whose
  // read set differs from the state its cache was recorded against has
  // wake_ == 1. Private (edge-set) changes wake only the owner; published
  // (aliveness / rl / rr) changes additionally wake the registered readers.
  for (std::uint32_t o : changed_owners_) wake_[o] = 1;
  for (std::uint32_t o : published_owners_)
    for (std::uint32_t r : net_.readers(o)) wake_[r] = 1;
  for (std::uint32_t o : oob_owners_) {
    wake_[o] = 1;
    for (std::uint32_t r : net_.readers(o)) wake_[r] = 1;
  }
  oob_owners_.clear();
}

void Engine::replay_peer(std::uint32_t owner, const PeerCache& pc,
                         std::vector<DelayedOp>& out, RuleActivity& act,
                         std::vector<Slot>& scratch) {
  // The peer's inputs are unchanged since its last live run, so the phase --
  // a pure function of those inputs -- would reproduce exactly the recorded
  // output. Apply it without entering the rules. This is also what rotates a
  // resting connection-edge chain in place: the recorded delta empties each
  // connection set (one kClearSet) and re-creates the head, the recorded ops
  // re-deliver the forwarded hops.
  const std::vector<LocalEdit>& delta = pc.delta;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    const LocalEdit& e = delta[i];
    switch (e.op) {
      case LocalEdit::Op::kAddEdge:
        net_.add_edge(e.slot, e.kind, e.target);
        break;
      case LocalEdit::Op::kRemoveEdge: {
        // Only effective removals were recorded, and the set is back in its
        // recorded state, so a run on one (slot, kind) that ascends in the
        // network order is a subsequence of the set: one compaction pass
        // (how rule 4 removed it) instead of an erase per edge.
        std::size_t j = i + 1;
        while (j < delta.size() && delta[j].op == LocalEdit::Op::kRemoveEdge &&
               delta[j].slot == e.slot && delta[j].kind == e.kind &&
               net_.before(delta[j - 1].target, delta[j].target))
          ++j;
        if (j - i == 1) {
          net_.remove_edge(e.slot, e.kind, e.target);
          break;
        }
        scratch.clear();
        for (std::size_t r = i; r < j; ++r) scratch.push_back(delta[r].target);
        [[maybe_unused]] const std::size_t removed =
            net_.remove_edges_bulk(e.slot, e.kind, scratch);
        assert(removed == scratch.size());
        i = j - 1;
        break;
      }
      case LocalEdit::Op::kClearSet:
        net_.clear_set(e.slot, e.kind);
        break;
      case LocalEdit::Op::kClearEdges:
        net_.clear_edges(e.slot);
        break;
      case LocalEdit::Op::kSetAlive:
        net_.set_alive(e.slot, true);
        break;
      case LocalEdit::Op::kSetDead:
        net_.set_alive(e.slot, false);
        break;
    }
  }
  out.insert(out.end(), pc.ops.begin(), pc.ops.end());
  act += pc.activity;
  for (std::uint32_t idx = 0; idx <= pc.max_index; ++idx) {
    const Slot s = slot_of(owner, idx);
    rl_next_[s] = pc.rl[idx];
    rr_next_[s] = pc.rr[idx];
  }
  for (std::uint32_t idx = pc.max_index + 1; idx < kSlotsPerOwner; ++idx) {
    const Slot s = slot_of(owner, idx);
    rl_next_[s] = kInvalidSlot;
    rr_next_[s] = kInvalidSlot;
  }
}

void Engine::run_range(std::size_t begin, std::size_t end,
                       std::vector<DelayedOp>& out, Shard& sh) {
  RuleActivity& act = sh.activity;
  RuleArena& arena = sh.arena;
  // A storm round is a full-scan round: no skip, no replay, no recording.
  const bool active = active_mode() && !bulk_round_;
  // In latency rounds, each peer's contiguous op span is recorded as
  // (owner, count) so route_inflight() can recover the sender -- the op
  // shape itself carries only target and payload.
  const bool track_src = latency_round_;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t owner = owners_[i];
    const std::size_t peer_op_base = out.size();
    const auto note_src = [&] {
      if (track_src && out.size() > peer_op_base)
        sh.op_src.emplace_back(
            owner, static_cast<std::uint32_t>(out.size() - peer_op_base));
    };
    bool check = false;
    PeerCache* pc = nullptr;
    if (active) {
      pc = &cache_[owner];
      if (skip_[owner]) {
        // Resting: the peer's recorded edits and the ops addressed to it
        // cancel, and compute_skip_set() proved the whole flow rests with
        // it. Touch nothing; count the cached activity so the rule-activity
        // metrics stay mode-independent.
        ++sh.skipped;
        act += pc->activity;
        // Emit-only (translation closure, DESIGN.md §6.6): a downstream
        // owner runs this round, so the peer's cached ops must reach the
        // commit -- exactly the emission a replay would produce. Commit
        // reads them from the cache and delivers only the ops that can
        // still change a set (see the emit-only pass there).
        if (boundary_[owner]) ++sh.boundary;
        continue;
      }
      if (pc->valid && !wake_[owner]) {
        ++sh.replayed;
        if (!opt_.paranoid_replay) {
          replay_peer(owner, *pc, out, act, arena.drop);
          note_src();
          continue;
        }
        // Paranoid: run live anyway and diff against the cache below.
        check = true;
        PeerCache& prev = sh.paranoid_prev;
        prev.delta.swap(pc->delta);
        prev.ops.swap(pc->ops);
        prev.rl.swap(pc->rl);
        prev.rr.swap(pc->rr);
        prev.max_index = pc->max_index;
        prev.activity = pc->activity;
      }
    }
    // Every peer that reaches the live rule execution counts as active --
    // under full_scan that is every participating peer -- except paranoid
    // cross-check runs, which were already counted as replays.
    if (!check) ++sh.active;
    const std::size_t op_base = out.size();
    RuleCtx ctx(net_, owner, out, arena);
    // The run records into shard scratch; the cache keeps the previous
    // recording until the comparison below decides whether to replace it.
    std::vector<LocalEdit>& record = sh.record;
    record.clear();
    if (active) ctx.record = &record;
    Rules::run_all(ctx);
    act += ctx.activity;
    // Indices above ctx.max_index are dead after rule 1; publish clears
    // their rl/rr (dead slots are invisible to digests either way).
    for (std::uint32_t idx = 0; idx <= ctx.max_index; ++idx) {
      const Slot s = slot_of(owner, idx);
      rl_next_[s] = ctx.rl_cur[idx];
      rr_next_[s] = ctx.rr_cur[idx];
    }
    for (std::uint32_t idx = ctx.max_index + 1; idx < kSlotsPerOwner; ++idx) {
      const Slot s = slot_of(owner, idx);
      rl_next_[s] = kInvalidSlot;
      rr_next_[s] = kInvalidSlot;
    }
    note_src();
    if (active) {
      const auto fresh_begin =
          out.begin() + static_cast<std::ptrdiff_t>(op_base);
      const bool output_same =
          pc->valid && !check &&
          static_cast<std::size_t>(out.end() - fresh_begin) ==
              pc->ops.size() &&
          std::equal(fresh_begin, out.end(), pc->ops.begin()) &&
          record == pc->delta;
      pc->notes_fresh = !output_same;
      if (!output_same) {
        if (lazy_evict_round_ && pc->valid && !pc->ops.empty()) {
          // Deferred rule (2): the fresh output changed, so some cached op
          // may no longer be re-sent -- collect the owners referenced by
          // the DROPPED ops only (set difference old \ fresh); a reference
          // the fresh run still emits keeps cancelling its partner, so that
          // partner may rest. An invalid cache has nothing to diff: caches
          // go invalid only at a storm entry, and until they re-record no
          // owner is a skip candidate that an eviction could concern.
          auto& pend = sh.pending_evict;
          // Fresh ops into an open-addressing set (load <= 1/2, empty
          // marked by an invalid target), then one probe per cached op.
          auto& set = sh.fresh_set;
          const std::size_t fresh =
              static_cast<std::size_t>(out.end() - fresh_begin);
          std::size_t cap = 16;
          while (cap < 2 * fresh) cap <<= 1;
          const std::size_t mask = cap - 1;
          set.assign(cap, DelayedOp{kInvalidSlot, EdgeKind::kUnmarked,
                                    kInvalidSlot});
          for (auto it = fresh_begin; it != out.end(); ++it) {
            assert(it->target != kInvalidSlot);
            std::size_t h = op_hash(*it) & mask;
            while (set[h].target != kInvalidSlot && set[h] != *it)
              h = (h + 1) & mask;
            set[h] = *it;
          }
          for (const DelayedOp& op : pc->ops) {
            std::size_t h = op_hash(op) & mask;
            while (set[h].target != kInvalidSlot && set[h] != op)
              h = (h + 1) & mask;
            if (set[h].target != kInvalidSlot) continue;  // still sent
            pend.push_back(owner_of(op.target));
            pend.push_back(owner_of(op.payload));
          }
        }
        assign_exact(pc->delta, record.begin(), record.end());
        assign_exact(pc->ops, fresh_begin, out.end());
        // Two owners per op, deduplicated in the shard's arena (the rules
        // are done with it), so the cache stores only the distinct ones.
        std::vector<Slot>& owners = arena.drop;
        owners.clear();
        for (const DelayedOp& op : pc->ops) {
          owners.push_back(owner_of(op.target));
          owners.push_back(owner_of(op.payload));
        }
        std::sort(owners.begin(), owners.end());
        assign_exact(pc->op_owners, owners.begin(),
                     std::unique(owners.begin(), owners.end()));
      }
      assign_exact(pc->rl, ctx.rl_cur.begin(),
                   ctx.rl_cur.begin() + ctx.max_index + 1);
      assign_exact(pc->rr, ctx.rr_cur.begin(),
                   ctx.rr_cur.begin() + ctx.max_index + 1);
      pc->max_index = ctx.max_index;
      pc->activity = ctx.activity;
      pc->valid = true;
      wake_[owner] = 0;
      sh.live.push_back(owner);
      if (check) {
        const PeerCache& prev = sh.paranoid_prev;
        if (prev.delta != pc->delta || prev.ops != pc->ops ||
            prev.rl != pc->rl || prev.rr != pc->rr ||
            prev.max_index != pc->max_index ||
            !(prev.activity == pc->activity))
          ++sh.mismatch;
      }
    }
  }
}

void Engine::run_peers() {
  net_.live_owners_into(owners_);
  // Activation faults: a sleeping peer keeps its state and publishes last
  // round's rl/rr unchanged; messages addressed to it are still delivered.
  // A sleeping peer is neither run nor replayed, and its wake flag (if any)
  // persists until it actually runs live.
  if (opt_.sleep_probability > 0.0) {
    std::size_t w = 0;
    for (std::uint32_t o : owners_)
      if (!fault_coin(opt_.fault_seed, round_, o, opt_.sleep_probability))
        owners_[w++] = o;
    owners_.resize(w);
  }
  const unsigned threads =
      std::min<unsigned>(opt_.threads, static_cast<unsigned>(owners_.size()));
  const bool serial = threads <= 1 || owners_.size() < 64;
  const unsigned shards = serial ? 1 : threads;
  begin_round(shards);
  if (serial) {
    run_range(0, owners_.size(), ops_, shards_[0]);
    return;
  }
  // NOTE(parallel-safety): a peer mutates only its own slots' sets (live or
  // replayed); all cross-peer effects go to the per-shard op queues, and the
  // only foreign reads are static attributes, real-slot aliveness (changes
  // only out-of-band) and previous-round rl/rr. rl_next/rr_next writes are
  // disjoint per peer, dirty marks are per-slot/per-owner, wake_/cache_
  // accesses are per-owner, and the network's metric counters are relaxed
  // atomics. Determinism: queues are concatenated in shard order, which
  // equals the serial (ascending-owner) emission order. Shard 0 emits
  // straight into ops_ (empty here); shard t > 0 into its own queue,
  // appended after it.
  WorkerPool& pool = shared_worker_pool(shards);
  const std::size_t chunk = (owners_.size() + shards - 1) / shards;
  pool.run(shards, [&](unsigned t) {
    const std::size_t begin = std::min<std::size_t>(t * chunk, owners_.size());
    const std::size_t end =
        std::min<std::size_t>(begin + chunk, owners_.size());
    run_range(begin, end, t == 0 ? ops_ : shards_[t].ops, shards_[t]);
  });
  std::size_t total = ops_.size();
  for (unsigned t = 1; t < shards; ++t) total += shards_[t].ops.size();
  ops_.reserve(total);
  for (unsigned t = 1; t < shards; ++t)
    ops_.insert(ops_.end(), shards_[t].ops.begin(), shards_[t].ops.end());
}

void Engine::begin_round(unsigned shards) {
  if (shards_.size() < shards) shards_.resize(shards);
  for (Shard& sh : shards_) {
    sh.activity = RuleActivity{};
    sh.active = sh.replayed = sh.skipped = sh.boundary = 0;
    sh.mismatch = 0;
    sh.ops.clear();
    sh.op_src.clear();
    sh.pending_evict.clear();
    sh.live.clear();
  }
}

void Engine::apply_deferred_evictions() {
  deferred_replays_ = 0;
  deferred_boundary_ = 0;
  deferred_unboundary_ = 0;
  if (!lazy_evict_round_) return;
  // Gathering in shard order visits the pending entries in the runners'
  // ascending-owner order -- the serial order -- so the deferred pass is
  // thread-count invariant.
  phase_b_.clear();
  for (const Shard& sh : shards_)
    for (const std::uint32_t d : sh.pending_evict)
      if (skip_[d]) {
        skip_[d] = 0;
        phase_b_.push_back(d);
        // An emit-only owner that now replays is no longer skipped, so it
        // leaves the boundary count too (boundary is a subset of skipped).
        if (boundary_[d]) {
          boundary_[d] = 0;
          ++deferred_unboundary_;
        }
      }
  if (phase_b_.empty()) return;
  // A deferred replay commits identically to an in-pass one: the rule phase
  // reads round-start state only, so a round's own-slot edits and emissions
  // commute. Runs single-threaded -- the set is the handful of references
  // the frontier actually dropped this round, not a sharded workload.
  RuleActivity discard;  // already counted from the cache in the skip branch
  util::Tracer& tr = util::Tracer::instance();
  const bool tracing = tr.enabled();
  for (const std::uint32_t d : phase_b_) {
    if (tracing)
      tr.note({round_, d, 0, 0, 0, 0, util::TraceKind::kDeferredEvict});
    // Appended to the tail of ops_ with no emission span: d was a skip
    // candidate, so its ops are delay-0 (see route_inflight).
    assert(!latency_round_ || zero_delay_ops(d, cache_[d].ops));
    replay_peer(d, cache_[d], ops_, discard, shards_[0].arena.drop);
    ++deferred_replays_;
    // The replay applies d's recorded removals, so d's cancellation
    // partners must emit their re-adds: inject every still-skipped sender
    // emit-only. No cascade -- an injected sender's own pair stays
    // suppressed as a pair, exactly the translation-closure argument.
    for (const std::uint32_t u : op_senders_[d]) {
      if (!skip_[u] || boundary_[u]) continue;
      boundary_[u] = 1;
      ++deferred_boundary_;
      if (tracing)
        tr.note({round_, u, d, 0, 0, 0, util::TraceKind::kBoundaryInject});
    }
  }
}

bool Engine::zero_delay_ops(std::uint32_t sender,
                            const std::vector<DelayedOp>& ops) const {
  const std::uint8_t src = datacenter_of(sender);
  return std::none_of(ops.begin(), ops.end(), [&](const DelayedOp& op) {
    return latency_.cls(src, datacenter_of(owner_of(op.target))).nonzero();
  });
}

WorkerPool& Engine::shared_worker_pool(unsigned ways) {
  if (ways < 1) ways = 1;
  if (!pool_ || pool_->worker_count() + 1 < ways)
    pool_ = std::make_unique<WorkerPool>(ways - 1);
  return *pool_;
}

void Engine::route_inflight() {
  // Routes this round's emissions through the latency model and assembles
  // the commit sequence: first the queue bucket due now (messages issued
  // delay rounds ago), then the fresh delay-0 traffic, both in emission
  // order. Nonzero-delay messages are enqueued d rounds out. The sender of
  // each op span comes from the per-shard (owner, count) runs, walked in
  // shard order -- which equals the serial ascending-owner emission order,
  // so the routed sequence is thread-count invariant. Only live runners and
  // replays can send on a nonzero delay class: skip rule (4) keeps every
  // such peer out of the skip set, so the deferred pass's replays (the tail
  // of ops_) and the emit-only owners (delivered by commit straight from
  // their caches) are delay-0 traffic by construction.
  route_buf_.clear();
  if (!inflight_.empty()) {
    route_buf_.swap(inflight_.front());
    inflight_.pop_front();
    inflight_count_ -= route_buf_.size();
  }
  std::size_t idx = 0;
  const auto route_span = [&](std::uint32_t owner, std::uint32_t count) {
    const std::uint8_t src = datacenter_of(owner);
    for (std::uint32_t k = 0; k < count; ++k, ++idx) {
      const DelayedOp& op = ops_[idx];
      const std::uint32_t d = latency_.delay(
          src, datacenter_of(owner_of(op.target)), round_, owner, op);
      if (d == 0) {
        route_buf_.push_back(op);
        continue;
      }
      while (inflight_.size() < d) inflight_.emplace_back();
      inflight_[d - 1].push_back(op);
      ++inflight_count_;
    }
  };
  for (const Shard& sh : shards_)
    for (const auto& [owner, count] : sh.op_src) route_span(owner, count);
  route_buf_.insert(route_buf_.end(),
                    ops_.begin() + static_cast<std::ptrdiff_t>(idx),
                    ops_.end());
  ops_.swap(route_buf_);
}

RoundMetrics Engine::step() {
  // Observability is bit-identical-off: every span below only reads clocks
  // into profiler buffers, and every trace event derives from deterministic
  // round state (see DESIGN.md §11).
  if (cert_valid_ && cert_version_ == net_.topology_version() &&
      cert_epoch_ == inputs_epoch_) {
    // Certified quiescent round (DESIGN.md §6.7): the previous round skipped
    // every live peer, emitted nothing and changed nothing, and no input has
    // moved since, so this round is that round again. The whole round is
    // its kFixpoint phase, timed by the same clock pair as kStepTotal.
    util::ScopedPhase span(util::Phase::kStepTotal, util::Phase::kFixpoint);
    ++round_;
    ++certified_rounds_;
    RoundMetrics mt = cert_metrics_;
    mt.round = round_;
    return publish_round(mt);
  }
  util::ScopedPhase step_span(util::Phase::kStepTotal);
  const bool active = active_mode();
  // Routing only matters while a message CAN be delayed or one still is; a
  // flattened (trivial) model with a drained queue reverts to the plain
  // pipeline for the round.
  latency_round_ = latency_installed_ &&
                   (!latency_.trivial() || inflight_count_ > 0);
  if (!baseline_ready_) {
    net_.rebuild_change_baseline();
    baseline_ready_ = true;
    if (active) {
      // Fresh scheduler epoch: everyone runs live, and instead of paying a
      // pre-round rebuild plus per-entry registration for ~every peer, the
      // indices are rebuilt once from ground truth at the end of the round
      // (mass_reg_pending_). Until then the stale index is sound for the
      // same append-only reason as at a storm exit.
      ensure_scheduler_arrays();
      mass_reg_pending_ = true;
      std::fill(wake_.begin(), wake_.end(), 1);
      oob_owners_.clear();
    }
  }
  if (active) {
    ensure_scheduler_arrays();
    {
      util::ScopedPhase span(util::Phase::kWakeScan);
      wake_out_of_band();
    }
    {
      util::ScopedPhase span(util::Phase::kSkipSet);
      compute_skip_set();
    }
  }
  partition_grace_ = false;  // the grace round, if any, is this one

  ops_.clear();
  // rl_next_/rr_next_ carry values only for the slots of owners that ran
  // this round (fully rewritten by run_range/replay_peer before publish
  // reads them); everyone else's published rl/rr stays untouched.
  if (rl_next_.size() < net_.slot_count()) {
    rl_next_.resize(net_.slot_count(), kInvalidSlot);
    rr_next_.resize(net_.slot_count(), kInvalidSlot);
  }
  {
    util::ScopedPhase span(util::Phase::kRulePhase);
    run_peers();
  }
  {
    util::ScopedPhase span(util::Phase::kDeferredEvict);
    apply_deferred_evictions();
  }
  if (latency_round_) {
    util::ScopedPhase span(util::Phase::kRouteInflight);
    route_inflight();
  }
  activity_ = RuleActivity{};
  std::size_t active_peers = 0, replayed_peers = 0, skipped_peers = 0,
              boundary_peers = 0;
  for (const Shard& sh : shards_) {
    activity_ += sh.activity;
    active_peers += sh.active;
    replayed_peers += sh.replayed;
    skipped_peers += sh.skipped;
    boundary_peers += sh.boundary;
    replay_mismatches_ += sh.mismatch;
  }
  // Deferred rule-(2) replays ran after the skip branch already counted
  // them as skipped (and, if emit-only, as boundary); recount them as the
  // replays they were, and count the emit-only injections the deferred pass
  // added.
  skipped_peers -= deferred_replays_;
  replayed_peers += deferred_replays_;
  boundary_peers = boundary_peers - deferred_unboundary_ + deferred_boundary_;
  if (active && !mass_reg_pending_) {
    util::ScopedPhase span(util::Phase::kIndexRegister);
    // Reader and op-sender entries for this round's live runs, derived
    // single-threaded from the recorded deltas and cached ops. Ops are
    // registered here, at cache time, rather than per delivery at commit:
    // the owner pair of an op never changes afterwards (replay re-emits it
    // verbatim, and commit-time ghost re-homing stays within the owner), so
    // one registration covers every future delivery, and the reader index
    // is an over-approximation, so registering an op that commit later
    // drops is harmless. Replayed deltas re-create edges whose entries
    // already exist. Mass-registration rounds skip this entirely in favor
    // of the post-commit ground-truth rebuild below.
    // Both indices are sorted-unique, so re-registering a known entry is a
    // lookup that changes nothing.
    for (const Shard& sh : shards_)
      for (std::uint32_t o : sh.live) {
        const PeerCache& pc = cache_[o];
        if (!pc.notes_fresh) continue;  // identical output: all known
        for (const LocalEdit& e : pc.delta)
          if (e.op == LocalEdit::Op::kAddEdge)
            net_.note_reader(owner_of(e.target), o);
        for (const DelayedOp& op : pc.ops)
          net_.note_reader(owner_of(op.payload), owner_of(op.target));
        for (std::uint32_t d : pc.op_owners) note_op_sender(d, o);
      }
  }

  // Commit: deliver all delayed assignments simultaneously. A message to a
  // meanwhile-deleted virtual node is absorbed by the owning peer's u_m (see
  // DESIGN.md: ghost re-homing); a message to or from a departed peer is
  // dropped. Set insertion into the sorted edge sets is commutative, so the
  // committed state is independent of delivery order and one loop delivers
  // every round. A lossy round first sorts and dedups ops_: its drop coins
  // are drawn per index, so the index must be canonical. Emit-only owners
  // only exist in skipping rounds, which are loss-free and cut-free.
  {
  util::ScopedPhase commit_span(util::Phase::kCommit);
  auto resolve = [this](Slot s) -> Slot {
    if (net_.alive(s)) return s;
    const std::uint32_t owner = owner_of(s);
    if (!net_.owner_alive(owner)) return kInvalidSlot;
    return slot_of(owner, net_.max_live_index(owner));
  };
  const auto deliver = [&](const DelayedOp& op) {
    const Slot target = resolve(op.target);
    const Slot payload = resolve(op.payload);
    if (target == kInvalidSlot || payload == kInvalidSlot) return;
    net_.add_edge(target, op.kind, payload);
  };
  const bool lossy = opt_.message_loss > 0.0;
  if (lossy) {
    std::sort(ops_.begin(), ops_.end());
    ops_.erase(std::unique(ops_.begin(), ops_.end()), ops_.end());
  }
  // Look-ahead: at scale every delivery misses twice, on the target's set
  // header and then on its elements. Fetch the header kHeaderAhead ops
  // early and the elements kDataAhead ops early, once the header is in
  // cache. A prefetch is only a hint: the state is unaffected.
  constexpr std::size_t kHeaderAhead = 16, kDataAhead = 8;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (i + kHeaderAhead < ops_.size())
      net_.prefetch_set_header(ops_[i + kHeaderAhead].target,
                               ops_[i + kHeaderAhead].kind);
    if (i + kDataAhead < ops_.size())
      net_.prefetch_set_data(ops_[i + kDataAhead].target,
                             ops_[i + kDataAhead].kind);
    const DelayedOp& op = ops_[i];
    if (partition_active_ && partition_cut(op.target, op.payload)) {
      ++partition_dropped_;
      continue;
    }
    if (lossy && fault_coin(opt_.fault_seed ^ 0xD70Full, round_, i,
                            opt_.message_loss)) {
      ++dropped_;
      continue;
    }
    deliver(op);
  }
  // Emit-only delivery (DESIGN.md §6.6), filtered per op: the owners
  // flagged in boundary_, which is refilled only in rounds that build a skip
  // set -- in any other round it holds a stale earlier round's flags, hence
  // the gate. An owner the deferred pass replayed lost its flag and already
  // emitted through ops_. Of the rest, an op whose target owner and payload
  // owner both still rest is a duplicate insertion -- the same argument that
  // lets a fully skipped peer's ops be omitted -- and a duplicate add is a
  // no-op (Network::add_edge), so it is not delivered at all. Skip-set
  // rounds are loss-free and cut-free, so the delivery order is free.
  assert(!lazy_evict_round_ || (!partition_active_ && !lossy));
  if (lazy_evict_round_)
    for (std::uint32_t u = 0; u < boundary_.size(); ++u) {
      if (!boundary_[u]) continue;
      assert(!latency_round_ || zero_delay_ops(u, cache_[u].ops));
      for (const DelayedOp& op : cache_[u].ops) {
        if (skip_[owner_of(op.target)] && skip_[owner_of(op.payload)]) {
          assert(resolve(op.target) == resolve(op.payload) ||
                 net_.has_edge(resolve(op.target), op.kind,
                               resolve(op.payload)));
          continue;
        }
        deliver(op);
      }
    }
  }
  {
  util::ScopedPhase publish_span(util::Phase::kPublishNormalize);
  // Publish this round's rl/rr for the owners that ran (live, replayed or
  // deferred-replayed: every owner in owners_ whose skip_ flag is clear),
  // live slots and dead tails alike (rule 3 results reference real slots
  // only; normalize() clears any that refer to dead slots). A peer that was
  // skipped or slept keeps its published values -- for skipped peers that
  // is exactly what a full scan would have republished; sleepers are not in
  // owners_. The full scan keeps skip_ empty: nothing is skipped.
  for (const std::uint32_t o : owners_) {
    if (!skip_.empty() && skip_[o]) continue;
    const Slot base = slot_of(o, 0);
    for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
      net_.set_rl(base + i, rl_next_[base + i]);
      net_.set_rr(base + i, rr_next_[base + i]);
    }
  }
  net_.normalize();
  }
  // Deferred mass registration: one exact rebuild over the post-commit edge
  // sets plus the surviving caches' ops replaces the per-entry registration
  // of an (almost) all-live round. Must run before apply_wakes() below reads
  // the reader index. Kept pending through storm rounds (which record no
  // caches) until the first round that does record.
  if (active && mass_reg_pending_ && !bulk_round_) {
    util::ScopedPhase span(util::Phase::kIndexRebuild);
    rebuild_flow_indices();
    mass_reg_pending_ = false;
  }
  ++round_;

  RoundMetrics mt;
  {
  util::ScopedPhase fixpoint_span(util::Phase::kFixpoint);
  mt = measure();
  mt.round = round_;
  mt.active_peers = active_peers;
  mt.replayed_peers = replayed_peers;
  mt.skipped_peers = skipped_peers;
  mt.boundary_peers = boundary_peers;
  // The full scan also collects the changed-owner lists -- not for wakes
  // (there are none), but for the per-datacenter change flags below.
  changed_owners_.clear();
  published_owners_.clear();
  mt.changed = net_.consume_round_changes(&changed_owners_, &published_owners_);
  const bool out_of_band = !oob_owners_.empty();
  if (active) apply_wakes();
  if (!dc_of_owner_.empty()) {
    // Which datacenters moved this round (per-dc convergence lag, scenario
    // CSV). Derived from the digest-level changed-owner list, a pure state
    // property -- identical across scheduler modes and thread counts.
    mt.dc_count = static_cast<std::uint32_t>(dc_max_) + 1;
    for (const std::uint32_t o : changed_owners_) {
      const std::uint8_t d = datacenter_of(o);
      mt.dc_changed_bits[d >> 6] |= std::uint64_t{1} << (d & 63);
    }
  }
  // In-flight messages are pending state changes: a round that left the
  // latency queue non-empty is never a fixpoint, even when no digest moved
  // (the queued deliveries land in later rounds). Applies identically in
  // every scheduler mode, so the verdict stays mode-independent.
  if (inflight_count_ > 0) mt.changed = true;
  // Certify the round iff it was a pure skip: every live peer skipped
  // outright (no live run, no replay, deferred or not, no emit-only
  // delivery), no change, no queued message, no pending index rebuild and no
  // out-of-band dirt. paranoid_replay never certifies (skip_possible).
  cert_valid_ = skip_possible() && mt.active_peers == 0 &&
                mt.replayed_peers == 0 && mt.boundary_peers == 0 &&
                !mt.changed && inflight_count_ == 0 && !latency_round_ &&
                !bulk_round_ && !mass_reg_pending_ && !out_of_band;
  if (cert_valid_) {
    cert_version_ = net_.topology_version();
    cert_epoch_ = inputs_epoch_;
    cert_metrics_ = mt;
    // Certified rounds emit nothing, so the op buffers -- sized by the
    // largest round so far, the all-live recording round at a large
    // fixpoint -- would sit idle until the next perturbation: release them.
    // The next round that emits regrows them.
    for (std::vector<DelayedOp>* v : {&ops_, &route_buf_}) {
      v->clear();
      v->shrink_to_fit();
    }
    for (Shard& sh : shards_) {
      sh.ops.clear();
      sh.ops.shrink_to_fit();
    }
  }
  }
  return publish_round(mt);
}

RoundMetrics Engine::publish_round(const RoundMetrics& mt) {
  util::Tracer& tr = util::Tracer::instance();
  if (tr.enabled())
    tr.note({round_, 0, mt.active_peers, mt.replayed_peers, mt.skipped_peers,
             mt.boundary_peers, util::TraceKind::kRound});
  if (observer_) observer_(mt);
  return mt;
}

std::vector<MemoryPart> Engine::memory_parts() const {
  MemoryPart headers{"cache.headers"}, delta{"cache.delta"}, ops{"cache.ops"},
      op_owners{"cache.op_owners"}, rl_rr{"cache.rl_rr"},
      senders{"engine.op_senders"},
      owner_arrays{"engine.owner_arrays"}, inflight{"engine.inflight"},
      scratch{"engine.round_scratch"};
  headers.add(cache_);
  for (const PeerCache& pc : cache_) {
    delta.add(pc.delta);
    ops.add(pc.ops);
    op_owners.add(pc.op_owners);
    rl_rr.add(pc.rl);
    rl_rr.add(pc.rr);
  }
  senders.add(op_senders_);
  for (const auto& v : op_senders_) senders.add(v);
  owner_arrays.add(wake_);
  owner_arrays.add(skip_);
  owner_arrays.add(boundary_);
  owner_arrays.add(partition_group_);
  owner_arrays.add(dc_of_owner_);
  for (const auto& bucket : inflight_) inflight.add(bucket);
  scratch.add(owners_);
  scratch.add(ops_);
  scratch.add(route_buf_);
  scratch.add(rl_next_);
  scratch.add(rr_next_);
  scratch.add(phase_b_);
  scratch.add(changed_owners_);
  scratch.add(published_owners_);
  scratch.add(oob_owners_);
  scratch.add(shards_);
  for (const Shard& sh : shards_) {
    scratch.add(sh.ops);
    scratch.add(sh.record);
    scratch.add(sh.op_src);
    scratch.add(sh.pending_evict);
    scratch.add(sh.fresh_set);
    scratch.add(sh.live);
    const RuleArena& a = sh.arena;
    for (const auto* v : {&a.siblings, &a.known, &a.known_real, &a.scratch,
                          &a.cand, &a.held, &a.drop})
      scratch.add(*v);
    const PeerCache& pc = sh.paranoid_prev;
    scratch.add(pc.delta);
    scratch.add(pc.ops);
    scratch.add(pc.rl);
    scratch.add(pc.rr);
  }
  std::vector<MemoryPart> parts = {headers, delta,        ops,
                                   op_owners, rl_rr,      senders,
                                   owner_arrays, inflight, scratch};
  for (const MemoryPart& p : net_.memory_parts()) parts.push_back(p);
  return parts;
}

RoundMetrics Engine::measure() const {
  RoundMetrics mt;
  mt.round = round_;
  mt.real_nodes = net_.alive_owner_count();
  mt.virtual_nodes = net_.live_virtual_count();
  mt.unmarked_edges = net_.edge_count(EdgeKind::kUnmarked);
  mt.ring_edges = net_.edge_count(EdgeKind::kRing);
  mt.connection_edges = net_.edge_count(EdgeKind::kConnection);
  mt.inflight_messages = inflight_count_;
  mt.changed = true;
  return mt;
}

}  // namespace rechord::core
