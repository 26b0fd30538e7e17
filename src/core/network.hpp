#pragma once
// The mutable overlay-network state: which slots (real/virtual nodes) are
// alive, their ring positions, their three outgoing edge sets, and the
// published closest-real-neighbor variables rl/rr.
//
// Edge sets are kept sorted under the network's total node order
// (position, virtual-before-real, slot id), so the min/max-neighbor guards
// of the protocol rules are binary searches. The order refines the paper's
// "<" on identifiers: ties (measure zero for random ids) are broken
// deterministically.
//
// Change tracking (see DESIGN.md, "Incremental change tracking"): every
// mutator marks the touched slot dirty; consume_round_changes() re-hashes
// only the dirty slots against a per-slot digest baseline, so an unchanged
// round is detected in O(live slots) instead of serializing the whole state.

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace rechord::core {

namespace detail {

/// Copyable relaxed atomic cell. Rule workers on different threads bump the
/// metric counters concurrently; the updates are commutative, so relaxed
/// ordering suffices and the end-of-round reads are exact.
template <typename T>
class RelaxedCell {
 public:
  RelaxedCell() = default;
  RelaxedCell(const RelaxedCell& o) noexcept : v_(o.load()) {}
  RelaxedCell& operator=(const RelaxedCell& o) noexcept {
    store(o.load());
    return *this;
  }
  [[nodiscard]] T load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void store(T v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(T d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }

 private:
  std::atomic<T> v_{};
};

}  // namespace detail

class Network {
 public:
  /// Builds a network of real peers with the given (distinct) identifiers.
  /// Only the u_0 slots are alive initially and no edges exist; callers add
  /// initial edges (generators) and then run the engine.
  explicit Network(std::span<const RingPos> real_ids);

  // -- owners ---------------------------------------------------------------

  [[nodiscard]] std::uint32_t owner_count() const noexcept {
    return static_cast<std::uint32_t>(owner_pos_.size());
  }
  [[nodiscard]] bool owner_alive(std::uint32_t owner) const noexcept {
    return alive_[slot_of(owner, 0)];
  }
  [[nodiscard]] std::uint32_t alive_owner_count() const noexcept {
    return static_cast<std::uint32_t>(live_reals_.load());
  }
  [[nodiscard]] RingPos owner_pos(std::uint32_t owner) const noexcept {
    return owner_pos_[owner];
  }
  /// Adds a new peer (all slots dead except u_0); returns the owner id.
  /// The id must be distinct from every live owner's id.
  std::uint32_t add_owner(RingPos id);
  /// Owner ids of all live peers, ascending.
  [[nodiscard]] std::vector<std::uint32_t> live_owners() const;
  /// Allocation-free variant: fills `out` with live owner ids, ascending.
  void live_owners_into(std::vector<std::uint32_t>& out) const;

  // -- slots ----------------------------------------------------------------

  [[nodiscard]] std::uint32_t slot_count() const noexcept {
    return static_cast<std::uint32_t>(alive_.size());
  }
  [[nodiscard]] bool alive(Slot s) const noexcept { return alive_[s]; }
  [[nodiscard]] RingPos pos(Slot s) const noexcept { return pos_[s]; }
  /// Largest live index of this owner (the paper's u_m); 0 when only the
  /// real slot is alive; meaningless for dead owners.
  [[nodiscard]] std::uint32_t max_live_index(std::uint32_t owner) const noexcept;
  /// All live slots, ascending slot id.
  [[nodiscard]] std::vector<Slot> live_slots() const;
  /// Live slots of one owner, ascending index.
  [[nodiscard]] std::vector<Slot> live_slots_of(std::uint32_t owner) const;

  /// Marks a slot alive/dead; returns false when already in that state. Does
  /// not touch edges; the engine's commit pass re-homes or drops references
  /// to dead slots. The flag write is a relaxed atomic store: during the
  /// sharded rule phase add_edge on another thread may read a foreign slot's
  /// flag for dead_refs_ tracking (any torn-free value is conservative
  /// there), and plain byte writes would be a formal data race with that
  /// read.
  bool set_alive(Slot s, bool alive) {
    if (alive_[s] == static_cast<std::uint8_t>(alive ? 1 : 0)) return false;
    const std::int64_t delta = alive ? 1 : -1;
    std::atomic_ref<std::uint8_t>(alive_[s]).store(
        alive ? 1 : 0, std::memory_order_relaxed);
    live_slots_.add(delta);
    if (is_real_slot(s)) live_reals_.add(delta);
    for (int k = 0; k < kEdgeKinds; ++k)
      edge_live_[k].add(delta * static_cast<std::int64_t>(sets_[k][s].size()));
    if (!alive) dead_refs_.store(1);
    mark_dirty(s);
    return true;
  }

  // -- total order ----------------------------------------------------------

  /// Strict total order used for every "<" in the rules: by position, then
  /// virtual-before-real, then slot id.
  [[nodiscard]] bool before(Slot a, Slot b) const noexcept {
    return order_key(a) < order_key(b);
  }
  [[nodiscard]] OrderKey order_key(Slot s) const noexcept {
    return {pos_[s],
            (static_cast<std::uint64_t>(is_real_slot(s) ? 1U : 0U) << 32) | s};
  }

  // -- edge sets ------------------------------------------------------------

  [[nodiscard]] const std::vector<Slot>& edges(Slot s,
                                               EdgeKind k) const noexcept {
    return sets_[static_cast<std::size_t>(k)][s];
  }
  /// Inserts (s -> target); returns false for self-edges and duplicates.
  /// CONTRACT (the scheduler's translation closure leans on this, DESIGN.md
  /// §6.6): a duplicate insertion is a complete no-op -- no dirty mark, no
  /// digest movement, no reader wake. The engine injects the cached ops of
  /// emit-only ("boundary") peers into the commit, where deliveries into
  /// still-resting targets re-add edges that are already present; because
  /// those arrivals leave the change tracking untouched, the injection
  /// cannot wake anyone spuriously and a fixpoint round stays a fixpoint.
  bool add_edge(Slot s, EdgeKind k, Slot target);
  /// Removes (s -> target); returns false if absent.
  bool remove_edge(Slot s, EdgeKind k, Slot target);
  /// Removes (s -> t) for every t in `targets` in one compaction pass;
  /// `targets` must be a subsequence of edges(s, k): same order, every
  /// element present. Equivalent to calling remove_edge per target, except
  /// that the slot is marked dirty once; returns targets.size().
  std::size_t remove_edges_bulk(Slot s, EdgeKind k,
                                std::span<const Slot> targets);
  [[nodiscard]] bool has_edge(Slot s, EdgeKind k, Slot target) const noexcept;
  /// Cache hints for a commit loop that looks ahead over its ops: fetch the
  /// vector header of edges(s, k), and (once that header is cached) the
  /// first line of the set's elements. No effect on the state; prefetching
  /// an empty set's null data() is harmless.
  void prefetch_set_header(Slot s, EdgeKind k) const noexcept {
    __builtin_prefetch(&sets_[static_cast<std::size_t>(k)][s]);
  }
  void prefetch_set_data(Slot s, EdgeKind k) const noexcept {
    __builtin_prefetch(sets_[static_cast<std::size_t>(k)][s].data());
  }
  /// Clears all three sets of `s`; returns false when they were empty.
  bool clear_edges(Slot s);
  /// Clears edges(s, k); returns false when it was empty. Equivalent to
  /// remove_edges_bulk over the whole set, capacity kept alike.
  bool clear_set(Slot s, EdgeKind k);

  // -- published closest-real-neighbor variables (previous round) ------------

  [[nodiscard]] Slot rl(Slot s) const noexcept { return rl_[s]; }
  [[nodiscard]] Slot rr(Slot s) const noexcept { return rr_[s]; }
  void set_rl(Slot s, Slot v) noexcept {
    if (rl_[s] == v) return;
    rl_[s] = v;
    if (v != kInvalidSlot && !alive_[v]) dead_refs_.store(1);
    mark_dirty(s);
  }
  void set_rr(Slot s, Slot v) noexcept {
    if (rr_[s] == v) return;
    rr_[s] = v;
    if (v != kInvalidSlot && !alive_[v]) dead_refs_.store(1);
    mark_dirty(s);
  }

  // -- whole-state operations -------------------------------------------------

  /// Rewrites every reference to a dead slot to the owning peer's u_m (a dead
  /// owner's references are dropped), removes self-edges and duplicates.
  /// Physically, an edge to a virtual node is a connection to the peer that
  /// simulates it, so the peer re-homes links for deleted siblings.
  /// No-op unless a mutation since the last normalize() could have introduced
  /// a dead reference (slot death, or an edge/rl/rr stored to a dead slot).
  void normalize();

  /// Deterministic serialization of the full state (alive flags, edges,
  /// rl/rr) for exact fixpoint detection.
  [[nodiscard]] std::vector<std::uint64_t> serialize_state() const;

  /// 64-bit digest of serialize_state() (for cheap change tracking).
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  // -- incremental change tracking -------------------------------------------

  /// True iff some dirty slot's state differs from the digest baseline, i.e.
  /// when serialize_state() would differ from its value at the last baseline
  /// point (equivalence holds up to a 64-bit digest collision, ~2^-64 per
  /// dirty slot -- a serialize_state() comparison is exact). Clears the
  /// dirty marks and advances the baseline to the current state. O(live
  /// slots) when nothing changed.
  bool consume_round_changes();

  /// Like consume_round_changes(), but additionally reports (appends) the
  /// owners affected by the round's changes, split by visibility class --
  /// the wake inputs of the engine's active-set scheduler (DESIGN.md §6):
  ///   * `changed_owners`: owners with ANY slot whose full digest moved.
  ///     Their own phase inputs changed; they must run live next round.
  ///   * `published_owners`: owners with a slot whose *published* state
  ///     (aliveness, rl, rr -- the only cross-peer-readable variables per
  ///     the rules' read-set contract) moved. Peers holding edges to them
  ///     (`readers()`) must run live next round; pure edge-set changes stay
  ///     private and wake nobody else.
  bool consume_round_changes(std::vector<std::uint32_t>* changed_owners,
                             std::vector<std::uint32_t>* published_owners);

  /// Recomputes the digest baseline from the full current state (O(state)).
  /// Call after out-of-band bulk edits when the next consume_round_changes()
  /// should be measured against the state as of *now*.
  void rebuild_change_baseline();

  /// Monotonic mutation counter, bumped by every mutator that marks a slot
  /// dirty (edges, aliveness, rl/rr). Unlike the dirty marks it is never
  /// consumed, so derived per-owner state cached OUTSIDE the engine (the
  /// request engine's routing rows) can validate with a single load: equal
  /// version => the inputs of the cached value are unchanged. Conservative
  /// the other way -- rl/rr churn bumps it without affecting routing rows.
  /// Starts at 1; 0 is free for "never computed" stamps.
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return topo_version_.load();
  }

  /// True when any mutation since the last consume_round_changes() touched
  /// this owner / this slot (the marks consume() clears). Between rounds a
  /// set mark can only come from an out-of-band mutation -- the engine's
  /// pre-round scan uses exactly that to wake the affected peers.
  [[nodiscard]] bool owner_dirty(std::uint32_t owner) const noexcept {
    return owner_dirty_[owner] != 0;
  }
  [[nodiscard]] bool slot_dirty(Slot s) const noexcept {
    return slot_dirty_[s] != 0;
  }

  // -- reverse-dependency (reader) index -------------------------------------
  //
  // readers(o) over-approximates "peers whose rule phase reads owner o's
  // published state": every peer that holds (or since the last rebuild held)
  // an edge of any kind to one of o's slots. Maintained by the engine --
  // note_reader() is NOT called from the mutators because the sharded rule
  // phase would race on the per-owner vectors; the engine derives the notes
  // from recorded LocalEdits and commit deliveries single-threaded.

  /// Registers `reader_owner` as a reader of `target_owner` (idempotent).
  /// Single-threaded use only.
  void note_reader(std::uint32_t target_owner, std::uint32_t reader_owner);
  /// Sorted owner ids registered as readers of `owner`.
  [[nodiscard]] const std::vector<std::uint32_t>& readers(
      std::uint32_t owner) const noexcept {
    return readers_[owner];
  }
  /// Rebuilds the reader index exactly from the current edge sets plus the
  /// caller-supplied extra entries, each packed as
  /// (target_owner << 32) | reader_owner (the engine passes its cached-op
  /// dependencies). Bulk path: one flat collect + sort + unique + distribute
  /// instead of per-entry sorted inserts -- O(E log E) sequential, which at
  /// mass-rebuild scale (every edge in the system) is several times faster
  /// than the scattered-insert equivalent.
  void rebuild_reader_index(std::span<const std::uint64_t> extra_pairs = {});

  // -- metrics ---------------------------------------------------------------

  [[nodiscard]] std::size_t edge_count(EdgeKind k) const noexcept {
    return static_cast<std::size_t>(
        edge_live_[static_cast<std::size_t>(k)].load());
  }
  [[nodiscard]] std::size_t live_slot_count() const noexcept {
    return static_cast<std::size_t>(live_slots_.load());
  }
  [[nodiscard]] std::size_t live_virtual_count() const noexcept {
    return static_cast<std::size_t>(live_slots_.load() - live_reals_.load());
  }
  /// Bytes currently reserved by all edge-set vectors (bench instrumentation).
  [[nodiscard]] std::size_t edge_set_bytes() const noexcept;
  /// The network's memory by part (bench instrumentation): "net.slot_arrays"
  /// (every per-slot array, the three edge-set headers per slot included),
  /// "net.owner_arrays", "net.edge_sets" (the elements) and
  /// "net.reader_index".
  [[nodiscard]] std::vector<MemoryPart> memory_parts() const;

  /// Human-readable description of a slot, e.g. "0.250000(v3@7)" -- used in
  /// test failure messages and DOT labels.
  [[nodiscard]] std::string describe(Slot s) const;

 private:
  std::vector<RingPos> owner_pos_;
  std::vector<RingPos> pos_;        // per slot
  std::vector<std::uint8_t> alive_; // per slot
  std::vector<Slot> rl_, rr_;       // per slot, kInvalidSlot when unknown
  // sets_[kind][slot] = sorted vector of targets (by order_key).
  std::vector<std::vector<Slot>> sets_[kEdgeKinds];

  // Change tracking. A peer's rule phase only dirties its own slots, so the
  // per-slot/per-owner marks are written race-free under the engine's
  // peer-sharded parallelism; the counters are relaxed atomics.
  std::vector<std::uint8_t> slot_dirty_;    // per slot
  std::vector<std::uint8_t> owner_dirty_;   // per owner
  std::vector<std::uint64_t> slot_digest_;  // per slot baseline
  std::vector<std::uint64_t> pub_digest_;   // per slot published-state baseline
  // readers_[o] = sorted owner ids with an edge into one of o's slots.
  std::vector<std::vector<std::uint32_t>> readers_;
  detail::RelaxedCell<std::int64_t> edge_live_[kEdgeKinds];  // live slots only
  detail::RelaxedCell<std::int64_t> live_slots_;
  detail::RelaxedCell<std::int64_t> live_reals_;
  /// Set when a mutation may have introduced a reference to a dead slot;
  /// cleared by normalize() once every reference is live again.
  detail::RelaxedCell<std::uint8_t> dead_refs_;
  detail::RelaxedCell<std::uint64_t> topo_version_;  // see topology_version()

  std::vector<Slot> merge_buf_;  // single-threaded scratch (normalize only)

  void mark_dirty(Slot s) noexcept {
    slot_dirty_[s] = 1;
    owner_dirty_[owner_of(s)] = 1;
    topo_version_.add(1);
  }
  [[nodiscard]] std::uint64_t slot_digest(Slot s) const noexcept;
  /// Digest of the published (cross-peer-readable) part of a slot: aliveness
  /// and rl/rr. 0 for dead slots.
  [[nodiscard]] std::uint64_t pub_digest(Slot s) const noexcept;
  /// Sizes every per-slot and per-owner array for `owners` owners.
  void grow_slots(std::uint32_t owners);
  /// Sets the positions of a new owner's slots and makes its u_0 alive.
  void place_owner(std::uint32_t owner);
};

}  // namespace rechord::core
