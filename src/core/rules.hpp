#pragma once
// The six self-stabilization rules of Re-Chord (paper §2.3), executed once
// per synchronous round by every real node (peer) on behalf of all of its
// virtual nodes.
//
// Semantics follow the paper exactly:
//   * rules run in the order 1..6 within each peer,
//   * a peer's edits to its OWN slots' sets are immediate (`:=`),
//   * edits to other nodes' sets are delayed assignments (`⇐`) collected as
//     DelayedOps and applied at the end of the round by the engine,
//   * guards that read a neighbor's variables (rule 3's `v > rl(y)`) read the
//     neighbor's previous-round published value.
// Each rule is an independent entry point so unit tests can exercise guards
// and actions in isolation. DESIGN.md documents how every textual ambiguity
// in the paper was resolved.
//
// READ-SET CONTRACT (the soundness basis of the active-set scheduler; see
// DESIGN.md §6). The phase of a peer u is a pure function of
//   (a) the full state of u's OWN slots (aliveness, all three edge sets) --
//       rules 1..6, all candidate sets and snapshots;
//   (b) static attributes of any referenced slot (position, realness) --
//       order_key comparisons, never part of the mutable state;
//   (c) the aliveness of referenced REAL slots -- compute_m only; real
//       aliveness changes exclusively out-of-band (churn), never in-phase;
//   (d) the previous-round *published* rl/rr of slots referenced by u's
//       unmarked edges -- rule 3's inform guard, frozen during the phase.
// No rule reads another node's edge sets. Every write to another node's
// state is a DelayedOp; every write to u's own slots goes through the
// RuleCtx wrappers below so the engine can record the effective mutations
// (LocalEdit) and replay the phase verbatim while (a)-(d) are unchanged.
//
// A corollary the translation closure (DESIGN.md §6.6) relies on: because
// the recorded DelayedOps carry absolute slot addresses and are a pure
// function of (a)-(d), the scheduler may re-EMIT a quiescent peer's cached
// ops without re-running the rules or applying its LocalEdits -- the
// emission alone is exactly the op output a live run would produce. No
// translation tag or positional re-encoding is needed in the recorded-edit
// shape: a "sliding" chain is sliding only in the aggregate; each peer's
// own recorded output is literally unchanged while its read set is.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/network.hpp"
#include "core/types.hpp"

namespace rechord::core {

/// Counters of rule actions fired in one round -- the instrument behind the
/// phase analysis of §3 (connection, linearization, ring, closest-real,
/// cleanup) and bench/rule_activity. "Fired" counts state-visible actions
/// (edge insertions/removals/moves and delayed-op emissions), not guard
/// evaluations.
struct RuleActivity {
  std::uint64_t virtuals_created = 0;   // rule 1
  std::uint64_t virtuals_deleted = 0;   // rule 1
  std::uint64_t overlap_moves = 0;      // rule 2
  std::uint64_t real_neighbor_informs = 0;  // rule 3 (delayed ops emitted)
  std::uint64_t lin_forwards = 0;       // rule 4 lin-left/right
  std::uint64_t mirror_backedges = 0;   // rule 4 mirroring ops
  std::uint64_t ring_creates = 0;       // rule 5 create-ring-edge
  std::uint64_t ring_forwards = 0;      // rule 5 l1/r1
  std::uint64_t ring_resolves = 0;      // rule 5 l2/r2 (-> unmarked)
  std::uint64_t cedge_creates = 0;      // rule 6 connect-virtual-nodes
  std::uint64_t cedge_forwards = 0;     // rule 6 cedges-1
  std::uint64_t cedge_resolves = 0;     // rule 6 cedges-2 (-> backward edge)

  RuleActivity& operator+=(const RuleActivity& o) noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept;

  friend bool operator==(const RuleActivity&,
                         const RuleActivity&) noexcept = default;
};

/// Reusable scratch buffers backing one RuleCtx. The engine keeps one arena
/// per worker thread and reuses it across peers and rounds, so the sharded
/// rule phase allocates nothing in steady state (capacity persists; clearing
/// a vector keeps its storage).
struct RuleArena {
  std::vector<Slot> siblings;
  std::vector<Slot> known;
  std::vector<Slot> known_real;
  std::vector<Slot> scratch;
  std::vector<Slot> cand;  // rule 5/6 candidate sets
  std::vector<Slot> held;  // rule 5 held-edge snapshot
  std::vector<Slot> drop;  // rule 4 edges to remove, sorted
};

/// Per-peer scratch state threaded through the rules of one round.
struct RuleCtx {
  Network& net;
  std::uint32_t owner;
  /// Delayed cross-node ops produced by this peer this round.
  std::vector<DelayedOp>& ops;
  /// rl/rr computed by rule 3 this round, published at commit. Indexed by
  /// virtual-node index; kInvalidSlot when unknown.
  std::array<Slot, kSlotsPerOwner> rl_cur{};
  std::array<Slot, kSlotsPerOwner> rr_cur{};
  RuleActivity activity;
  /// Set when `known` is out of date w.r.t. the unmarked sets; rule 5
  /// re-refreshes lazily (see ensure_known_fresh in rules.cpp).
  bool known_stale = false;
  /// Largest slot index that may be live after rule 1 (== the owner's m).
  /// rl_cur/rr_cur above it stay kInvalidSlot, so the engine only copies
  /// back indices [0, max_index]. Conservative default for isolated-rule
  /// callers that never run rule 1.
  std::uint32_t max_index = kSlotsPerOwner - 1;

  /// When set (engine live runs under the active-set scheduler), every
  /// *effective* mutation of this peer's own slots is appended here via the
  /// wrappers below, so the phase can later be replayed verbatim.
  std::vector<LocalEdit>* record = nullptr;

  // Own-slot mutation wrappers: the ONLY write path the rules use. They
  // forward to the network and record effective mutations when requested.
  bool add_edge(Slot s, EdgeKind k, Slot target) {
    const bool did = net.add_edge(s, k, target);
    if (did && record)
      record->push_back({s, target, LocalEdit::Op::kAddEdge, k});
    return did;
  }
  bool remove_edge(Slot s, EdgeKind k, Slot target) {
    const bool did = net.remove_edge(s, k, target);
    if (did && record)
      record->push_back({s, target, LocalEdit::Op::kRemoveEdge, k});
    return did;
  }
  /// Removes (s -> t) for every t in `targets` in one pass
  /// (Network::remove_edges_bulk). `targets` must be a subsequence of
  /// edges(s, k): same order, every element present. Records one kRemoveEdge
  /// per target in `targets` order: the record a remove_edge loop over
  /// `targets` leaves, so cached deltas, replays and the paranoid
  /// comparison cannot tell the two apart.
  void remove_edges(Slot s, EdgeKind k, std::span<const Slot> targets) {
    net.remove_edges_bulk(s, k, targets);  // asserts all were removed
    if (record)
      for (Slot t : targets)
        record->push_back({s, t, LocalEdit::Op::kRemoveEdge, k});
  }
  /// Empties edges(s, k) (Network::clear_set) and records ONE kClearSet,
  /// not an edit per element: a replay meets the set in its recorded state,
  /// so emptying it is the same edit, and the record drops nothing a
  /// comparison needs -- rule 6, the caller, emits an op naming every
  /// element it held.
  void clear_set(Slot s, EdgeKind k) {
    if (net.clear_set(s, k) && record)
      record->push_back({s, kInvalidSlot, LocalEdit::Op::kClearSet, k});
  }
  void clear_edges(Slot s) {
    if (net.clear_edges(s) && record)
      record->push_back(
          {s, kInvalidSlot, LocalEdit::Op::kClearEdges, EdgeKind::kUnmarked});
  }
  void set_alive(Slot s, bool alive) {
    if (net.set_alive(s, alive) && record)
      record->push_back({s, kInvalidSlot,
                         alive ? LocalEdit::Op::kSetAlive
                               : LocalEdit::Op::kSetDead,
                         EdgeKind::kUnmarked});
  }

  /// Backing storage for the convenience constructor only; engine callers
  /// pass a long-lived arena instead.
  std::unique_ptr<RuleArena> owned_arena;

  // Scratch (refreshed by the helpers below; sorted by the network order).
  std::vector<Slot>& siblings;    // S(u): live slots of this owner
  std::vector<Slot>& known;       // N(u) = S(u) ∪ ⋃_j Nu(u_j)
  std::vector<Slot>& known_real;  // the real nodes in N(u)
  std::vector<Slot>& scratch;     // per-rule temporary
  RuleArena& arena;

  RuleCtx(Network& n, std::uint32_t o, std::vector<DelayedOp>& out,
          RuleArena& a)
      : net(n),
        owner(o),
        ops(out),
        owned_arena(nullptr),
        siblings(a.siblings),
        known(a.known),
        known_real(a.known_real),
        scratch(a.scratch),
        arena(a) {
    init();
  }

  /// Convenience for tests and one-off callers: owns a private arena.
  RuleCtx(Network& n, std::uint32_t o, std::vector<DelayedOp>& out)
      : net(n),
        owner(o),
        ops(out),
        owned_arena(std::make_unique<RuleArena>()),
        siblings(owned_arena->siblings),
        known(owned_arena->known),
        known_real(owned_arena->known_real),
        scratch(owned_arena->scratch),
        arena(*owned_arena) {
    init();
  }

 private:
  void init() {
    rl_cur.fill(kInvalidSlot);
    rr_cur.fill(kInvalidSlot);
    known_stale = false;
    siblings.clear();
    known.clear();
    known_real.clear();
    scratch.clear();
    arena.cand.clear();
    arena.held.clear();
    arena.drop.clear();
  }
};

class Rules {
 public:
  /// The exponent m of the paper: the unique m with 2^-m <= d < 2^-(m-1)
  /// where d is the clockwise distance from u to the closest real node that
  /// any of u's slots has an outgoing edge to (any marking). Returns 1 when
  /// no real node is known -- u_1 always exists.
  [[nodiscard]] static int compute_m(const Network& net, std::uint32_t owner);

  /// Rule 1 -- create u_i for i <= m, delete u_j for j > m and merge the
  /// deleted nodes' outgoing neighborhoods into u_m as unmarked edges.
  static void rule1_virtual_nodes(RuleCtx& ctx);

  /// Rule 2 -- overlapping neighborhood: hand each unmarked neighbor w of
  /// u_i to the sibling strictly between w and u_i that is closest to w.
  static void rule2_overlap(RuleCtx& ctx);

  /// Rule 3 -- closest real neighbor: compute rl/rr from N(u), connect to
  /// them, and inform unmarked neighbors that would learn something new.
  static void rule3_real_neighbors(RuleCtx& ctx);

  /// Rule 4 -- linearization: keep only the closest unmarked neighbor per
  /// side, forward the rest one hop inward, mirror backward edges from the
  /// two closest neighbors, then re-add the rl/rr edges.
  static void rule4_linearize(RuleCtx& ctx);

  /// Rule 5 -- ring edges: extremal nodes request marked ring edges; held
  /// ring edges are forwarded toward the global extremes or resolved into
  /// unmarked edges when a better-placed node is known.
  static void rule5_ring(RuleCtx& ctx);

  /// Rule 6 -- connection edges: link contiguous siblings and forward the
  /// marked connection edges greedily through the gap.
  static void rule6_connection(RuleCtx& ctx);

  /// Recomputes ctx.siblings from the network.
  static void refresh_siblings(RuleCtx& ctx);
  /// Recomputes ctx.known / ctx.known_real from the network.
  static void refresh_known(RuleCtx& ctx);

  /// Full per-round application for one peer: update m & neighborhoods, then
  /// rules 1..6 in paper order.
  static void run_all(RuleCtx& ctx);
};

}  // namespace rechord::core
