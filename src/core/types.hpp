#pragma once
// Core vocabulary types of the Re-Chord simulation.
//
// Every peer (real node) `u` owns up to 64 virtual nodes u_i = u + 2^-i.
// A (real or virtual) node is addressed by a *slot*: owner * 65 + i with
// i == 0 for the real node itself. Slot ids are stable for the lifetime of a
// network, so edges are plain slot references.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ident/ring_pos.hpp"

namespace rechord::core {

using ident::RingPos;

/// Dense node address: owner * kSlotsPerOwner + index.
using Slot = std::uint32_t;

/// Index 0 is the real node u_0 = u; indices 1..64 are virtual nodes.
inline constexpr std::uint32_t kSlotsPerOwner = 65;

inline constexpr Slot kInvalidSlot = 0xFFFFFFFFU;

/// The three edge markings of the paper: E = Eu ∪ Er ∪ Ec (multigraph --
/// the same (u,v) pair may carry several markings simultaneously).
enum class EdgeKind : std::uint8_t { kUnmarked = 0, kRing = 1, kConnection = 2 };

inline constexpr int kEdgeKinds = 3;

[[nodiscard]] constexpr Slot slot_of(std::uint32_t owner,
                                     std::uint32_t index) noexcept {
  return owner * kSlotsPerOwner + index;
}
[[nodiscard]] constexpr std::uint32_t owner_of(Slot s) noexcept {
  return s / kSlotsPerOwner;
}
[[nodiscard]] constexpr std::uint32_t index_of(Slot s) noexcept {
  return s % kSlotsPerOwner;
}
/// True for u_0 slots (the peers themselves), i.e. members of V_r.
[[nodiscard]] constexpr bool is_real_slot(Slot s) noexcept {
  return index_of(s) == 0;
}

/// Sort key of the strict total order on nodes: position first, then
/// virtual-before-real, then slot id. Refines the paper's "<" on identifiers
/// with a deterministic tie-break (ties have measure zero for random ids).
struct OrderKey {
  std::uint64_t pos;
  std::uint64_t tie;
  friend constexpr bool operator==(const OrderKey&,
                                   const OrderKey&) noexcept = default;
  friend constexpr auto operator<=>(const OrderKey&,
                                    const OrderKey&) noexcept = default;
};

/// One *effective* mutation of a peer's own slots, recorded during a live
/// rule phase (RuleCtx::record). The active-set scheduler replays the
/// recorded sequence verbatim while the peer's inputs are provably
/// unchanged: on an identical start state the same sequence reproduces the
/// identical end-of-phase state, including the stationary connection-chain
/// rotation, without re-entering the rules.
struct LocalEdit {
  enum class Op : std::uint8_t {
    kAddEdge,     // add_edge(slot, kind, target)
    kRemoveEdge,  // remove_edge(slot, kind, target)
    kClearEdges,  // clear_edges(slot)
    kSetAlive,    // set_alive(slot, true)
    kSetDead,     // set_alive(slot, false)
    kClearSet,    // clear_set(slot, kind): one edge set emptied
  };
  Slot slot;
  Slot target;  // kAddEdge / kRemoveEdge only
  Op op;
  EdgeKind kind;  // kAddEdge / kRemoveEdge / kClearSet only

  friend constexpr bool operator==(const LocalEdit&,
                                   const LocalEdit&) noexcept = default;
};

/// Memory held by one part of the simulator's state (Network::memory_parts,
/// Engine::memory_parts). `bytes` is elements x element size, a pure
/// function of the simulated state; `reserved_bytes` is the capacity behind
/// them, which also depends on the allocator's growth policy. bench_perf
/// pins the first and reports the second.
struct MemoryPart {
  const char* name = "";
  std::size_t bytes = 0;
  std::size_t reserved_bytes = 0;

  template <class T>
  void add(const std::vector<T>& v) noexcept {
    bytes += v.size() * sizeof(T);
    reserved_bytes += v.capacity() * sizeof(T);
  }
};

/// A cross-node state change: the paper's "delayed assignment" A ⇐ B.
/// All cross-node commands in rules 1-6 are set insertions, so one op shape
/// suffices: insert `payload` into edge set `kind` of node `target` at the
/// end of the round.
struct DelayedOp {
  Slot target;
  EdgeKind kind;
  Slot payload;

  friend constexpr bool operator==(const DelayedOp&,
                                   const DelayedOp&) noexcept = default;
  friend constexpr auto operator<=>(const DelayedOp& a,
                                    const DelayedOp& b) noexcept {
    if (auto c = a.target <=> b.target; c != 0) return c;
    if (auto c = static_cast<int>(a.kind) <=> static_cast<int>(b.kind); c != 0)
      return c;
    return a.payload <=> b.payload;
  }
};

}  // namespace rechord::core
