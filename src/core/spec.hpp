#pragma once
// The *specification* of the stable Re-Chord topology, computed directly from
// the set of live peer identifiers (no protocol execution). Used to
//   * detect the paper's "almost stable" state (all desired edges present,
//     extra edges allowed -- Figure 6's second series),
//   * assert that the protocol's fixpoint is exactly the desired topology,
//   * derive the Chord graph for the Fact 2.1 subgraph check.
//
// Stable topology (paper §2.2/§3.1.6): per peer u, virtual nodes u_1..u_m
// with 2^-m <= dist(u, succ_real(u)) < 2^-(m-1); every node holds unmarked
// edges to its closest left/right node and closest left/right real node (in
// linear identifier order, when they exist); the global extremes hold the two
// marked ring edges; and each contiguous-sibling gap carries a steady chain
// of connection edges (see DESIGN.md, "steady flows").
//
// Cost: compute() is O(n log n + E) for n spec nodes and E spec edges -- one
// sort of the nodes by order_key, then every comparison is a rank compare and
// each connection-chain step is O(1) (DESIGN.md §3, "Steady flows"). The
// edge sets are stored flat: per-slot offsets into one target array per
// edge kind.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/types.hpp"

namespace rechord::core {

class StableSpec {
 public:
  /// Computes the specification for the network's current live peers.
  [[nodiscard]] static StableSpec compute(const Network& net);

  /// "Almost stable": every spec node is alive and every desired unmarked and
  /// ring edge is present with the right marking (extras allowed).
  [[nodiscard]] bool almost_stable(const Network& net) const;

  /// Exact stability: live slots, all three edge sets and rl/rr match the
  /// spec precisely. On mismatch, `why` (if given) receives a description.
  [[nodiscard]] bool exact_match(const Network& net,
                                 std::string* why = nullptr) const;

  // -- introspection (tests, benches) --------------------------------------

  [[nodiscard]] const std::vector<Slot>& nodes_in_order() const noexcept {
    return sorted_nodes_;
  }
  [[nodiscard]] const std::vector<Slot>& expected_alive() const noexcept {
    return sorted_nodes_;
  }
  [[nodiscard]] int m_of(std::uint32_t owner) const noexcept {
    return m_[owner];
  }
  /// Spec edge targets of `s`, sorted by order_key; empty for slots that
  /// are not spec nodes.
  [[nodiscard]] std::span<const Slot> eu(Slot s) const noexcept {
    return eu_.targets(s);
  }
  [[nodiscard]] std::span<const Slot> er(Slot s) const noexcept {
    return er_.targets(s);
  }
  [[nodiscard]] std::span<const Slot> ec(Slot s) const noexcept {
    return ec_.targets(s);
  }
  [[nodiscard]] Slot rl(Slot s) const noexcept { return rl_[s]; }
  [[nodiscard]] Slot rr(Slot s) const noexcept { return rr_[s]; }
  /// Global minimum/maximum node (ring-edge endpoints); kInvalidSlot when
  /// the network has no live peers.
  [[nodiscard]] Slot min_node() const noexcept {
    return sorted_nodes_.empty() ? kInvalidSlot : sorted_nodes_.front();
  }
  [[nodiscard]] Slot max_node() const noexcept {
    return sorted_nodes_.empty() ? kInvalidSlot : sorted_nodes_.back();
  }
  [[nodiscard]] std::size_t spec_edge_count(EdgeKind k) const noexcept;

 private:
  /// One edge kind, flat: the targets of slot s are to[off[s] .. off[s+1]).
  struct FlatEdges {
    std::vector<std::uint32_t> off;  // per slot, plus one
    std::vector<Slot> to;
    [[nodiscard]] std::span<const Slot> targets(Slot s) const noexcept {
      return {to.data() + off[s], to.data() + off[s + 1]};
    }
    /// Fills from packed (from << 32) | to pairs over `slots` slots; each
    /// slot's targets keep their order in `pairs`.
    void assign(const std::vector<std::uint64_t>& pairs, std::uint32_t slots);
  };

  std::vector<Slot> sorted_nodes_;  // all spec-alive slots, by order
  std::vector<int> m_;              // per owner
  FlatEdges eu_, er_, ec_;
  std::vector<Slot> rl_, rr_;  // per slot
};

/// Materializes the protocol's exact fixpoint state for n random peers
/// (ids util::distinct_u64 from `seed`) directly from the StableSpec, with
/// no protocol execution. Release, 4-vCPU 2.1 GHz host: ~0.45 s at n = 10k
/// and ~3.2 s at n = 50k (spec ~0.13 s / ~0.95 s of that; the rest is the
/// network and its 2M / 14M connection-edge inserts).
[[nodiscard]] Network stable_network(std::size_t n, std::uint64_t seed);

}  // namespace rechord::core
