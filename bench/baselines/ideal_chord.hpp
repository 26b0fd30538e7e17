#pragma once
// The classic Chord graph (Stoica et al., SIGCOMM'01) as defined in §1.1 of
// the Re-Chord paper: ring successor/predecessor edges plus fingers
//   p_i(v) = argmin{ w : h(w) >= h(v) + 1/2^i (mod 1) },  1 <= i <= m,
// where m satisfies h(v)+1/2^m <= h(succ(v)) <= h(v)+1/2^(m-1), and a finger
// with no node at or above its target "wraps" to the globally smallest
// identifier. Computed directly from the identifier set -- this is the ideal
// object that Fact 2.1 compares the stabilized Re-Chord network against.

#include <cstdint>
#include <vector>

#include "baselines/projection.hpp"
#include "core/network.hpp"

namespace rechord::chord {

using core::RingPos;

struct Finger {
  std::uint32_t from;  // vertex index
  int i;               // finger exponent
  std::uint32_t to;    // vertex index
  bool wrapped;        // no node >= target in linear order; took the minimum
};

struct ChordGraph {
  /// Vertex v corresponds to owners[v] (live owners, ascending id), matching
  /// core::RealProjection's vertex numbering.
  std::vector<std::uint32_t> owners;
  std::vector<RingPos> pos;
  std::vector<std::uint32_t> succ;  // clockwise successor (vertex index)
  std::vector<std::uint32_t> pred;  // clockwise predecessor
  std::vector<int> m;               // finger count per vertex
  std::vector<Finger> fingers;      // self-fingers omitted

  /// Ideal Chord over the identifier multiset (must be distinct, size >= 1).
  [[nodiscard]] static ChordGraph compute(const std::vector<RingPos>& ids);
  /// Ideal Chord over a network's live peers (vertex order = live owners).
  [[nodiscard]] static ChordGraph compute(const core::Network& net);
};

/// Fact 2.1 accounting: which ideal Chord edges are literal edges of the
/// stabilized Re-Chord real-node projection. Edges that cross the
/// identifier-space seam (the successor of the largest real node, the
/// predecessor of the smallest, and fingers whose target interval is empty
/// above) are counted separately: the stable rules define closest-real
/// neighbors in LINEAR order, so seam edges are only conditionally literal
/// (see DESIGN.md); connectivity across the seam is provided by the two ring
/// edges, and routing over the full node set never fails.
struct SubgraphCoverage {
  std::size_t succ_total = 0, succ_covered = 0;        // non-seam successors
  std::size_t pred_total = 0, pred_covered = 0;        // non-seam predecessors
  std::size_t finger_total = 0, finger_covered = 0;    // non-wrapping fingers
  std::size_t wrapped_total = 0, wrapped_covered = 0;  // all seam edges

  /// The (provable) part of Fact 2.1: every edge that does not cross the
  /// identifier-space seam.
  [[nodiscard]] bool core_subgraph_holds() const noexcept {
    return succ_covered == succ_total && pred_covered == pred_total &&
           finger_covered == finger_total;
  }
};

[[nodiscard]] SubgraphCoverage check_chord_subgraph(
    const ChordGraph& chord, const core::RealProjection& projection);

}  // namespace rechord::chord
