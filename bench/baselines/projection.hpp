#pragma once
// The Re-Chord network over the REAL nodes (paper §2.2):
//   E_ReChord = { (u,v) ∈ V_r^2 : ∃i, (u_i, v) ∈ E_u ∪ E_r }.
// Virtual nodes and connection edges exist only for self-stabilization; the
// projection is the overlay Fact 2.1 compares against ideal Chord. A
// baseline view for bench_claims and the tests: the system itself routes
// live (net::RequestEngine) and places keys by ring order (dht::RoutingView).

#include <cstdint>
#include <vector>

#include "core/network.hpp"
#include "graph/digraph.hpp"

namespace rechord::core {

struct RealProjection {
  /// proj vertex id -> owner id, ascending owner order.
  std::vector<std::uint32_t> owners;
  /// owner id -> proj vertex id (or UINT32_MAX for dead owners).
  std::vector<std::uint32_t> vertex_of_owner;
  /// Simple digraph over proj vertices; deduplicated.
  graph::Digraph graph;
  /// Ring position of each proj vertex.
  std::vector<RingPos> pos;

  [[nodiscard]] static RealProjection compute(const Network& net);
};

/// The full Re-Chord routing overlay: every live node (real AND virtual) as a
/// vertex, with all unmarked and ring edges. Peers simulate their virtual
/// nodes, so a hop through a virtual node is a real network hop to its owner;
/// routing on this view always succeeds (every non-maximal node has a
/// clockwise neighbor and the ring edges close the seam).
struct FullOverlay {
  std::vector<Slot> slots;                  // vertex id -> slot
  std::vector<std::uint32_t> vertex_of_slot;  // slot -> vertex or UINT32_MAX
  graph::Digraph graph;
  std::vector<RingPos> pos;

  [[nodiscard]] static FullOverlay compute(const Network& net);
};

}  // namespace rechord::core
