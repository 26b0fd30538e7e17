#include "baselines/ideal_chord.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "ident/ring_pos.hpp"

namespace rechord::chord {

ChordGraph ChordGraph::compute(const std::vector<RingPos>& ids) {
  ChordGraph g;
  const std::size_t n = ids.size();
  g.owners.resize(n);
  std::iota(g.owners.begin(), g.owners.end(), 0U);
  g.pos = ids;
  g.succ.assign(n, 0);
  g.pred.assign(n, 0);
  g.m.assign(n, 1);
  if (n == 0) return g;

  // Vertices sorted by position for successor queries.
  std::vector<std::uint32_t> by_pos(n);
  std::iota(by_pos.begin(), by_pos.end(), 0U);
  std::sort(by_pos.begin(), by_pos.end(), [&](auto a, auto b) {
    return ids[a] < ids[b];
  });
  std::vector<RingPos> sorted_pos(n);
  for (std::size_t i = 0; i < n; ++i) sorted_pos[i] = ids[by_pos[i]];

  // First vertex with position >= p in linear order, wrapping to the global
  // minimum (Chord's convention); `wrapped` reports whether the wrap fired.
  auto successor_of = [&](RingPos p, bool* wrapped) -> std::uint32_t {
    const auto it = std::lower_bound(sorted_pos.begin(), sorted_pos.end(), p);
    if (it == sorted_pos.end()) {
      if (wrapped) *wrapped = true;
      return by_pos[0];
    }
    if (wrapped) *wrapped = false;
    return by_pos[static_cast<std::size_t>(it - sorted_pos.begin())];
  };

  for (std::size_t si = 0; si < n; ++si) {
    const std::uint32_t v = by_pos[si];
    g.succ[v] = by_pos[(si + 1) % n];
    g.pred[v] = by_pos[(si + n - 1) % n];
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    const RingPos gap =
        n == 1 ? 0 : ident::cw_dist(ids[v], ids[g.succ[v]]);
    g.m[v] = n == 1 ? 1 : ident::exponent_for_gap(gap);
    for (int i = 1; i <= g.m[v]; ++i) {
      const RingPos target = ident::virtual_pos(ids[v], i);
      bool wrapped = false;
      const std::uint32_t to = successor_of(target, &wrapped);
      if (to == v) continue;  // self-finger
      g.fingers.push_back({v, i, to, wrapped});
    }
  }
  return g;
}

ChordGraph ChordGraph::compute(const core::Network& net) {
  const auto owners = net.live_owners();
  std::vector<RingPos> ids;
  ids.reserve(owners.size());
  for (auto o : owners) ids.push_back(net.owner_pos(o));
  ChordGraph g = compute(ids);
  g.owners = owners;
  return g;
}

SubgraphCoverage check_chord_subgraph(const ChordGraph& chord,
                                      const core::RealProjection& projection) {
  SubgraphCoverage cov;
  assert(chord.owners == projection.owners);
  const auto& g = projection.graph;
  const std::size_t n = chord.pos.size();
  for (std::uint32_t v = 0; v < n; ++v) {
    if (chord.succ[v] != v) {
      // The successor of the largest real node crosses the seam.
      const bool seam = chord.pos[chord.succ[v]] < chord.pos[v];
      auto& total = seam ? cov.wrapped_total : cov.succ_total;
      auto& covered = seam ? cov.wrapped_covered : cov.succ_covered;
      ++total;
      if (g.has_edge(v, chord.succ[v])) ++covered;
    }
    if (chord.pred[v] != v) {
      const bool seam = chord.pos[chord.pred[v]] > chord.pos[v];
      auto& total = seam ? cov.wrapped_total : cov.pred_total;
      auto& covered = seam ? cov.wrapped_covered : cov.pred_covered;
      ++total;
      if (g.has_edge(v, chord.pred[v])) ++covered;
    }
  }
  for (const Finger& f : chord.fingers) {
    if (f.wrapped) {
      ++cov.wrapped_total;
      if (g.has_edge(f.from, f.to)) ++cov.wrapped_covered;
    } else {
      ++cov.finger_total;
      if (g.has_edge(f.from, f.to)) ++cov.finger_covered;
    }
  }
  return cov;
}

}  // namespace rechord::chord
