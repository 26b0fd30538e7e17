#include "baselines/routing.hpp"

#include <cassert>

#include "ident/ring_pos.hpp"

namespace rechord::chord {

std::uint32_t responsible_vertex(const std::vector<RingPos>& pos,
                                 RingPos key) {
  assert(!pos.empty());
  std::uint32_t best = 0;
  RingPos best_d = ident::cw_dist(key, pos[0]);
  for (std::uint32_t v = 1; v < pos.size(); ++v) {
    const RingPos d = ident::cw_dist(key, pos[v]);
    if (d < best_d) {
      best_d = d;
      best = v;
    }
  }
  return best;
}

LookupResult greedy_lookup(const graph::Digraph& g,
                           const std::vector<RingPos>& pos, std::uint32_t from,
                           RingPos key, std::size_t hop_cap) {
  LookupResult res;
  res.target = responsible_vertex(pos, key);
  std::uint32_t cur = from;
  while (cur != res.target) {
    if (res.hops >= hop_cap) return res;  // failure: too many hops
    const RingPos to_target = ident::cw_dist(pos[cur], pos[res.target]);
    std::uint32_t best = UINT32_MAX;
    RingPos best_d = 0;
    for (auto w : g.out(cur)) {
      const RingPos d = ident::cw_dist(pos[cur], pos[w]);
      if (d == 0 || d > to_target) continue;  // overshoot or self
      if (best == UINT32_MAX || d > best_d) {
        best = w;
        best_d = d;
      }
    }
    if (best == UINT32_MAX) return res;  // failure: stuck
    cur = best;
    ++res.hops;
  }
  res.success = true;
  return res;
}

}  // namespace rechord::chord
