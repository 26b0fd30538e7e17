#include "baselines/projection.hpp"

#include <algorithm>

namespace rechord::core {

RealProjection RealProjection::compute(const Network& net) {
  RealProjection proj;
  proj.owners = net.live_owners();
  proj.vertex_of_owner.assign(net.owner_count(), UINT32_MAX);
  for (std::uint32_t v = 0; v < proj.owners.size(); ++v)
    proj.vertex_of_owner[proj.owners[v]] = v;
  proj.graph = graph::Digraph(proj.owners.size());
  proj.pos.reserve(proj.owners.size());
  for (auto o : proj.owners) proj.pos.push_back(net.owner_pos(o));

  for (Slot s : net.live_slots()) {
    const std::uint32_t from = proj.vertex_of_owner[owner_of(s)];
    for (EdgeKind k : {EdgeKind::kUnmarked, EdgeKind::kRing}) {
      for (Slot t : net.edges(s, k)) {
        if (!is_real_slot(t) || !net.alive(t)) continue;
        const std::uint32_t to = proj.vertex_of_owner[owner_of(t)];
        if (to == UINT32_MAX || to == from) continue;
        if (!proj.graph.has_edge(from, to)) proj.graph.add_edge(from, to);
      }
    }
  }
  return proj;
}

FullOverlay FullOverlay::compute(const Network& net) {
  FullOverlay ov;
  ov.slots = net.live_slots();
  ov.vertex_of_slot.assign(net.slot_count(), UINT32_MAX);
  for (std::uint32_t v = 0; v < ov.slots.size(); ++v)
    ov.vertex_of_slot[ov.slots[v]] = v;
  ov.graph = graph::Digraph(ov.slots.size());
  ov.pos.reserve(ov.slots.size());
  for (Slot s : ov.slots) ov.pos.push_back(net.pos(s));
  for (std::uint32_t v = 0; v < ov.slots.size(); ++v) {
    for (EdgeKind k : {EdgeKind::kUnmarked, EdgeKind::kRing}) {
      for (Slot t : net.edges(ov.slots[v], k)) {
        if (!net.alive(t)) continue;
        const std::uint32_t to = ov.vertex_of_slot[t];
        if (to == UINT32_MAX || to == v) continue;
        if (!ov.graph.has_edge(v, to)) ov.graph.add_edge(v, to);
      }
    }
  }
  return ov;
}

}  // namespace rechord::core
