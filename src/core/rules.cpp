#include "core/rules.hpp"

#include <algorithm>

#include "ident/ring_pos.hpp"

namespace rechord::core {

RuleActivity& RuleActivity::operator+=(const RuleActivity& o) noexcept {
  virtuals_created += o.virtuals_created;
  virtuals_deleted += o.virtuals_deleted;
  overlap_moves += o.overlap_moves;
  real_neighbor_informs += o.real_neighbor_informs;
  lin_forwards += o.lin_forwards;
  mirror_backedges += o.mirror_backedges;
  ring_creates += o.ring_creates;
  ring_forwards += o.ring_forwards;
  ring_resolves += o.ring_resolves;
  cedge_creates += o.cedge_creates;
  cedge_forwards += o.cedge_forwards;
  cedge_resolves += o.cedge_resolves;
  return *this;
}

std::uint64_t RuleActivity::total() const noexcept {
  return virtuals_created + virtuals_deleted + overlap_moves +
         real_neighbor_informs + lin_forwards + mirror_backedges +
         ring_creates + ring_forwards + ring_resolves + cedge_creates +
         cedge_forwards + cedge_resolves;
}

namespace {

using Key = OrderKey;

// `vec` sorted ascending by net.order_key. Largest element with key < k,
// or kInvalidSlot.
Slot max_below(const Network& net, const std::vector<Slot>& vec, Key k) {
  auto it = std::lower_bound(vec.begin(), vec.end(), k,
                             [&net](Slot a, Key kk) { return net.order_key(a) < kk; });
  if (it == vec.begin()) return kInvalidSlot;
  return *std::prev(it);
}

// Smallest element with key > k, or kInvalidSlot.
Slot min_above(const Network& net, const std::vector<Slot>& vec, Key k) {
  auto it = std::upper_bound(vec.begin(), vec.end(), k,
                             [&net](Key kk, Slot a) { return kk < net.order_key(a); });
  if (it == vec.end()) return kInvalidSlot;
  return *it;
}

void sort_unique(const Network& net, std::vector<Slot>& v) {
  std::sort(v.begin(), v.end(), [&net](Slot a, Slot b) {
    return net.order_key(a) < net.order_key(b);
  });
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// out := a ∪ b where both inputs are sorted by order_key and duplicate-free;
// a linear merge (the order is strict, so equal keys mean the same slot).
void merge_sorted(const Network& net, std::vector<Slot>& out,
                  const std::vector<Slot>& a, const std::vector<Slot>& b) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Key ka = net.order_key(a[i]);
    const Key kb = net.order_key(b[j]);
    if (ka < kb) {
      out.push_back(a[i++]);
    } else if (kb < ka) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i++]);
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
}

// Rules 3/4 edit the unmarked sets after the round's first refresh_known;
// rule 5 is the only later consumer of ctx.known, and in steady state it
// rarely needs it -- so the re-refresh is done lazily here.
void ensure_known_fresh(RuleCtx& ctx) {
  if (!ctx.known_stale) return;
  ctx.known_stale = false;
  Rules::refresh_known(ctx);
}

}  // namespace

void Rules::refresh_siblings(RuleCtx& ctx) {
  ctx.siblings.clear();
  for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
    const Slot s = slot_of(ctx.owner, i);
    if (ctx.net.alive(s)) ctx.siblings.push_back(s);
  }
  sort_unique(ctx.net, ctx.siblings);
}

void Rules::refresh_known(RuleCtx& ctx) {
  ctx.known.clear();
  for (Slot s : ctx.siblings) {
    ctx.known.push_back(s);
    const auto& nu = ctx.net.edges(s, EdgeKind::kUnmarked);
    ctx.known.insert(ctx.known.end(), nu.begin(), nu.end());
  }
  sort_unique(ctx.net, ctx.known);
  ctx.known_real.clear();
  for (Slot s : ctx.known)
    if (is_real_slot(s)) ctx.known_real.push_back(s);
}

int Rules::compute_m(const Network& net, std::uint32_t owner) {
  const RingPos u = net.owner_pos(owner);
  RingPos best_gap = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < kSlotsPerOwner; ++i) {
    const Slot s = slot_of(owner, i);
    if (!net.alive(s)) continue;
    for (int k = 0; k < kEdgeKinds; ++k) {
      for (Slot t : net.edges(s, static_cast<EdgeKind>(k))) {
        if (!is_real_slot(t) || owner_of(t) == owner || !net.alive(t)) continue;
        const RingPos gap = ident::cw_dist(u, net.pos(t));
        if (gap == 0) continue;  // distinct ids: cannot happen, be safe
        if (!found || gap < best_gap) {
          best_gap = gap;
          found = true;
        }
      }
    }
  }
  return found ? ident::exponent_for_gap(best_gap) : 1;
}

void Rules::rule1_virtual_nodes(RuleCtx& ctx) {
  Network& net = ctx.net;
  const int m = compute_m(net, ctx.owner);
  // create-virtualnodes(u): u_i for all i <= m. rl/rr are deliberately NOT
  // touched here: a dead slot's published rl/rr are already kInvalidSlot
  // (rule-1 deletion publishes the default at commit and normalize() clears
  // dead slots), and rule 3 guards on OTHER peers concurrently read these
  // arrays -- the phase must not mutate previous-round published values or
  // the sharded run loses bit-identity with the serial one.
  for (int i = 1; i <= m; ++i) {
    const Slot s = slot_of(ctx.owner, static_cast<std::uint32_t>(i));
    if (!net.alive(s)) {
      ctx.clear_edges(s);
      ctx.set_alive(s, true);
      ++ctx.activity.virtuals_created;
    }
  }
  // delete-virtualnodes(u): u_j for j > m; u_m inherits their out-edges as
  // unmarked edges.
  const Slot um = slot_of(ctx.owner, static_cast<std::uint32_t>(m));
  for (std::uint32_t j = static_cast<std::uint32_t>(m) + 1; j < kSlotsPerOwner;
       ++j) {
    const Slot s = slot_of(ctx.owner, j);
    if (!net.alive(s)) continue;
    for (int k = 0; k < kEdgeKinds; ++k)
      for (Slot t : net.edges(s, static_cast<EdgeKind>(k)))
        ctx.add_edge(um, EdgeKind::kUnmarked, t);
    ctx.clear_edges(s);
    ctx.set_alive(s, false);
    // rl/rr stay at their previous-round published values until commit (see
    // the create loop above); the engine publishes kInvalidSlot for dead
    // slots and normalize() covers the activation-fault path.
    ++ctx.activity.virtuals_deleted;
  }
  ctx.max_index = static_cast<std::uint32_t>(m);
  refresh_siblings(ctx);
}

void Rules::rule2_overlap(RuleCtx& ctx) {
  Network& net = ctx.net;
  for (Slot ui : ctx.siblings) {
    const Key ui_key = net.order_key(ui);
    ctx.scratch = net.edges(ui, EdgeKind::kUnmarked);  // snapshot
    for (Slot w : ctx.scratch) {
      const Key w_key = net.order_key(w);
      Slot uj = kInvalidSlot;
      if (w_key < ui_key) {
        // sibling strictly between w and ui, closest to w.
        const Slot cand = min_above(net, ctx.siblings, w_key);
        if (cand != kInvalidSlot && net.order_key(cand) < ui_key) uj = cand;
      } else if (w_key > ui_key) {
        const Slot cand = max_below(net, ctx.siblings, w_key);
        if (cand != kInvalidSlot && net.order_key(cand) > ui_key) uj = cand;
      }
      if (uj == kInvalidSlot || uj == w) continue;
      ctx.remove_edge(ui, EdgeKind::kUnmarked, w);
      ctx.add_edge(uj, EdgeKind::kUnmarked, w);  // same peer: immediate
      ++ctx.activity.overlap_moves;
    }
  }
}

void Rules::rule3_real_neighbors(RuleCtx& ctx) {
  Network& net = ctx.net;
  for (Slot ui : ctx.siblings) {
    const std::uint32_t idx = index_of(ui);
    const Key ui_key = net.order_key(ui);
    // left-realneighbor(ui)
    const Slot vl = max_below(net, ctx.known_real, ui_key);
    ctx.rl_cur[idx] = vl;
    if (vl != kInvalidSlot) {
      ctx.add_edge(ui, EdgeKind::kUnmarked, vl);
      const Key vl_key = net.order_key(vl);
      ctx.scratch = net.edges(ui, EdgeKind::kUnmarked);
      for (Slot y : ctx.scratch) {
        if (y == vl) continue;
        const Key yk = net.order_key(y);
        const bool in_scope = (yk > ui_key) || (vl_key < yk && yk < ui_key);
        if (!in_scope) continue;
        const Slot prev = net.rl(y);  // previous-round published value
        if (prev == kInvalidSlot || vl_key > net.order_key(prev)) {
          ctx.ops.push_back({y, EdgeKind::kUnmarked, vl});
          ++ctx.activity.real_neighbor_informs;
        }
      }
    }
    // right-realneighbor(ui)
    const Slot vr = min_above(net, ctx.known_real, ui_key);
    ctx.rr_cur[idx] = vr;
    if (vr != kInvalidSlot) {
      ctx.add_edge(ui, EdgeKind::kUnmarked, vr);
      const Key vr_key = net.order_key(vr);
      ctx.scratch = net.edges(ui, EdgeKind::kUnmarked);
      for (Slot y : ctx.scratch) {
        if (y == vr) continue;
        const Key yk = net.order_key(y);
        const bool in_scope = (yk < ui_key) || (ui_key < yk && yk < vr_key);
        if (!in_scope) continue;
        const Slot prev = net.rr(y);
        if (prev == kInvalidSlot || vr_key < net.order_key(prev)) {
          ctx.ops.push_back({y, EdgeKind::kUnmarked, vr});
          ++ctx.activity.real_neighbor_informs;
        }
      }
    }
  }
}

void Rules::rule4_linearize(RuleCtx& ctx) {
  Network& net = ctx.net;
  std::vector<Slot>& drop = ctx.arena.drop;
  for (Slot ui : ctx.siblings) {
    const std::uint32_t idx = index_of(ui);
    const Key ui_key = net.order_key(ui);
    // Read in place: every removal is deferred to the one bulk call below.
    const auto& nu = net.edges(ui, EdgeKind::kUnmarked);
    // Split: nu is sorted by order, so lefts form a prefix.
    const auto split = std::lower_bound(
        nu.begin(), nu.end(), ui_key,
        [&net](Slot a, Key kk) { return net.order_key(a) < kk; });
    // lin-left: lefts ascending l0 < l1 < ... < lk; keep lk, forward each
    // other one to the neighbor just above it: edge (l_{j+1} -> l_j).
    // lin-right: rights ascending r0 < r1 < ...; keep r0, edge
    // (r_j -> r_{j+1}). Both drop lists ascend and lefts precede rights, so
    // `drop` is a subsequence of nu.
    drop.clear();
    if (std::distance(nu.begin(), split) >= 2) {
      for (auto it = nu.begin(); std::next(it) != split; ++it) {
        ctx.ops.push_back({*std::next(it), EdgeKind::kUnmarked, *it});
        drop.push_back(*it);
        ++ctx.activity.lin_forwards;
      }
    }
    if (std::distance(split, nu.end()) >= 2) {
      for (auto it = split; std::next(it) != nu.end(); ++it) {
        ctx.ops.push_back({*it, EdgeKind::kUnmarked, *std::next(it)});
        drop.push_back(*std::next(it));
        ++ctx.activity.lin_forwards;
      }
    }
    ctx.remove_edges(ui, EdgeKind::kUnmarked, drop);
    // mirroring: backward edges from the (now at most two) closest
    // neighbors, then re-establish the closest-real edges.
    for (Slot v : net.edges(ui, EdgeKind::kUnmarked)) {
      ctx.ops.push_back({v, EdgeKind::kUnmarked, ui});
      ++ctx.activity.mirror_backedges;
    }
    if (ctx.rl_cur[idx] != kInvalidSlot)
      ctx.add_edge(ui, EdgeKind::kUnmarked, ctx.rl_cur[idx]);
    if (ctx.rr_cur[idx] != kInvalidSlot)
      ctx.add_edge(ui, EdgeKind::kUnmarked, ctx.rr_cur[idx]);
  }
}

void Rules::rule5_ring(RuleCtx& ctx) {
  Network& net = ctx.net;
  // Knowledge for the creation rule: N(u) plus every held ring edge (the
  // stability argument of §3.1.6 needs the extremes to "already know" each
  // other; that knowledge is exactly the resting ring edge -- see DESIGN.md).
  // Built lazily: only a peer with an extremal-looking sibling (no unmarked
  // neighbor on one side) needs the sorted candidate set; in steady state
  // that is the two global extremes, so everyone else skips the build.
  std::vector<Slot>& create_cand = ctx.arena.cand;
  bool cand_built = false;
  auto build_create_cand = [&ctx, &net, &create_cand, &cand_built] {
    if (cand_built) return;
    cand_built = true;
    ensure_known_fresh(ctx);
    create_cand.clear();
    create_cand.insert(create_cand.end(), ctx.known.begin(), ctx.known.end());
    for (Slot s : ctx.siblings) {
      const auto& nr = net.edges(s, EdgeKind::kRing);
      create_cand.insert(create_cand.end(), nr.begin(), nr.end());
    }
    sort_unique(net, create_cand);
  };

  for (Slot ui : ctx.siblings) {
    const Key ui_key = net.order_key(ui);
    const auto& nu = net.edges(ui, EdgeKind::kUnmarked);
    const bool has_left =
        !nu.empty() && net.order_key(nu.front()) < ui_key;
    const bool has_right =
        !nu.empty() && net.order_key(nu.back()) > ui_key;
    if (has_left && has_right) continue;
    // create-ring-edge-left(ui): ui believes it is the global minimum, so
    // the largest known node gets a ring edge pointing at ui.
    if (!has_left) {
      build_create_cand();
      if (!create_cand.empty()) {
        const Slot v = create_cand.back();
        if (v != ui) {
          ctx.ops.push_back({v, EdgeKind::kRing, ui});
          ++ctx.activity.ring_creates;
        }
      }
    }
    // create-ring-edge-right(ui): ui believes it is the global maximum.
    if (!has_right) {
      build_create_cand();
      if (!create_cand.empty()) {
        const Slot v = create_cand.front();
        if (v != ui) {
          ctx.ops.push_back({v, EdgeKind::kRing, ui});
          ++ctx.activity.ring_creates;
        }
      }
    }
  }

  // forward-ring-edges: per held edge (ui -> w). Peers holding no ring edge
  // (all but the extremes in steady state) skip the candidate build.
  for (Slot ui : ctx.siblings) {
    std::vector<Slot>& held = ctx.arena.held;
    held = net.edges(ui, EdgeKind::kRing);
    if (held.empty()) continue;
    ensure_known_fresh(ctx);
    const Key ui_key = net.order_key(ui);
    // Candidates x ∈ N(ui) ∪ Nr(ui); both sorted, so a linear merge.
    std::vector<Slot>& fw_cand = ctx.arena.cand;
    merge_sorted(net, fw_cand, ctx.known, held);
    for (Slot w : held) {
      const Key w_key = net.order_key(w);
      if (w == ui) {  // degenerate self edge from a garbage initial state
        ctx.remove_edge(ui, EdgeKind::kRing, w);
        continue;
      }
      if (w_key > ui_key) {
        // w claims to be a maximum. forward-ring-edge-l2: someone larger
        // than w is known -> hand w to them as an unmarked edge.
        const Slot x = fw_cand.empty() ? kInvalidSlot : fw_cand.back();
        if (x != kInvalidSlot && net.order_key(x) > w_key) {
          ctx.ops.push_back({x, EdgeKind::kUnmarked, w});
          ctx.remove_edge(ui, EdgeKind::kRing, w);
          ++ctx.activity.ring_resolves;
          continue;
        }
        // forward-ring-edge-l1: forward toward the global minimum.
        const Slot v = ctx.known.empty() ? kInvalidSlot : ctx.known.front();
        if (v != kInvalidSlot && v != ui && v != w) {
          ctx.ops.push_back({v, EdgeKind::kRing, w});
          ctx.remove_edge(ui, EdgeKind::kRing, w);
          ++ctx.activity.ring_forwards;
        }
        // else: ui is itself the smallest known node; the edge rests here.
      } else {
        // w claims to be a minimum. forward-ring-edge-r2.
        const Slot x = fw_cand.empty() ? kInvalidSlot : fw_cand.front();
        if (x != kInvalidSlot && net.order_key(x) < w_key) {
          ctx.ops.push_back({x, EdgeKind::kUnmarked, w});
          ctx.remove_edge(ui, EdgeKind::kRing, w);
          ++ctx.activity.ring_resolves;
          continue;
        }
        // forward-ring-edge-r1: forward toward the global maximum.
        const Slot v = ctx.known.empty() ? kInvalidSlot : ctx.known.back();
        if (v != kInvalidSlot && v != ui && v != w) {
          ctx.ops.push_back({v, EdgeKind::kRing, w});
          ctx.remove_edge(ui, EdgeKind::kRing, w);
          ++ctx.activity.ring_forwards;
        }
      }
    }
  }
}

void Rules::rule6_connection(RuleCtx& ctx) {
  Network& net = ctx.net;
  // connect-virtual-nodes(u): contiguous siblings (by identifier order).
  for (std::size_t i = 0; i + 1 < ctx.siblings.size(); ++i)
    ctx.activity.cedge_creates += ctx.add_edge(
        ctx.siblings[i], EdgeKind::kConnection, ctx.siblings[i + 1]);

  // forward-cedges. Both branches remove the held edge, so ui's connection
  // set ends empty: the walk reads the set in place (it only emits delayed
  // ops), then one clear removes every held edge.
  for (Slot ui : ctx.siblings) {
    const std::vector<Slot>& held = net.edges(ui, EdgeKind::kConnection);
    if (held.empty()) continue;
    // Candidates Nu(ui) ∪ S(ui): neither changes while forwarding (only
    // connection edges are removed and all emissions are delayed ops), so
    // build the set once per ui -- a linear merge of two sorted inputs.
    std::vector<Slot>& cand = ctx.arena.cand;
    merge_sorted(net, cand, net.edges(ui, EdgeKind::kUnmarked), ctx.siblings);
    // w = max{x ∈ cand : x < v} never decreases as v ascends through held,
    // so one merge walk finds every w: cand[0, below) are the keys < v.
    std::size_t below = 0;
    for (Slot v : held) {
      const Key v_key = net.order_key(v);
      while (below < cand.size() && net.order_key(cand[below]) < v_key)
        ++below;
      const Slot w = below == 0 ? kInvalidSlot : cand[below - 1];
      if (w == kInvalidSlot || w == ui) {
        // forward-cedges-2 (and our stuck-edge extension when no candidate
        // below v exists at all): resolve into the unmarked backward edge.
        ctx.ops.push_back({v, EdgeKind::kUnmarked, ui});
        ++ctx.activity.cedge_resolves;
      } else {
        // forward-cedges-1: move the connection edge one hop toward v.
        ctx.ops.push_back({w, EdgeKind::kConnection, v});
        ++ctx.activity.cedge_forwards;
      }
    }
    ctx.clear_set(ui, EdgeKind::kConnection);
  }
}

void Rules::run_all(RuleCtx& ctx) {
  refresh_siblings(ctx);
  rule1_virtual_nodes(ctx);  // refreshes siblings itself
  rule2_overlap(ctx);
  refresh_known(ctx);
  rule3_real_neighbors(ctx);
  rule4_linearize(ctx);
  ctx.known_stale = true;  // rules 3/4 changed Nu sets; rule 5 re-reads lazily
  rule5_ring(ctx);
  rule6_connection(ctx);
}

}  // namespace rechord::core
