#pragma once
// Shared helpers for the Re-Chord test suite.

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/network.hpp"
#include "graph/digraph.hpp"
#include "ident/ring_pos.hpp"

namespace rechord::testing {

/// Disjoint-set forest with union by size and path halving: the workhorse of
/// the weak-connectivity invariants the paper requires of every initial
/// state and that the tests assert the protocol never breaks.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1), components_(n) {
    std::iota(parent_.begin(), parent_.end(), 0U);
  }

  /// Representative of x's component.
  std::uint32_t find(std::uint32_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the components of a and b; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
    --components_;
    return true;
  }

  bool same(std::uint32_t a, std::uint32_t b) noexcept {
    return find(a) == find(b);
  }
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_;
  }
  /// Size of x's component.
  std::size_t component_size(std::uint32_t x) noexcept {
    return size_[find(x)];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
  std::size_t components_;
};

/// Number of components with every edge taken as undirected.
inline std::size_t weak_component_count(const graph::Digraph& g) {
  UnionFind uf(g.vertex_count());
  for (graph::Vertex u = 0; u < g.vertex_count(); ++u)
    for (graph::Vertex v : g.out(u)) uf.unite(u, v);
  return uf.component_count();
}

/// True when the graph, every edge taken as undirected, has one component
/// (the paper's precondition, Theorem 1.1). Empty and one-vertex graphs are
/// connected.
inline bool weakly_connected(const graph::Digraph& g) {
  return g.vertex_count() <= 1 || weak_component_count(g) == 1;
}

/// True when `to` is reachable from `from` along edge directions (BFS).
inline bool reachable(const graph::Digraph& g, graph::Vertex from,
                      graph::Vertex to) {
  if (from == to) return true;
  std::vector<bool> seen(g.vertex_count(), false);
  std::queue<graph::Vertex> q;
  q.push(from);
  seen[from] = true;
  while (!q.empty()) {
    const graph::Vertex u = q.front();
    q.pop();
    for (graph::Vertex v : g.out(u)) {
      if (v == to) return true;
      if (!seen[v]) {
        seen[v] = true;
        q.push(v);
      }
    }
  }
  return false;
}

/// True when every ordered pair is reachable along edge directions;
/// O(n * (n + m)), fine for test sizes.
inline bool strongly_connected(const graph::Digraph& g) {
  for (graph::Vertex u = 1; u < g.vertex_count(); ++u)
    if (!reachable(g, 0, u) || !reachable(g, u, 0)) return false;
  return true;
}

/// Network whose peers sit at the given fractional positions (e.g. 0.25).
inline core::Network make_net(std::initializer_list<double> ids) {
  std::vector<core::RingPos> pos;
  pos.reserve(ids.size());
  for (double x : ids) pos.push_back(ident::pos_from_double(x));
  return core::Network{std::span<const core::RingPos>(pos)};
}

/// Undirected-view digraph over all live slots and ALL edge markings --
/// exactly the graph whose weak connectivity the paper's precondition and
/// our invariants talk about.
inline graph::Digraph to_digraph(const core::Network& net) {
  const auto slots = net.live_slots();
  std::vector<std::uint32_t> vertex_of(net.slot_count(), UINT32_MAX);
  for (std::uint32_t v = 0; v < slots.size(); ++v) vertex_of[slots[v]] = v;
  graph::Digraph g(slots.size());
  for (std::uint32_t v = 0; v < slots.size(); ++v)
    for (int k = 0; k < core::kEdgeKinds; ++k)
      for (core::Slot t : net.edges(slots[v], static_cast<core::EdgeKind>(k)))
        if (net.alive(t)) g.add_edge(v, vertex_of[t]);
  return g;
}

inline bool weakly_connected(const core::Network& net) {
  return weakly_connected(to_digraph(net));
}

/// Weak connectivity at PEER granularity: each owner's slots are identified
/// (a peer simulates all of its virtual nodes). This is the paper's actual
/// precondition -- §3.1.1 explicitly allows the virtual-node graph to start
/// disconnected (garbage virtuals), which rule 6 then reconnects.
inline bool peers_weakly_connected(const core::Network& net) {
  const auto owners = net.live_owners();
  if (owners.size() <= 1) return true;
  std::vector<std::uint32_t> dense(net.owner_count(), UINT32_MAX);
  for (std::uint32_t v = 0; v < owners.size(); ++v) dense[owners[v]] = v;
  UnionFind uf(owners.size());
  for (core::Slot s : net.live_slots())
    for (int k = 0; k < core::kEdgeKinds; ++k)
      for (core::Slot t : net.edges(s, static_cast<core::EdgeKind>(k)))
        if (net.alive(t))
          uf.unite(dense[core::owner_of(s)], dense[core::owner_of(t)]);
  return uf.component_count() == 1;
}

/// Steps the engine until fixpoint; returns rounds until the last change, or
/// max_rounds+1 if it never settled.
inline std::uint64_t settle(core::Engine& engine, std::uint64_t max_rounds) {
  for (std::uint64_t r = 0; r < max_rounds; ++r)
    if (!engine.step().changed) return r;
  return max_rounds + 1;
}

}  // namespace rechord::testing
