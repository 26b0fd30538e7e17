#pragma once
// A small directed multigraph on dense vertex ids [0, n). The library uses
// it for the initial-state generators' edges between real peers; the Chord
// baselines (bench/baselines) and the tests' connectivity checks
// (tests/test_util.hpp) build on it too.

#include <cstdint>
#include <vector>

namespace rechord::graph {

using Vertex = std::uint32_t;

struct Edge {
  Vertex from;
  Vertex to;
};

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t n) : adjacency_(n) {}

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }

  /// Adds a vertex, returning its id.
  Vertex add_vertex();

  /// Adds edge (u, v); duplicates allowed, self-loops allowed.
  void add_edge(Vertex u, Vertex v);

  /// True if at least one (u, v) edge exists.
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const noexcept;

  [[nodiscard]] const std::vector<Vertex>& out(Vertex u) const noexcept {
    return adjacency_[u];
  }

  /// All edges in insertion order per vertex.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Out-degree of u.
  [[nodiscard]] std::size_t out_degree(Vertex u) const noexcept {
    return adjacency_[u].size();
  }

 private:
  std::vector<std::vector<Vertex>> adjacency_;
  std::size_t edges_ = 0;
};

}  // namespace rechord::graph
