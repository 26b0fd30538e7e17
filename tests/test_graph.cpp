#include <gtest/gtest.h>

#include "graph/digraph.hpp"
#include "test_util.hpp"

namespace rechord::graph {
namespace {

using testing::reachable;
using testing::strongly_connected;
using testing::UnionFind;
using testing::weak_component_count;
using testing::weakly_connected;

TEST(Digraph, AddVertexAndEdges) {
  Digraph g;
  const Vertex a = g.add_vertex();
  const Vertex b = g.add_vertex();
  EXPECT_EQ(g.vertex_count(), 2U);
  g.add_edge(a, b);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
  EXPECT_EQ(g.edge_count(), 1U);
  EXPECT_EQ(g.out_degree(a), 1U);
  EXPECT_EQ(g.out_degree(b), 0U);
}

TEST(Digraph, MultiEdgesAllowed) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2U);
  EXPECT_EQ(g.out(0).size(), 2U);
}

TEST(Digraph, EdgesEnumeration) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 2U);
  EXPECT_EQ(es[0].from, 0U);
  EXPECT_EQ(es[1].to, 2U);
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.component_count(), 5U);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.component_count(), 4U);
  EXPECT_EQ(uf.component_size(1), 2U);
}

TEST(UnionFind, TransitiveUnion) {
  UnionFind uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(1, 2);
  EXPECT_TRUE(uf.same(0, 3));
  EXPECT_EQ(uf.component_size(0), 4U);
  EXPECT_EQ(uf.component_count(), 3U);
}

TEST(Connectivity, EmptyAndSingletonAreConnected) {
  EXPECT_TRUE(weakly_connected(Digraph{}));
  EXPECT_TRUE(weakly_connected(Digraph{1}));
}

TEST(Connectivity, DirectedChainIsWeaklyConnected) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);  // opposing direction still connects weakly
  g.add_edge(2, 3);
  EXPECT_TRUE(weakly_connected(g));
  EXPECT_FALSE(strongly_connected(g));
}

TEST(Connectivity, DisconnectedDetected) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(weakly_connected(g));
  EXPECT_EQ(weak_component_count(g), 2U);
}

TEST(Connectivity, Reachability) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(reachable(g, 0, 2));
  EXPECT_FALSE(reachable(g, 2, 0));
  EXPECT_TRUE(reachable(g, 3, 3));
}

TEST(Connectivity, StrongCycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(strongly_connected(g));
}

}  // namespace
}  // namespace rechord::graph
