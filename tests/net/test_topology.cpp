#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace cra::net {
namespace {

TEST(Tree, BalancedBinaryGeometry) {
  const Tree t = balanced_kary_tree(6);  // 7 nodes: heap 0..6
  EXPECT_EQ(t.size(), 7u);
  EXPECT_EQ(t.device_count(), 6u);
  EXPECT_EQ(t.parent(1), 0u);
  EXPECT_EQ(t.parent(2), 0u);
  EXPECT_EQ(t.parent(5), 2u);
  ASSERT_EQ(t.children(0).size(), 2u);
  EXPECT_EQ(t.children(0)[0], 1u);
  EXPECT_EQ(t.children(0)[1], 2u);
  EXPECT_TRUE(t.is_leaf(3));
  EXPECT_FALSE(t.is_leaf(1));
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_EQ(t.depth(6), 2u);
  EXPECT_EQ(t.max_depth(), 2u);
  EXPECT_EQ(t.edge_count(), 6u);
}

TEST(Tree, Lemma1DegreeBound) {
  // Lemma 1: in SAP's balanced binary tree every node has degree O(1):
  // root <= 2, inner <= 3, leaf = 1.
  for (std::uint32_t n : {1u, 2u, 5u, 31u, 100u, 1023u, 4096u}) {
    const Tree t = balanced_kary_tree(n);
    EXPECT_LE(t.max_degree(), 3u) << "N=" << n;
    EXPECT_LE(t.degree(0), 2u);
  }
}

TEST(Tree, DepthIsLogarithmic) {
  // Equation 10: depth == ceil-ish log2(N+2) - 1 for the heap layout.
  for (std::uint32_t n : {2u, 6u, 14u, 30u, 62u, 1022u}) {
    const Tree t = balanced_kary_tree(n);  // full trees
    const auto expected = static_cast<std::uint32_t>(
        std::log2(static_cast<double>(n) + 2.0) - 1.0 + 0.5);
    EXPECT_EQ(t.max_depth(), expected) << "N=" << n;
  }
}

TEST(Tree, HopsViaLca) {
  const Tree t = balanced_kary_tree(14);  // perfect tree, depth 3
  EXPECT_EQ(t.hops(0, 0), 0u);
  EXPECT_EQ(t.hops(0, 7), 3u);
  EXPECT_EQ(t.hops(7, 8), 2u);   // siblings under node 3
  EXPECT_EQ(t.hops(7, 14), 6u);  // across the root
  EXPECT_EQ(t.hops(3, 1), 1u);
}

TEST(Tree, RejectsMalformedParentArrays) {
  EXPECT_THROW(Tree({}), std::invalid_argument);
  EXPECT_THROW(Tree({0}), std::invalid_argument);            // root parent
  EXPECT_THROW(Tree({kNoNode, 2, 1}), std::invalid_argument);  // forward ref
}

TEST(Tree, LineAndStarShapes) {
  const Tree line = line_tree(5);
  EXPECT_EQ(line.max_depth(), 5u);
  EXPECT_LE(line.max_degree(), 2u);
  const Tree star = star_tree(5);
  EXPECT_EQ(star.max_depth(), 1u);
  EXPECT_EQ(star.max_degree(), 5u);  // the naive topology's flaw
}

TEST(Tree, RandomTreeRespectsMaxChildren) {
  Rng rng(99);
  const Tree t = random_tree(500, 3, rng);
  EXPECT_EQ(t.device_count(), 500u);
  for (NodeId n = 0; n < t.size(); ++n) {
    EXPECT_LE(t.children(n).size(), 3u);
  }
}

TEST(Tree, RandomTreeDeterministicPerSeed) {
  Rng a(5), b(5);
  const Tree ta = random_tree(100, 2, a);
  const Tree tb = random_tree(100, 2, b);
  for (NodeId n = 1; n < ta.size(); ++n) {
    EXPECT_EQ(ta.parent(n), tb.parent(n));
  }
}

TEST(Tree, DfsPreorderKeepsEverySubtreeContiguous) {
  EXPECT_EQ(dfs_preorder(balanced_kary_tree(6)),
            (std::vector<NodeId>{0, 1, 3, 4, 2, 5, 6}));

  Rng rng(17);
  for (const Tree& t : {random_tree(2'000, 3, rng), line_tree(100'000),
                        star_tree(50)}) {
    const std::vector<NodeId> order = dfs_preorder(t);
    ASSERT_EQ(order.size(), t.size());
    std::vector<std::uint32_t> index(t.size(), t.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(index[order[i]], t.size()) << "node listed twice";
      index[order[i]] = i;
    }
    // Subtree n occupies exactly [index[n], index[n] + size[n]).
    std::vector<std::uint32_t> size(t.size(), 1);
    for (NodeId n = t.size() - 1; n >= 1; --n) size[t.parent(n)] += size[n];
    for (NodeId n = 1; n < t.size(); ++n) {
      const NodeId p = t.parent(n);
      EXPECT_GT(index[n], index[p]);
      EXPECT_LT(index[n], index[p] + size[p]);
    }
  }
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_edge(0, 3), std::invalid_argument);  // out of range
}

TEST(Graph, BfsSpanningTreeCoversAllNodes) {
  Rng rng(17);
  const Graph g = random_connected_graph(200, 150, rng);
  ASSERT_TRUE(g.connected());
  std::vector<NodeId> labels;
  const Tree t = g.bfs_spanning_tree(0, &labels);
  EXPECT_EQ(t.size(), 200u);
  EXPECT_EQ(labels.size(), 200u);
  EXPECT_EQ(labels[0], 0u);  // root keeps label 0
}

TEST(Graph, BfsSpanningTreeMinimizesDepth) {
  // In a cycle of 6 nodes, BFS from 0 yields depth 3 (not 5).
  Graph g(6);
  for (NodeId i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6);
  const Tree t = g.bfs_spanning_tree(0);
  EXPECT_EQ(t.max_depth(), 3u);
}

TEST(Graph, DisconnectedSpanningTreeThrows) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.bfs_spanning_tree(0), std::invalid_argument);
}

TEST(Graph, RandomConnectedGraphIsConnected) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    EXPECT_TRUE(random_connected_graph(100, 50, rng).connected());
  }
}

}  // namespace
}  // namespace cra::net
