// Network topologies for attestation groups.
//
// SAP's setup deploys S as a balanced binary tree rooted on Vrf
// (node 0); SEDA builds a BFS spanning tree over whatever connectivity
// exists. `Tree` stores parent links plus a CSR (compressed sparse row)
// child table so a million-node topology costs a few machine words per
// node. Builders cover the paper's deployment (balanced k-ary), the
// degenerate shapes used by tests (line, star), and random trees for
// property sweeps.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace cra::net {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Rooted tree over nodes 0..size()-1; node 0 is the root (the verifier).
class Tree {
 public:
  /// Build from a parent array: parent[0] must be kNoNode, every other
  /// parent[i] < i (nodes are in BFS/topological order). Throws
  /// std::invalid_argument on malformed input.
  explicit Tree(std::vector<NodeId> parent);

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(parent_.size());
  }
  /// Number of devices (all nodes except the root verifier).
  std::uint32_t device_count() const noexcept { return size() - 1; }

  NodeId parent(NodeId n) const { return parent_.at(n); }
  std::span<const NodeId> children(NodeId n) const;
  std::uint32_t degree(NodeId n) const;
  bool is_leaf(NodeId n) const { return children(n).empty(); }

  /// Hops from the root (depth(0) == 0).
  std::uint32_t depth(NodeId n) const { return depth_.at(n); }
  std::uint32_t max_depth() const noexcept { return max_depth_; }
  std::uint32_t max_degree() const noexcept { return max_degree_; }

  /// Hops between two arbitrary nodes (via lowest common ancestor).
  std::uint32_t hops(NodeId a, NodeId b) const;

  /// Number of edges (= size() - 1).
  std::uint32_t edge_count() const noexcept { return size() - 1; }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> child_offset_;  // CSR offsets, size()+1
  std::vector<NodeId> child_list_;
  std::vector<std::uint32_t> depth_;
  std::uint32_t max_depth_ = 0;
  std::uint32_t max_degree_ = 0;
};

/// Balanced k-ary tree over `devices` devices plus the root verifier:
/// node i's children are k*i+1 .. k*i+k (heap layout), so the verifier
/// has up to k children and every device has degree <= k+1.
/// The paper's setup uses arity = 2.
Tree balanced_kary_tree(std::uint32_t devices, std::uint32_t arity = 2);

/// Path graph: 0 - 1 - 2 - ... - devices (worst-case depth).
Tree line_tree(std::uint32_t devices);

/// Star: every device is a direct child of the verifier (worst-case
/// degree; violates TCA-Efficiency's O(1)-degree goal — used by the
/// naive-baseline ablation).
Tree star_tree(std::uint32_t devices);

/// Random tree: each node's parent is drawn uniformly among earlier
/// nodes whose degree is still below `max_children`.
Tree random_tree(std::uint32_t devices, std::uint32_t max_children, Rng& rng);

/// Every node in depth-first preorder (root first, children in their
/// child-table order). Each subtree is one contiguous run of the result,
/// which is what the sharded engine's placement cuts (sim/parallel.hpp).
std::vector<NodeId> dfs_preorder(const Tree& tree);

/// Undirected connected graph, used to exercise spanning-tree
/// construction (SEDA joins an existing mesh).
class Graph {
 public:
  explicit Graph(std::uint32_t nodes);

  void add_edge(NodeId a, NodeId b);
  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(adjacency_.size());
  }
  const std::vector<NodeId>& neighbors(NodeId n) const {
    return adjacency_.at(n);
  }
  bool connected() const;

  /// BFS spanning tree rooted at `root`; node ids are relabelled into BFS
  /// order (root becomes 0). `labels_out`, if non-null, receives the
  /// mapping old-id -> new-id. Throws std::invalid_argument if the graph
  /// is disconnected.
  Tree bfs_spanning_tree(NodeId root,
                         std::vector<NodeId>* labels_out = nullptr) const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;
};

/// Connected random graph: a random spanning tree plus `extra_edges`
/// uniformly random non-duplicate edges.
Graph random_connected_graph(std::uint32_t nodes, std::uint32_t extra_edges,
                             Rng& rng);

}  // namespace cra::net
