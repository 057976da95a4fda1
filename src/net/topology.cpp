#include "net/topology.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

namespace cra::net {

Tree::Tree(std::vector<NodeId> parent) : parent_(std::move(parent)) {
  if (parent_.empty()) {
    throw std::invalid_argument("Tree: need at least the root");
  }
  if (parent_[0] != kNoNode) {
    throw std::invalid_argument("Tree: parent[0] must be kNoNode");
  }
  const std::uint32_t n = size();
  std::vector<std::uint32_t> child_count(n, 0);
  for (std::uint32_t i = 1; i < n; ++i) {
    if (parent_[i] >= i) {
      throw std::invalid_argument(
          "Tree: nodes must be topologically ordered (parent[i] < i)");
    }
    ++child_count[parent_[i]];
  }

  child_offset_.assign(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    child_offset_[i + 1] = child_offset_[i] + child_count[i];
  }
  child_list_.assign(n - 1, 0);
  std::vector<std::uint32_t> cursor(child_offset_.begin(),
                                    child_offset_.end() - 1);
  for (std::uint32_t i = 1; i < n; ++i) {
    child_list_[cursor[parent_[i]]++] = i;
  }

  depth_.assign(n, 0);
  for (std::uint32_t i = 1; i < n; ++i) {
    depth_[i] = depth_[parent_[i]] + 1;
    max_depth_ = std::max(max_depth_, depth_[i]);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    max_degree_ = std::max(max_degree_, degree(i));
  }
}

std::span<const NodeId> Tree::children(NodeId n) const {
  if (n >= size()) throw std::out_of_range("Tree::children: bad node");
  return std::span<const NodeId>(child_list_.data() + child_offset_[n],
                                 child_offset_[n + 1] - child_offset_[n]);
}

std::uint32_t Tree::degree(NodeId n) const {
  const auto kids = static_cast<std::uint32_t>(children(n).size());
  return n == 0 ? kids : kids + 1;
}

std::uint32_t Tree::hops(NodeId a, NodeId b) const {
  if (a >= size() || b >= size()) {
    throw std::out_of_range("Tree::hops: bad node");
  }
  std::uint32_t h = 0;
  while (depth_[a] > depth_[b]) {
    a = parent_[a];
    ++h;
  }
  while (depth_[b] > depth_[a]) {
    b = parent_[b];
    ++h;
  }
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
    h += 2;
  }
  return h;
}

Tree balanced_kary_tree(std::uint32_t devices, std::uint32_t arity) {
  if (arity == 0) throw std::invalid_argument("balanced_kary_tree: arity 0");
  const std::uint32_t n = devices + 1;
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  for (std::uint32_t i = 1; i < n; ++i) {
    parent[i] = (i - 1) / arity;
  }
  return Tree(std::move(parent));
}

Tree line_tree(std::uint32_t devices) {
  const std::uint32_t n = devices + 1;
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  for (std::uint32_t i = 1; i < n; ++i) parent[i] = i - 1;
  return Tree(std::move(parent));
}

Tree star_tree(std::uint32_t devices) {
  const std::uint32_t n = devices + 1;
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  for (std::uint32_t i = 1; i < n; ++i) parent[i] = 0;
  return Tree(std::move(parent));
}

Tree random_tree(std::uint32_t devices, std::uint32_t max_children, Rng& rng) {
  if (max_children == 0) {
    throw std::invalid_argument("random_tree: max_children 0");
  }
  const std::uint32_t n = devices + 1;
  std::vector<NodeId> parent(n);
  parent[0] = kNoNode;
  std::vector<std::uint32_t> child_count(n, 0);
  // `open` holds nodes that can still accept children.
  std::vector<NodeId> open{0};
  for (std::uint32_t i = 1; i < n; ++i) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.next_below(open.size()));
    const NodeId p = open[pick];
    parent[i] = p;
    if (++child_count[p] == max_children) {
      open[pick] = open.back();
      open.pop_back();
    }
    open.push_back(i);
  }
  return Tree(std::move(parent));
}

std::vector<NodeId> dfs_preorder(const Tree& tree) {
  std::vector<NodeId> order;
  order.reserve(tree.size());
  std::vector<NodeId> stack{0};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
    const auto kids = tree.children(n);
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
  }
  return order;
}

Graph::Graph(std::uint32_t nodes) : adjacency_(nodes) {
  if (nodes == 0) throw std::invalid_argument("Graph: empty");
}

void Graph::add_edge(NodeId a, NodeId b) {
  if (a >= size() || b >= size() || a == b) {
    throw std::invalid_argument("Graph::add_edge: bad endpoints");
  }
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

bool Graph::connected() const {
  std::vector<bool> seen(size(), false);
  std::deque<NodeId> frontier{0};
  seen[0] = true;
  std::uint32_t visited = 1;
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop_front();
    for (NodeId next : adjacency_[n]) {
      if (!seen[next]) {
        seen[next] = true;
        ++visited;
        frontier.push_back(next);
      }
    }
  }
  return visited == size();
}

Tree Graph::bfs_spanning_tree(NodeId root,
                              std::vector<NodeId>* labels_out) const {
  if (root >= size()) {
    throw std::invalid_argument("bfs_spanning_tree: bad root");
  }
  std::vector<NodeId> label(size(), kNoNode);
  std::vector<NodeId> parent_new;
  parent_new.reserve(size());
  std::deque<NodeId> frontier{root};
  label[root] = 0;
  parent_new.push_back(kNoNode);
  std::uint32_t next_label = 1;
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop_front();
    for (NodeId nb : adjacency_[n]) {
      if (label[nb] == kNoNode) {
        label[nb] = next_label++;
        parent_new.push_back(label[n]);
        frontier.push_back(nb);
      }
    }
  }
  if (next_label != size()) {
    throw std::invalid_argument("bfs_spanning_tree: graph is disconnected");
  }
  if (labels_out != nullptr) *labels_out = std::move(label);
  return Tree(std::move(parent_new));
}

Graph random_connected_graph(std::uint32_t nodes, std::uint32_t extra_edges,
                             Rng& rng) {
  Graph g(nodes);
  // Random spanning tree: attach each node to a uniformly random earlier
  // node, then permute nothing (ids are arbitrary anyway).
  for (std::uint32_t i = 1; i < nodes; ++i) {
    g.add_edge(i, static_cast<NodeId>(rng.next_below(i)));
  }
  std::uint32_t added = 0;
  std::uint32_t attempts = 0;
  const std::uint32_t max_attempts = extra_edges * 20 + 100;
  while (added < extra_edges && attempts < max_attempts && nodes > 2) {
    ++attempts;
    const auto a = static_cast<NodeId>(rng.next_below(nodes));
    const auto b = static_cast<NodeId>(rng.next_below(nodes));
    if (a == b) continue;
    const auto& nbs = g.neighbors(a);
    if (std::find(nbs.begin(), nbs.end(), b) != nbs.end()) continue;
    g.add_edge(a, b);
    ++added;
  }
  return g;
}

}  // namespace cra::net
