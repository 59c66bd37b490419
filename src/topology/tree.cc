#include "topology/tree.h"

#include <algorithm>

#include "util/check.h"

namespace td {

Tree::Tree(size_t num_nodes, NodeId root)
    : root_(root),
      parent_(num_nodes, kNoParent),
      children_(num_nodes) {
  TD_CHECK_LT(root, num_nodes);
}

void Tree::SetParent(NodeId child, NodeId parent) {
  TD_CHECK_LT(child, parent_.size());
  TD_CHECK_LT(parent, parent_.size());
  TD_CHECK_NE(child, parent);
  TD_CHECK_NE(child, root_);
  // Cycle guard: `child` must not be an ancestor of `parent`. A childless
  // node is nobody's ancestor, so only a node with children pays the walk
  // up from `parent`; builders attaching top-down never do.
  if (!children_[child].empty()) {
    for (NodeId v = parent; v != kNoParent; v = parent_[v]) {
      TD_CHECK(v != child);
      if (v == root_) break;
    }
  }
  NodeId old = parent_[child];
  if (old == parent) return;
  if (old != kNoParent) {
    auto& sib = children_[old];
    sib.erase(std::remove(sib.begin(), sib.end(), child), sib.end());
  }
  parent_[child] = parent;
  children_[parent].push_back(child);
}

void Tree::RemoveFromTree(NodeId child) {
  TD_CHECK_LT(child, parent_.size());
  TD_CHECK_NE(child, root_);
  NodeId old = parent_[child];
  if (old != kNoParent) {
    auto& sib = children_[old];
    sib.erase(std::remove(sib.begin(), sib.end(), child), sib.end());
    parent_[child] = kNoParent;
  }
}

NodeId Tree::parent(NodeId id) const {
  TD_CHECK_LT(id, parent_.size());
  return parent_[id];
}

const std::vector<NodeId>& Tree::children(NodeId id) const {
  TD_CHECK_LT(id, children_.size());
  return children_[id];
}

bool Tree::InTree(NodeId id) const {
  TD_CHECK_LT(id, parent_.size());
  return id == root_ || parent_[id] != kNoParent;
}

size_t Tree::num_in_tree() const {
  size_t n = 0;
  for (NodeId id = 0; id < parent_.size(); ++id) {
    if (InTree(id)) ++n;
  }
  return n;
}

std::vector<NodeId> Tree::TopologicalChildrenFirst() const {
  // Iterative post-order from the root.
  std::vector<NodeId> order;
  order.reserve(parent_.size());
  std::vector<std::pair<NodeId, size_t>> stack;
  stack.emplace_back(root_, 0);
  while (!stack.empty()) {
    auto& [v, idx] = stack.back();
    if (idx < children_[v].size()) {
      NodeId next = children_[v][idx];
      ++idx;
      stack.emplace_back(next, 0);
    } else {
      order.push_back(v);
      stack.pop_back();
    }
  }
  return order;
}

std::vector<int> Tree::ComputeHeights() const {
  std::vector<int> height(parent_.size(), 0);
  for (NodeId v : TopologicalChildrenFirst()) {
    int h = 1;
    for (NodeId c : children_[v]) h = std::max(h, height[c] + 1);
    height[v] = h;
  }
  return height;
}

std::vector<int> Tree::ComputeDepths() const {
  std::vector<int> depth(parent_.size(), -1);
  // Children-first reversed is parents-first.
  std::vector<NodeId> order = TopologicalChildrenFirst();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId v = *it;
    depth[v] = (v == root_) ? 0 : depth[parent_[v]] + 1;
  }
  return depth;
}

std::vector<size_t> Tree::ComputeSubtreeSizes() const {
  std::vector<size_t> size(parent_.size(), 0);
  for (NodeId v : TopologicalChildrenFirst()) {
    size_t s = 1;
    for (NodeId c : children_[v]) s += size[c];
    size[v] = s;
  }
  return size;
}

bool Tree::EdgesSubsetOf(const Connectivity& connectivity) const {
  for (NodeId v = 0; v < parent_.size(); ++v) {
    if (parent_[v] == kNoParent) continue;
    if (!connectivity.AreNeighbors(v, parent_[v])) return false;
  }
  return true;
}

}  // namespace td
