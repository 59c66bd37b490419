// Rings topology for multi-path (synopsis diffusion) aggregation [16].
//
// Construction (Section 2): the base station transmits; every node hearing
// it is in ring 1. Nodes in ring i transmit; any node hearing one of them
// that is not yet in a ring is in ring i+1. This is exactly BFS level order
// over the connectivity graph, which is how we compute it.
//
// Build also records, once, each node's upstream adjacency (the neighbors
// one ring closer) in CSR form. The tree builders read it as spans, and the
// SoA engines index their per-edge delivered bits by its dense edge ids, so
// no caller re-derives it from the connectivity graph.
#ifndef TD_TOPOLOGY_RINGS_H_
#define TD_TOPOLOGY_RINGS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/connectivity.h"

namespace td {

/// Predicate over a directed edge (from, to); see Rings::Build and
/// RepairTree. Deterministic filters keep topology bit-reproducible.
using LinkFilter = std::function<bool(NodeId from, NodeId to)>;

class Rings {
 public:
  /// Level assigned to nodes the base station cannot reach.
  static constexpr int kUnreachable = -1;

  static Rings Build(const Connectivity& connectivity, NodeId base);

  /// Rings over the active subgraph only: inactive nodes join no ring
  /// (level kUnreachable) and relay no BFS edges, so nodes whose every path
  /// to the base runs through failed relays come out unreachable too. Used
  /// by dynamic scenarios to re-level the network after churn. `active`
  /// must have one entry per node; the base station must be active.
  static Rings Build(const Connectivity& connectivity, NodeId base,
                     const std::vector<bool>& active);

  /// Quality-aware rings: BFS relays only over edges `link_ok` accepts
  /// (evaluated in the propagation direction, parent -> child), so nodes
  /// reachable solely over rejected links come out kUnreachable, and the
  /// upstream adjacency keeps edge v -> w only if link_ok(w, v). Used by
  /// the link layer to keep marginal links (below a PRR floor) out of the
  /// ring structure -- the multi-path broadcast receivers included -- and
  /// therefore, via the Section 4.1 subset constraint, out of every tree
  /// built over the rings. A reachable node keeps at least its BFS
  /// predecessor upstream. A null filter accepts every edge.
  static Rings Build(const Connectivity& connectivity, NodeId base,
                     const std::vector<bool>& active,
                     const LinkFilter& link_ok);

  /// Ring number; 0 is the base station itself.
  int level(NodeId id) const;

  int max_level() const { return max_level_; }
  NodeId base() const { return base_; }
  size_t num_nodes() const { return level_.size(); }

  /// Nodes in ring `level` (level 0 = {base}).
  const std::vector<NodeId>& NodesAtLevel(int level) const;

  /// Neighbors of `id` exactly one ring closer to the base station, in
  /// ascending id order, over links the Build filter accepted: the
  /// candidate receivers of its multi-path broadcast, and the candidate
  /// tree parents under the Section 4.1 synchronization constraint ("tree
  /// links should be a subset of the links in the ring"). Empty for the
  /// base and unreachable nodes. A view of the CSR Build recorded;
  /// `connectivity` must be the graph the rings were built over.
  std::span<const NodeId> UpstreamNeighbors(const Connectivity& connectivity,
                                            NodeId id) const;

  /// The same adjacency as dense edge ids: node v's upstream edges are
  /// [UpstreamBegin(v), UpstreamBegin(v + 1)), so UpstreamBegin partitions
  /// [0, num_upstream_edges()); valid for v in [0, num_nodes()].
  uint32_t UpstreamBegin(NodeId v) const { return up_begin_[v]; }
  NodeId UpstreamTarget(uint32_t e) const { return up_target_[e]; }
  size_t num_upstream_edges() const { return up_target_.size(); }

  /// Count of reachable nodes (level >= 0), including the base.
  size_t num_reachable() const;

 private:
  Rings() = default;

  NodeId base_ = 0;
  int max_level_ = 0;
  std::vector<int> level_;
  std::vector<std::vector<NodeId>> by_level_;
  std::vector<uint32_t> up_begin_;  // size num_nodes() + 1
  std::vector<NodeId> up_target_;   // exactly num_upstream_edges()
};

}  // namespace td

#endif  // TD_TOPOLOGY_RINGS_H_
