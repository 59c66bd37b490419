// Which pairs of nodes can hear each other. Built from a disc radio model
// (every node within `range` is a neighbor) or from an explicit link list
// (used by the LabData reconstruction, whose links carry measured quality).
//
// Stored as an exactly sized CSR: node v's neighbors are
// target_[begin_[v] .. begin_[v + 1]), in ascending id order, with no self
// links and no duplicates. The graph is symmetric and immutable once built.
// FromRadioRange counting-sorts the nodes into range-sized cells over the
// deployment's bounding box, counts every node's degree over its own and
// the eight surrounding cells, then visits the nodes in ascending id order
// and appends each one to its neighbors' lists. Because the graph is
// symmetric, that one transposing scatter leaves every list sorted without
// a per-node sort.
#ifndef TD_NET_CONNECTIVITY_H_
#define TD_NET_CONNECTIVITY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/deployment.h"

namespace td {

class Connectivity {
 public:
  /// Disc model: a <-> b iff Distance(a,b) <= range.
  static Connectivity FromRadioRange(const Deployment& deployment,
                                     double range);

  /// Explicit symmetric link list over `num_nodes` vertices; duplicate and
  /// reversed links collapse into one.
  static Connectivity FromLinks(
      size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& links);

  size_t num_nodes() const { return begin_.size() - 1; }

  /// Neighbors of `id` in ascending id order.
  std::span<const NodeId> Neighbors(NodeId id) const;

  bool AreNeighbors(NodeId a, NodeId b) const;

  /// Number of undirected links.
  size_t num_links() const { return target_.size() / 2; }

  /// Average neighbor count.
  double AverageDegree() const;

  /// True if every node can reach node `root` over links.
  bool IsConnected(NodeId root) const;

 private:
  Connectivity() = default;

  std::vector<uint32_t> begin_;  // size num_nodes() + 1
  std::vector<NodeId> target_;   // exactly 2 * num_links()
};

}  // namespace td

#endif  // TD_NET_CONNECTIVITY_H_
