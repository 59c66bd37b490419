// Tree construction algorithms.
//
// Two builders, matching the paper's evaluation (Figure 7):
//  * BuildTagTree      -- the standard TAG construction [10]: each node picks
//                         a parent it can hear with a smaller ring level, and
//                         (per Section 6.1.3, "the standard algorithm allows
//                         choosing a parent from the same level") may pick a
//                         same-level neighbor with a small probability.
//  * BuildOptimizedTree - the paper's Section 6.1.3 construction: parents
//                         strictly from ring level i-1 (so tree links are a
//                         subset of ring links -- the Section 4.1
//                         synchronization requirement), followed by
//                         opportunistic parent switching with pinning and
//                         flagging that pushes the tree toward 2-domination
//                         (Lemma 2).
//
// The builders attach nodes ring by ring, so each first attach is of a
// childless node and SetParent's cycle guard does not walk: BuildTagTree,
// BuildEtxTree and the optimizer's initial tree are linear in the network
// size. Only the optimizer's switching pass moves whole subtrees, paying
// an O(depth) guard walk per moved internal node. Its edges all go exactly
// one ring up, so each round's heights come from one reverse ring-level
// sweep over parent pointers (no depth-first traversal), and the
// domination histogram from the same heights. It keeps the best round as
// a flat edge list, replayed through SetParent only if the final round is
// worse, rather than copying the tree on each improvement.
#ifndef TD_TOPOLOGY_TREE_BUILDER_H_
#define TD_TOPOLOGY_TREE_BUILDER_H_

#include <functional>

#include "topology/rings.h"
#include "topology/tree.h"
#include "util/rng.h"

namespace td {

struct TreeBuildOptions {
  /// Probability that a node with same-level neighbors picks one of them as
  /// its parent instead of an upstream neighbor (TAG behavior; always 0 in
  /// the optimized builder).
  double same_level_parent_prob = 0.0;

  /// Rounds of opportunistic parent switching (optimized builder).
  int switching_rounds = 8;

  /// Keep the best tree (by domination factor) seen across switching
  /// rounds rather than the last one. The paper describes the local search
  /// but not a stopping rule; retaining the best round is a deterministic,
  /// monotone refinement.
  bool keep_best_round = true;
};

/// Standard TAG tree over the connectivity graph.
Tree BuildTagTree(const Connectivity& connectivity, const Rings& rings,
                  const TreeBuildOptions& options, Rng* rng);

/// Section 6.1.3 construction. Guarantees every tree link connects ring
/// level i to level i-1 (EdgesSubsetOf(connectivity) and ring-level
/// monotonicity both hold).
Tree BuildOptimizedTree(const Connectivity& connectivity, const Rings& rings,
                        const TreeBuildOptions& options, Rng* rng);

/// Convenience wrappers with default options.
Tree BuildTagTree(const Connectivity& connectivity, const Rings& rings,
                  Rng* rng);
Tree BuildOptimizedTree(const Connectivity& connectivity, const Rings& rings,
                        Rng* rng);

/// Cost of the directed child -> parent link for quality-aware parent
/// selection; lower is better (link/link_quality's LinkEtx is the canonical
/// instance). Must be deterministic.
using LinkCostFn = std::function<double(NodeId child, NodeId parent)>;

/// Quality-aware (ETX/rank) tree construction, the runicast parent choice
/// from the related repos' sensor stacks: rank first -- parents come
/// strictly from ring level i-1, preserving the Section 4.1
/// tree-links-subset-of-ring-links constraint exactly like
/// BuildOptimizedTree -- then link quality as the tiebreak among the
/// upstream candidates: each node takes the parent minimizing
/// `cost(child, parent)`, lowest id on ties. Fully deterministic (no RNG),
/// so one deployment + quality map always yields one tree.
Tree BuildEtxTree(const Connectivity& connectivity, const Rings& rings,
                  const LinkCostFn& cost);

/// Outcome of a RepairTree pass.
struct TreeRepairResult {
  /// Nodes attached or re-parented during the pass.
  size_t reattached = 0;
  /// Nodes dropped from the tree (dead, or unreachable over live relays).
  size_t detached = 0;

  bool changed() const { return reattached + detached > 0; }
};

/// Incremental repair after churn: given `rings` rebuilt over the `alive`
/// subgraph, detaches dead and unreachable nodes and re-parents every alive
/// reachable node whose current parent no longer works (dead, detached, or
/// no longer one ring closer to the base), preserving the Section 4.1
/// tree-links-subset-of-ring-links constraint throughout. Surviving
/// subtrees keep their shape; only broken edges are rewired. Parent choice
/// is deterministic (fewest children, then lowest id), so repairs are
/// bit-reproducible. After the pass, a node is in the tree iff it is alive
/// and ring-reachable.
TreeRepairResult RepairTree(Tree* tree, const Connectivity& connectivity,
                            const Rings& rings,
                            const std::vector<bool>& alive);

/// RepairTree with an edge veto: a non-null `edge_ok(child, parent)`
/// filter additionally invalidates tree edges it rejects (the child is
/// re-parented to the best accepted upstream candidate) and keeps rejected
/// candidates from being chosen. Route aging (link/route_aging) passes its
/// blacklist here to steer children off persistently failing links. A
/// child whose every upstream candidate is rejected falls back to the
/// unfiltered candidate set rather than detaching -- a bad parent beats no
/// parent. The null-filter overload above is bit-identical to pre-filter
/// behavior.
TreeRepairResult RepairTree(Tree* tree, const Connectivity& connectivity,
                            const Rings& rings,
                            const std::vector<bool>& alive,
                            const LinkFilter& edge_ok);

}  // namespace td

#endif  // TD_TOPOLOGY_TREE_BUILDER_H_
