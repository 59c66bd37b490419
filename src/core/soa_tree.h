// TAG tree aggregation (Section 2): every node merges its own partial
// into the partials its children delivered, finalizes, and unicasts the
// result to its tree parent, children before parents.
//
// Tree partials stay typed objects (they are tiny PODs for the registry
// aggregates and carry no bank to arena-ize), but the state that would
// scale quadratically or allocate per epoch is flat:
//   * coverage is ONE delivered bit per node (each node unicasts to exactly
//     one parent) plus a reverse-topological reachability pass, instead of
//     a ground-truth NodeSet per inbox (O(n^2) bits);
//   * the children-first schedule is computed once and cached;
//     OnTopologyChanged drops it.
//
// Epoch deltas: when the aggregate exposes SelfSynopsisKey, a node whose
// key is unchanged replays its cached MakeTreePartialInto result (the self
// partial BEFORE child merges, which is the pure-function part), merged
// straight from the cache into the node's inbox slot -- no per-node copy
// of heap-backed partials (sample synopses, q-digests).
//
// Results are pinned to the golden per-epoch recordings under
// tests/golden/ (core_test): identical DeliverWithRetries sequence, byte
// counts and merge/finalize/evaluate results, bit for bit.
#ifndef TD_CORE_SOA_TREE_H_
#define TD_CORE_SOA_TREE_H_

#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "core/soa_layout.h"
#include "core/soa_traits.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "topology/tree.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

template <Aggregate A>
class SoaTreeAggregator {
 public:
  struct Options {
    int extra_retransmissions = 0;
  };

  SoaTreeAggregator(const Tree* tree, Network* network, const A* aggregate,
                    Options options = {})
      : tree_(tree),
        network_(network),
        aggregate_(aggregate),
        options_(options) {
    TD_CHECK(tree != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK_EQ(tree->num_nodes(), network->size());
  }

  using Outcome = EpochOutcome<typename A::Result>;

  Outcome RunEpoch(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId root = tree_->root();
    PrepareScratch();
    EnsureTopo();
    delivered_.Reset(tree_->num_nodes());

    for (NodeId v : topo_) {
      if (v == root) continue;
      // The children's partials already sit in inbox_[v]: fold the node's
      // own partial in and send that slot.
      typename A::TreePartial& partial = inbox_[v];
      aggregate_->MergeTree(&partial, SelfPartial(v, epoch));
      aggregate_->FinalizeTreePartial(&partial, v);
      uint64_t contributing = 1 + inbox_count_[v];

      NodeId parent = tree_->parent(v);
      size_t bytes = aggregate_->TreeBytes(partial) + kMessageHeaderBytes;
      bool delivered = network_->DeliverWithRetries(
          v, parent, epoch, options_.extra_retransmissions, bytes);
      if (delivered) {
        aggregate_->MergeTree(&inbox_[parent], partial);
        inbox_count_[parent] += contributing;
        delivered_.Set(v);
      }
    }

    typename A::TreePartial final_partial = aggregate_->EmptyTreePartial();
    aggregate_->MergeTree(&final_partial, inbox_[root]);
    aggregate_->FinalizeTreePartial(&final_partial, root);

    Outcome out;
    out.result = aggregate_->EvaluateTree(final_partial);
    out.true_contributing = ComputeContributors(root);
    out.contributors = contributors_;
    out.reported_contributing = static_cast<double>(inbox_count_[root]);
    if (capture_root_) root_partial_ = std::move(final_partial);
    return out;
  }

  /// Drops the cached children-first schedule; delta caches stay valid.
  void OnTopologyChanged() { topo_valid_ = false; }

  void EnableRootCapture() { capture_root_ = true; }
  const typename A::TreePartial* root_partial() const {
    return root_partial_ ? &*root_partial_ : nullptr;
  }

  /// Cumulative count of self-partial recomputes (delta-cache misses).
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

  const Tree& tree() const { return *tree_; }
  const ScratchStats& scratch_stats() const { return scratch_stats_; }

 private:
  /// Node v's own partial at `epoch`: the delta-cache slot (replayed on a
  /// key hit, recomputed in place on a miss) for keyed aggregates, a
  /// freshly computed scratch partial otherwise. Valid until the next call.
  const typename A::TreePartial& SelfPartial(NodeId v, uint32_t epoch) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      typename A::TreePartial& cached = self_cache_.state[v];
      if (!self_cache_.valid.Test(v) || self_cache_.key[v] != key) {
        td::MakeTreePartialInto(*aggregate_, &cached, v, epoch);
        self_cache_.key[v] = key;
        self_cache_.valid.Set(v);
        ++nodes_reprocessed_;
      }
      return cached;
    } else {
      td::MakeTreePartialInto(*aggregate_, &*scratch_partial_, v, epoch);
      ++nodes_reprocessed_;
      return *scratch_partial_;
    }
  }

  /// A node contributed iff its own unicast AND every ancestor hop up to
  /// the root was delivered. Walking the cached children-first order in
  /// reverse visits parents before children, so one pass settles it.
  size_t ComputeContributors(NodeId root) {
    contributors_.Clear();
    size_t contributing = 0;
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const NodeId v = *it;
      if (v == root || !delivered_.Test(v)) continue;
      const NodeId p = tree_->parent(v);
      if (p == root || contributors_.Test(p)) {
        contributors_.Set(v);
        ++contributing;
      }
    }
    return contributing;
  }

  void PrepareScratch() {
    const size_t n = tree_->num_nodes();
    if (prepared_n_ == n) {
      ++scratch_stats_.reuses;
    } else {
      ++scratch_stats_.builds;
      empty_partial_.emplace(aggregate_->EmptyTreePartial());
      scratch_partial_.emplace(aggregate_->EmptyTreePartial());
      contributors_ = NodeSet(n);
      if constexpr (SoaSelfKeyed<A>) {
        self_cache_.Reset(n, *empty_partial_);
      }
      prepared_n_ = n;
    }
    inbox_.assign(n, *empty_partial_);
    inbox_count_.assign(n, 0);
  }

  void EnsureTopo() {
    if (topo_valid_) return;
    topo_ = tree_->TopologicalChildrenFirst();
    topo_valid_ = true;
  }

  const Tree* tree_;
  Network* network_;
  const A* aggregate_;
  Options options_;

  std::vector<NodeId> topo_;
  bool topo_valid_ = false;
  size_t prepared_n_ = 0;

  std::vector<typename A::TreePartial> inbox_;
  std::vector<uint64_t> inbox_count_;
  BitVec delivered_;
  NodeSet contributors_;
  SelfStateCache<typename A::TreePartial> self_cache_;
  ScratchStats scratch_stats_;
  std::optional<typename A::TreePartial> empty_partial_;
  std::optional<typename A::TreePartial> scratch_partial_;
  uint64_t nodes_reprocessed_ = 0;
  bool capture_root_ = false;
  std::optional<typename A::TreePartial> root_partial_;
};

}  // namespace td

#endif  // TD_CORE_SOA_TREE_H_
