// TAG tree aggregation (Section 2): every node merges its own partial
// into the partials its children delivered, finalizes, and unicasts the
// result to its tree parent, children before parents. The per-node step is
// SoaTreeSide, shared with Tributary-Delta's tributary nodes;
// SoaTreeAggregator is the children-first sweep over the whole tree.
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
#include "core/soa_traits.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "topology/tree.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

/// TAG's per-node step over flat epoch state: the tree inboxes, the
/// covered counts piggybacked on every partial, one delivered bit per node
/// and the self-partial delta cache. SoaTreeAggregator sweeps it over the
/// whole tree; SoaTributaryDeltaAggregator runs it on its tributary nodes.
template <Aggregate A>
class SoaTreeSide {
 public:
  using Partial = typename A::TreePartial;

  explicit SoaTreeSide(const A* aggregate) : aggregate_(aggregate) {}

  /// Starts an epoch over `n` nodes: empty inboxes, zero counts, no
  /// delivered bits. The delta cache survives; it is (re)built only when
  /// `n` changes, which is reported by returning true.
  bool Prepare(size_t n) {
    const bool rebuilt = prepared_n_ != n;
    if (rebuilt) {
      empty_partial_.emplace(aggregate_->EmptyTreePartial());
      scratch_partial_.emplace(aggregate_->EmptyTreePartial());
      if constexpr (SoaSelfKeyed<A>) self_cache_.Reset(n, *empty_partial_);
      prepared_n_ = n;
    }
    inbox_.assign(n, *empty_partial_);
    count_.assign(n, 0);
    delivered_.Reset(n);
    return rebuilt;
  }

  /// Node v's outgoing partial: its own partial folded into the inbox slot
  /// its children delivered to, finalized. Returns the payload bytes; the
  /// partial stays readable through partial(v).
  size_t Compose(NodeId v, uint32_t epoch) {
    Partial& partial = inbox_[v];
    aggregate_->MergeTree(&partial, SelfPartial(v, epoch));
    aggregate_->FinalizeTreePartial(&partial, v);
    return aggregate_->TreeBytes(partial);
  }

  /// Parent p received v's composed partial.
  void Receive(NodeId v, NodeId p) {
    aggregate_->MergeTree(&inbox_[p], inbox_[v]);
    CountDelivery(v, p);
  }

  /// Parent p received v's partial but keeps it elsewhere (a delta node
  /// converts it on receipt): only the covered count and the delivered bit.
  void CountDelivery(NodeId v, NodeId p) {
    count_[p] += covers(v);
    delivered_.Set(v);
  }

  /// What the root holds: its inbox, finalized.
  Partial RootPartial(NodeId root) const {
    Partial out = aggregate_->EmptyTreePartial();
    aggregate_->MergeTree(&out, inbox_[root]);
    aggregate_->FinalizeTreePartial(&out, root);
    return out;
  }

  const Partial& partial(NodeId v) const { return inbox_[v]; }
  /// Nodes whose partials reached v so far.
  uint64_t received(NodeId v) const { return count_[v]; }
  /// Nodes v's composed partial accounts for: itself plus received(v).
  uint64_t covers(NodeId v) const { return 1 + count_[v]; }
  bool delivered(NodeId v) const { return delivered_.Test(v); }

  /// Cumulative count of self-partial recomputes (delta-cache misses).
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

 private:
  /// Node v's own partial at `epoch`: the delta-cache slot (replayed on a
  /// key hit, recomputed in place on a miss) for keyed aggregates, a
  /// freshly computed scratch partial otherwise. Valid until the next call.
  const Partial& SelfPartial(NodeId v, uint32_t epoch) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      Partial& cached = self_cache_.state[v];
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

  const A* aggregate_;
  size_t prepared_n_ = 0;
  std::vector<Partial> inbox_;
  std::vector<uint64_t> count_;
  NodeSet delivered_;
  SelfStateCache<Partial> self_cache_;
  std::optional<Partial> empty_partial_;
  std::optional<Partial> scratch_partial_;
  uint64_t nodes_reprocessed_ = 0;
};

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
        options_(options),
        side_(aggregate) {
    TD_CHECK(tree != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK_EQ(tree->num_nodes(), network->size());
  }

  using Outcome = EpochOutcome<typename A::Result>;

  Outcome RunEpoch(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId root = tree_->root();
    const size_t n = tree_->num_nodes();
    if (side_.Prepare(n)) {
      ++scratch_stats_.builds;
      contributors_ = NodeSet(n);
    } else {
      ++scratch_stats_.reuses;
    }
    EnsureTopo();

    for (NodeId v : topo_) {
      if (v == root) continue;
      const NodeId parent = tree_->parent(v);
      const size_t bytes = side_.Compose(v, epoch) + kMessageHeaderBytes;
      if (network_->DeliverWithRetries(
              v, parent, epoch, options_.extra_retransmissions, bytes)) {
        side_.Receive(v, parent);
      }
    }

    typename A::TreePartial final_partial = side_.RootPartial(root);
    Outcome out;
    out.result = aggregate_->EvaluateTree(final_partial);
    out.true_contributing = ComputeContributors(root);
    out.contributors = contributors_;
    out.reported_contributing = static_cast<double>(side_.received(root));
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
  uint64_t nodes_reprocessed() const { return side_.nodes_reprocessed(); }

  const ScratchStats& scratch_stats() const { return scratch_stats_; }

 private:
  /// A node contributed iff its own unicast AND every ancestor hop up to
  /// the root was delivered. Walking the cached children-first order in
  /// reverse visits parents before children, so one pass settles it.
  size_t ComputeContributors(NodeId root) {
    contributors_.Clear();
    size_t contributing = 0;
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const NodeId v = *it;
      if (v == root || !side_.delivered(v)) continue;
      const NodeId p = tree_->parent(v);
      if (p == root || contributors_.Test(p)) {
        contributors_.Set(v);
        ++contributing;
      }
    }
    return contributing;
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
  SoaTreeSide<A> side_;

  std::vector<NodeId> topo_;
  bool topo_valid_ = false;
  NodeSet contributors_;
  ScratchStats scratch_stats_;
  bool capture_root_ = false;
  std::optional<typename A::TreePartial> root_partial_;
};

}  // namespace td

#endif  // TD_CORE_SOA_TREE_H_
