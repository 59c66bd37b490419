// Tributary-Delta (Sections 3-4): tributary nodes (T) run TAG toward their
// tree parent, delta nodes (M) run synopsis diffusion over the rings, and
// the base station moves the boundary between them every adaptation
// period -- a level-by-level T/M sweep plus the adaptation loop and its
// feedback math, over flat epoch state.
//
// Per node there is nothing new: a tributary node runs TAG's step
// (SoaTreeSide) and a delta node runs synopsis diffusion's (SoaDeltaSide).
// What is TD's own lives here: the region and its adaptation, the
// missing-count feedback a delta node piggybacks (+16 B), the T/M
// dispatch with conversion on receipt when a tributary's parent is a delta
// node, and the mixed reachability pass -- one ascending-level pass is
// exact because the Section 4.1 constraint puts every tree parent, like
// every upstream ring neighbor, exactly one level closer to the base.
//
// Results, the adaptation trace included, are pinned to the golden
// per-epoch recordings under tests/golden/ (core_test): the Deliver /
// DeliverWithRetries / CountTransmission sequence, byte counts, feedback
// and adaptation arithmetic reproduce them bit for bit.
#ifndef TD_CORE_SOA_TD_H_
#define TD_CORE_SOA_TD_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "core/soa_multipath.h"
#include "core/soa_tree.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "sketch/fm_sketch.h"
#include "td/adaptation.h"
#include "td/region_state.h"
#include "topology/rings.h"
#include "topology/tree.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

template <Aggregate A>
class SoaTributaryDeltaAggregator {
 public:
  struct Options {
    AdaptationConfig adaptation;
    int tree_extra_retransmissions = 0;
    uint64_t contrib_seed = 0x510c;
    size_t sensor_population = 0;
  };

  struct Stats {
    size_t expansions = 0;
    size_t shrinks = 0;
    size_t decisions = 0;
  };

  SoaTributaryDeltaAggregator(const Tree* tree, const Rings* rings,
                              Network* network, const A* aggregate,
                              std::unique_ptr<AdaptationPolicy> policy,
                              Options options = {})
      : tree_(tree),
        rings_(rings),
        network_(network),
        aggregate_(aggregate),
        policy_(std::move(policy)),
        options_(options),
        region_(tree, rings),
        damper_(options.adaptation),
        tree_side_(aggregate),
        delta_side_(aggregate, options.contrib_seed) {
    TD_CHECK(tree != nullptr);
    TD_CHECK(rings != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK(policy_ != nullptr);
    subtree_size_ = tree->ComputeSubtreeSizes();
    population_ = options_.sensor_population != 0
                      ? options_.sensor_population
                      : tree->num_in_tree() - 1;
    TD_CHECK_GT(population_, 0u);
  }

  using Outcome = EpochOutcome<typename A::Result>;

  Outcome RunEpoch(uint32_t epoch) {
    Outcome out = RunAggregation(epoch);
    if (damper_.ShouldAdapt(epoch)) {
      TD_PROFILE_SCOPE(obs::Phase::kAdapt);
      AdaptationConfig cfg = options_.adaptation;
      if (damper_.ShrinkSuppressed(epoch)) {
        cfg.shrink_margin = 2.0;
      }
      AdaptAction action = policy_->Adapt(last_feedback_, cfg, &region_);
      damper_.Record(epoch, action);
      ++stats_.decisions;
      if (action == AdaptAction::kExpand) ++stats_.expansions;
      if (action == AdaptAction::kShrink) ++stats_.shrinks;
      if (action != AdaptAction::kNone) {
        network_->CountTransmission(rings_->base(), 8);
      }
    }
    return out;
  }

  /// Churn reaction: rebase subtree sizes and population, resync the
  /// region (mode-preserving crown repair) and reset the damper.
  void OnTopologyChanged() {
    subtree_size_ = tree_->ComputeSubtreeSizes();
    region_.Resync();
    if (options_.sensor_population == 0) {
      size_t in_tree = tree_->num_in_tree();
      population_ = in_tree > 1 ? in_tree - 1 : 1;
    }
    damper_.Reset();
    pct_history_.clear();
    pct_raw_history_.clear();
    last_feedback_ = AdaptationFeedback{};
  }

  void EnableRootCapture() { capture_root_ = true; }
  const typename A::TreePartial* root_partial() const {
    return root_partial_ ? &*root_partial_ : nullptr;
  }
  const typename A::Synopsis* root_synopsis() const { return root_synopsis_; }

  /// Cumulative count of self-state recomputes (delta-cache misses), both
  /// tributary partials and delta synopses.
  uint64_t nodes_reprocessed() const {
    return tree_side_.nodes_reprocessed() + delta_side_.nodes_reprocessed();
  }

  RegionState& region() { return region_; }
  const RegionState& region() const { return region_; }
  const Stats& stats() const { return stats_; }
  const ScratchStats& scratch_stats() const { return scratch_stats_; }
  const AdaptationFeedback& last_feedback() const { return last_feedback_; }
  OscillationDamper& damper() { return damper_; }

 private:
  struct MissingAgg {
    uint64_t max = 0;
    uint64_t min = 0;
    bool valid = false;

    void Absorb(const MissingAgg& o) {
      if (!o.valid) return;
      if (!valid) {
        *this = o;
      } else {
        max = std::max(max, o.max);
        min = std::min(min, o.min);
      }
    }
    void AbsorbValue(uint64_t v) { Absorb(MissingAgg{v, v, true}); }
  };

  Outcome RunAggregation(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId base = rings_->base();
    TD_DCHECK(region_.CheckInvariants());

    const size_t n = tree_->num_nodes();
    const bool rebuilt = tree_side_.Prepare(n);
    delta_side_.Prepare(n, rings_->num_upstream_edges());
    if (rebuilt) {
      ++scratch_stats_.builds;
      contributors_ = NodeSet(n);
    } else {
      ++scratch_stats_.reuses;
    }
    missing_inbox_.assign(n, MissingAgg{});
    frontier_missing_.clear();

    for (int level = rings_->max_level(); level >= 1; --level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if (!tree_->InTree(v)) continue;
        if (region_.IsT(v)) {
          RunTreeNode(v, epoch);
        } else {
          RunMultipathNode(v, epoch);
        }
      }
    }

    typename A::TreePartial base_partial = tree_side_.RootPartial(base);
    const typename A::Synopsis& base_synopsis = delta_side_.RootSynopsis(base);
    const double delta_reported = delta_side_.ReportedContributors(base);
    const double tree_reported =
        static_cast<double>(tree_side_.received(base));

    Outcome out;
    out.result = aggregate_->EvaluateCombined(base_partial, base_synopsis);
    out.true_contributing = ComputeContributors(base);
    out.contributors = contributors_;
    out.reported_contributing = tree_reported + delta_reported;
    if (capture_root_) {
      root_partial_ = std::move(base_partial);
      root_synopsis_ = &base_synopsis;
    }

    last_feedback_ = AdaptationFeedback{};
    double fm_discount =
        1.0 - 0.78 / std::sqrt(static_cast<double>(FmSketch::kDefaultBitmaps));
    double lcb = tree_reported + delta_reported * fm_discount;
    auto median3 = [](std::vector<double>* hist, double x) {
      hist->push_back(x);
      if (hist->size() > 3) hist->erase(hist->begin());
      std::vector<double> window = *hist;
      std::sort(window.begin(), window.end());
      return window[window.size() / 2];
    };
    last_feedback_.pct_contributing =
        median3(&pct_history_, lcb / static_cast<double>(population_));
    last_feedback_.pct_contributing_raw = median3(
        &pct_raw_history_,
        out.reported_contributing / static_cast<double>(population_));
    last_feedback_.max_missing = missing_inbox_[base].max;
    last_feedback_.min_missing = missing_inbox_[base].min;
    last_feedback_.missing_valid = missing_inbox_[base].valid;
    if (missing_inbox_[base].valid) {
      last_feedback_.frontier_missing = frontier_missing_;
    }
    return out;
  }

  /// TAG's step; a delta parent converts the partial on receipt.
  void RunTreeNode(NodeId v, uint32_t epoch) {
    const NodeId p = tree_->parent(v);
    TD_DCHECK(p != kNoParent);
    const size_t bytes = tree_side_.Compose(v, epoch) + kMessageHeaderBytes;
    if (!network_->DeliverWithRetries(
            v, p, epoch, options_.tree_extra_retransmissions, bytes)) {
      return;
    }
    if (region_.IsT(p) || p == rings_->base()) {
      tree_side_.Receive(v, p);
    } else {
      delta_side_.ReceiveConverted(p, v, tree_side_.covers(v),
                                   tree_side_.partial(v));
      tree_side_.CountDelivery(v, p);
    }
  }

  /// Synopsis diffusion's step toward delta neighbors only, plus the
  /// missing-count feedback.
  void RunMultipathNode(NodeId v, uint32_t epoch) {
    const size_t payload = delta_side_.Compose(v, epoch);

    MissingAgg missing = missing_inbox_[v];
    if (region_.IsFrontierM(v)) {
      uint64_t descendants = subtree_size_[v] - 1;
      uint64_t received = tree_side_.received(v);
      uint64_t own_missing =
          descendants > received ? descendants - received : 0;
      missing.AbsorbValue(own_missing);
      frontier_missing_[v] = own_missing;
    }

    size_t bytes = payload + 2 * sizeof(uint64_t) + kMessageHeaderBytes;
    network_->CountTransmission(v, bytes);
    bool has_m_upstream = false;
    const uint32_t edge_end = rings_->UpstreamBegin(v + 1);
    for (uint32_t e = rings_->UpstreamBegin(v); e < edge_end; ++e) {
      const NodeId w = rings_->UpstreamTarget(e);
      if (!region_.IsM(w)) continue;
      has_m_upstream = true;
      if (network_->Deliver(v, w, epoch)) {
        delta_side_.Receive(e, w);
        missing_inbox_[w].Absorb(missing);
      }
    }
    TD_DCHECK(has_m_upstream);
    (void)has_m_upstream;
  }

  /// Delivered-path reachability over both kinds of delivered hop: a
  /// tributary node's single parent unicast, a delta node's broadcast
  /// edges. Every hop lands one ring closer to the base (the Section 4.1
  /// constraint covers tree parents), so one ascending-level pass settles
  /// it, without a ground-truth covered NodeSet per inbox.
  size_t ComputeContributors(NodeId base) {
    contributors_.Clear();
    size_t contributing = 0;
    for (int level = 1; level <= rings_->max_level(); ++level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if (!tree_->InTree(v)) continue;
        bool reached = false;
        if (region_.IsT(v)) {
          if (tree_side_.delivered(v)) {
            const NodeId p = tree_->parent(v);
            reached = p == base || contributors_.Test(p);
          }
        } else {
          reached = delta_side_.Reaches(*rings_, v, base, contributors_);
        }
        if (reached) {
          contributors_.Set(v);
          ++contributing;
        }
      }
    }
    return contributing;
  }

  const Tree* tree_;
  const Rings* rings_;
  Network* network_;
  const A* aggregate_;
  std::unique_ptr<AdaptationPolicy> policy_;
  Options options_;
  RegionState region_;
  OscillationDamper damper_;
  Stats stats_;

  SoaTreeSide<A> tree_side_;
  SoaDeltaSide<A> delta_side_;
  std::vector<MissingAgg> missing_inbox_;
  std::map<NodeId, uint64_t> frontier_missing_;
  NodeSet contributors_;
  ScratchStats scratch_stats_;

  std::vector<size_t> subtree_size_;
  size_t population_ = 0;
  AdaptationFeedback last_feedback_;
  std::vector<double> pct_history_;
  std::vector<double> pct_raw_history_;
  bool capture_root_ = false;
  std::optional<typename A::TreePartial> root_partial_;
  const typename A::Synopsis* root_synopsis_ = nullptr;
};

}  // namespace td

#endif  // TD_CORE_SOA_TD_H_
