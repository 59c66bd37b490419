// Synopsis diffusion (Section 2): ring by ring, farthest first, every node
// fuses its own synopsis into what it heard from the ring below and
// broadcasts the result toward the base -- over flat epoch state. The
// per-node step is SoaDeltaSide, shared with Tributary-Delta's delta nodes;
// SoaMultipathAggregator is the ring sweep over every node.
//
// Layout (FM-synopsis aggregates, the paper's Section 7.1 path):
//   * every node's synopsis inbox is one slot of a position-major uint32_t
//     BankArena, so a fuse is OrWords over adjacent memory instead of a
//     virtual-ish FmSketch::Merge through two heap vectors;
//   * the piggybacked contributing-count sketches live in a second arena,
//     whatever the aggregate's synopsis type is (they are always FM banks);
//   * coverage keeps ONE delivered bit per upstream edge (indexed by the
//     rings' CSR edge ids) instead of a size-n NodeSet per node -- O(n^2)
//     bits become O(E), and the contributor set falls out of an O(n + E)
//     reachability pass.
//
// Epoch deltas: when the aggregate exposes SelfSynopsisKey (all registry
// aggregates do), a node whose key is unchanged since the previous epoch
// replays its cached self bank and skips MakeSynopsisInto entirely --
// PR 2's FmValueMemo idea promoted from single insertions to whole nodes.
//
// Results are pinned to the golden per-epoch recordings under
// tests/golden/ (core_test): the Deliver / CountTransmission sequence
// (nodes, order, byte counts -- BankRleBytes over the synopsis bits) and
// the FmSketch::Estimate / A::EvaluateSynopsis evaluation reproduce every
// RunResult field bit for bit.
#ifndef TD_CORE_SOA_MULTIPATH_H_
#define TD_CORE_SOA_MULTIPATH_H_

#include <cstring>
#include <optional>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "core/soa_layout.h"
#include "core/soa_traits.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "topology/rings.h"
#include "util/check.h"
#include "util/node_set.h"

namespace td {

/// Synopsis diffusion's per-node step over flat epoch state: the synopsis
/// inboxes (arena or objects), the contributing-count arena, the
/// self-synopsis delta cache, one delivered bit per upstream ring edge and
/// the memo that converts tree partials on receipt. SoaMultipathAggregator
/// sweeps it over every ring; SoaTributaryDeltaAggregator runs it on its
/// delta nodes. Edge ids are the rings' dense upstream-edge ids
/// (Rings::UpstreamBegin).
template <Aggregate A>
class SoaDeltaSide {
 public:
  using Synopsis = typename A::Synopsis;

  SoaDeltaSide(const A* aggregate, uint64_t contrib_seed)
      : aggregate_(aggregate),
        contrib_seed_(contrib_seed),
        contrib_memo_(FmSketch::kDefaultBitmaps, contrib_seed) {}

  /// Starts an epoch over `n` nodes and `num_edges` upstream edges: empty
  /// inboxes, no delivered bits. The delta cache survives; it is
  /// (re)built only when `n` changes, which is reported by returning true.
  bool Prepare(size_t n, size_t num_edges) {
    const bool rebuilt = prepared_n_ != n;
    if (rebuilt) {
      scratch_syn_.emplace(aggregate_->EmptySynopsis());
      contrib_words_ = static_cast<size_t>(FmSketch::kDefaultBitmaps);
      out_contrib_.assign(contrib_words_, 0);
      contrib_eval_ = FmSketch(FmSketch::kDefaultBitmaps, contrib_seed_);
      if constexpr (SoaFmSynopsis<A>) {
        eval_syn_.emplace(aggregate_->EmptySynopsis());
        convert_scratch_.emplace(aggregate_->EmptySynopsis());
        syn_words_ = static_cast<size_t>(eval_syn_->num_bitmaps());
        out_syn_.assign(syn_words_, 0);
        if constexpr (SoaSelfKeyed<A>) {
          self_banks_.Reset(n, syn_words_);
          self_key_.assign(n, 0);
          self_valid_.Reset(n);
        }
      } else {
        empty_synopsis_.emplace(aggregate_->EmptySynopsis());
        if constexpr (SoaSelfKeyed<A>) {
          self_cache_.Reset(n, *empty_synopsis_);
        }
      }
      prepared_n_ = n;
    }
    if constexpr (SoaFmSynopsis<A>) {
      syn_inbox_.Reset(n, syn_words_);
    } else {
      obj_inbox_.assign(n, *empty_synopsis_);
    }
    contrib_inbox_.Reset(n, contrib_words_);
    edge_delivered_.Reset(num_edges);
    return rebuilt;
  }

  /// Node v's outgoing message: its own synopsis fused with its inbox, and
  /// its contributing-count bank with its own id added. Returns the payload
  /// bytes of both; Receive delivers them.
  size_t Compose(NodeId v, uint32_t epoch) {
    if constexpr (SoaFmSynopsis<A>) {
      // out = self | inbox in one pass over the arena slot.
      const uint32_t* self = SelfBank(v, epoch);
      const uint32_t* in = syn_inbox_.Slot(v);
      for (size_t i = 0; i < syn_words_; ++i) out_syn_[i] = self[i] | in[i];
    } else {
      Synopsis& syn = *scratch_syn_;
      MakeSelfSynopsis(v, epoch, &syn);
      aggregate_->Fuse(&syn, obj_inbox_[v]);
    }
    // Contrib bank: inbox copy + own-id insertion (OR commutes, so this is
    // bit-identical to FmSketch::AssignFrom + AddKey).
    std::memcpy(out_contrib_.data(), contrib_inbox_.Slot(v),
                contrib_words_ * sizeof(uint32_t));
    FmSketch::AddKeyBits(v, contrib_seed_, out_contrib_.data(),
                         contrib_words_);
    // Sized only now, not right after the OR loop that wrote out_syn_:
    // reading those words straight back measured ~7% slower 100k-sensor
    // epochs.
    size_t synopsis_bytes;
    if constexpr (SoaFmSynopsis<A>) {
      synopsis_bytes = BankRleBytes(out_syn_.data(), syn_words_);
    } else {
      synopsis_bytes = aggregate_->SynopsisBytes(*scratch_syn_);
    }
    return synopsis_bytes + BankRleBytes(out_contrib_.data(), contrib_words_);
  }

  /// Upstream edge `e` delivered the last composed message to node w.
  void Receive(uint32_t e, NodeId w) {
    if constexpr (SoaFmSynopsis<A>) {
      OrWords(syn_inbox_.Slot(w), out_syn_.data(), syn_words_);
    } else {
      aggregate_->Fuse(&obj_inbox_[w], *scratch_syn_);
    }
    OrWords(contrib_inbox_.Slot(w), out_contrib_.data(), contrib_words_);
    edge_delivered_.Set(e);
  }

  /// Node p received a tree partial covering `covers` nodes from `from`
  /// and converts it on receipt (Section 4): FuseConverted into a cleared
  /// scratch, ORed into the arena slot (== fusing into the inbox object;
  /// OR commutes), and the count added via the memo straight into the
  /// contrib arena.
  void ReceiveConverted(NodeId p, NodeId from, uint64_t covers,
                        const typename A::TreePartial& partial) {
    if constexpr (SoaFmSynopsis<A>) {
      convert_scratch_->Clear();
      td::FuseConverted(*aggregate_, &*convert_scratch_, partial);
      OrWords(syn_inbox_.Slot(p), convert_scratch_->bitmaps().data(),
              syn_words_);
    } else {
      td::FuseConverted(*aggregate_, &obj_inbox_[p], partial);
    }
    contrib_memo_.AddValueTo(contrib_inbox_.Slot(p), contrib_words_, from,
                             covers);
  }

  /// Whether some delivered upstream edge of v lands on the base or on a
  /// node already in `reached`. Every upstream edge lands one ring closer,
  /// so an ascending-level pass calling this settles reachability.
  bool Reaches(const Rings& rings, NodeId v, NodeId base,
               const NodeSet& reached) const {
    const uint32_t edge_end = rings.UpstreamBegin(v + 1);
    for (uint32_t e = rings.UpstreamBegin(v); e < edge_end; ++e) {
      if (!edge_delivered_.Test(e)) continue;
      const NodeId w = rings.UpstreamTarget(e);
      if (w == base || reached.Test(w)) return true;
    }
    return false;
  }

  /// The fused synopsis at the base; valid until the next Prepare.
  const Synopsis& RootSynopsis(NodeId base) {
    if constexpr (SoaFmSynopsis<A>) {
      eval_syn_->Clear();
      eval_syn_->OrBits(syn_inbox_.Slot(base), syn_words_);
      return *eval_syn_;
    } else {
      return obj_inbox_[base];
    }
  }

  /// The base's FM estimate of how many nodes its synopsis accounts for.
  double ReportedContributors(NodeId base) {
    contrib_eval_.Clear();
    contrib_eval_.OrBits(contrib_inbox_.Slot(base), contrib_words_);
    return contrib_eval_.Estimate();
  }

  /// Cumulative count of self-synopsis recomputes (delta-cache misses);
  /// nodes whose SelfSynopsisKey was unchanged replayed their cached bank
  /// and are not counted.
  uint64_t nodes_reprocessed() const { return nodes_reprocessed_; }

 private:
  /// Self bank for FM-synopsis aggregates: replayed from the arena cache
  /// when the delta key is unchanged, recomputed (via the aggregate's own
  /// MakeSynopsisInto, so the aggregate's value memo sees the call) on
  /// miss.
  const uint32_t* SelfBank(NodeId v, uint32_t epoch)
    requires SoaFmSynopsis<A>
  {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      uint32_t* slot = self_banks_.Slot(v);
      if (!(self_valid_.Test(v) && self_key_[v] == key)) {
        td::MakeSynopsisInto(*aggregate_, &*scratch_syn_, v, epoch);
        std::memcpy(slot, scratch_syn_->bitmaps().data(),
                    syn_words_ * sizeof(uint32_t));
        self_key_[v] = key;
        self_valid_.Set(v);
        ++nodes_reprocessed_;
      }
      return slot;
    } else {
      td::MakeSynopsisInto(*aggregate_, &*scratch_syn_, v, epoch);
      ++nodes_reprocessed_;
      return scratch_syn_->bitmaps().data();
    }
  }

  /// Generic-path self synopsis with the same delta-cache semantics.
  void MakeSelfSynopsis(NodeId v, uint32_t epoch, Synopsis* out) {
    if constexpr (SoaSelfKeyed<A>) {
      const uint64_t key = aggregate_->SelfSynopsisKey(v, epoch);
      if (self_cache_.valid.Test(v) && self_cache_.key[v] == key) {
        *out = self_cache_.state[v];
        return;
      }
      td::MakeSynopsisInto(*aggregate_, out, v, epoch);
      self_cache_.state[v] = *out;
      self_cache_.key[v] = key;
      self_cache_.valid.Set(v);
      ++nodes_reprocessed_;
    } else {
      td::MakeSynopsisInto(*aggregate_, out, v, epoch);
      ++nodes_reprocessed_;
    }
  }

  const A* aggregate_;
  uint64_t contrib_seed_;
  size_t prepared_n_ = 0;
  size_t syn_words_ = 0;
  size_t contrib_words_ = 0;

  // FM-synopsis path state (unused, empty, on the generic path).
  BankArena syn_inbox_;
  std::vector<uint32_t> out_syn_;
  std::optional<Synopsis> eval_syn_;
  std::optional<Synopsis> convert_scratch_;
  BankArena self_banks_;
  std::vector<uint64_t> self_key_;
  NodeSet self_valid_;

  // Generic-synopsis path state (unused on the FM path).
  std::optional<Synopsis> empty_synopsis_;
  std::vector<Synopsis> obj_inbox_;
  SelfStateCache<Synopsis> self_cache_;

  // Shared state.
  BankArena contrib_inbox_;
  std::vector<uint32_t> out_contrib_;
  FmSketch contrib_eval_{FmSketch::kDefaultBitmaps, 0};
  FmValueMemo contrib_memo_;
  NodeSet edge_delivered_;
  std::optional<Synopsis> scratch_syn_;
  uint64_t nodes_reprocessed_ = 0;
};

template <Aggregate A>
class SoaMultipathAggregator {
 public:
  SoaMultipathAggregator(const Rings* rings, Network* network,
                         const A* aggregate, uint64_t contrib_seed = 0x510c)
      : rings_(rings),
        network_(network),
        aggregate_(aggregate),
        side_(aggregate, contrib_seed) {
    TD_CHECK(rings != nullptr);
    TD_CHECK(network != nullptr);
    TD_CHECK(aggregate != nullptr);
    TD_CHECK_EQ(rings->num_nodes(), network->size());
  }

  using Outcome = EpochOutcome<typename A::Result>;

  Outcome RunEpoch(uint32_t epoch) {
    TD_PROFILE_SCOPE(obs::Phase::kSweep);
    const NodeId base = rings_->base();
    const size_t n = rings_->num_nodes();
    if (side_.Prepare(n, rings_->num_upstream_edges())) {
      ++scratch_stats_.builds;
      contributors_ = NodeSet(n);
    } else {
      ++scratch_stats_.reuses;
    }

    for (int level = rings_->max_level(); level >= 1; --level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        const size_t bytes = side_.Compose(v, epoch) + kMessageHeaderBytes;
        network_->CountTransmission(v, bytes);
        const uint32_t edge_end = rings_->UpstreamBegin(v + 1);
        for (uint32_t e = rings_->UpstreamBegin(v); e < edge_end; ++e) {
          const NodeId w = rings_->UpstreamTarget(e);
          if (network_->Deliver(v, w, epoch)) side_.Receive(e, w);
        }
      }
    }

    Outcome out;
    const typename A::Synopsis& root = side_.RootSynopsis(base);
    out.result = aggregate_->EvaluateSynopsis(root);
    out.true_contributing = ComputeContributors(base);
    out.contributors = contributors_;
    out.reported_contributing = side_.ReportedContributors(base);
    if (capture_root_) root_synopsis_ = &root;
    return out;
  }

  /// Keeps a view of each epoch's fused root synopsis for window consumers.
  void EnableRootCapture() { capture_root_ = true; }
  const typename A::Synopsis* root_synopsis() const { return root_synopsis_; }

  /// Cumulative count of self-synopsis recomputes (delta-cache misses).
  uint64_t nodes_reprocessed() const { return side_.nodes_reprocessed(); }

  const ScratchStats& scratch_stats() const { return scratch_stats_; }

 private:
  /// Replaces a ground-truth covered NodeSet per inbox: a node
  /// contributed iff some delivered upstream edge chain reaches the base.
  /// Returns the count.
  size_t ComputeContributors(NodeId base) {
    contributors_.Clear();
    size_t contributing = 0;
    for (int level = 1; level <= rings_->max_level(); ++level) {
      for (NodeId v : rings_->NodesAtLevel(level)) {
        if (side_.Reaches(*rings_, v, base, contributors_)) {
          contributors_.Set(v);
          ++contributing;
        }
      }
    }
    return contributing;
  }

  const Rings* rings_;
  Network* network_;
  const A* aggregate_;
  SoaDeltaSide<A> side_;

  NodeSet contributors_;
  ScratchStats scratch_stats_;
  bool capture_root_ = false;
  const typename A::Synopsis* root_synopsis_ = nullptr;
};

}  // namespace td

#endif  // TD_CORE_SOA_MULTIPATH_H_
