// The type-erased aggregation engine: one runtime interface over the three
// engine templates of the structure-of-arrays core (src/core/:
// SoaTreeAggregator, SoaMultipathAggregator, SoaTributaryDeltaAggregator)
// so benches, examples and sweeps can select a Strategy by value without
// re-wiring template plumbing per scheme.
//
// The concrete impls wrap the engines without touching their hot loops;
// type erasure costs one virtual dispatch per epoch (thousands of message
// simulations), which is noise. Results come back as EpochResult, a
// strategy- and aggregate-agnostic currency: numeric aggregates fill
// `value`, frequent items additionally fill `freq`.
#ifndef TD_API_ENGINE_H_
#define TD_API_ENGINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "agg/epoch_outcome.h"
#include "agg/query_set.h"
#include "api/strategy.h"
#include "core/soa_multipath.h"
#include "core/soa_td.h"
#include "core/soa_tree.h"
#include "freq/freq_aggregate.h"
#include "net/network.h"
#include "td/adaptation.h"
#include "util/check.h"
#include "workload/scenario.h"

namespace td {

/// Type-erased outcome of one aggregation epoch.
struct EpochResult {
  uint32_t epoch = 0;

  /// The numeric answer (for FrequentItems: the estimated total N).
  double value = 0.0;

  /// Ground truth count of sensors accounted for in `value`.
  size_t true_contributing = 0;

  /// What the base station believes contributed (exact tree counts plus an
  /// FM estimate for delta regions).
  double reported_contributing = 0.0;

  /// Full frequent-items evaluation; empty for every other aggregate.
  FreqResult freq;

  /// Multi-query engines (QuerySetAggregate): every member query's answer,
  /// index-aligned with the query list; `value` repeats the primary
  /// query's entry. Empty for single-aggregate engines.
  std::vector<double> query_values;

  /// Filled by Experiment::StepEpoch (not by engines) when any query in
  /// the experiment carries a window: one entry per query, index-aligned
  /// with the query list -- the windowed value for windowed queries, the
  /// instantaneous answer for windowless ones (a windowless query behaves
  /// like a width-1 window). Empty when no query is windowed.
  std::vector<double> windowed_values;

  /// Filled by Experiment::StepEpoch (not by engines) when any query
  /// carries a spatial group-by (Query::GroupBy): group_values[i][g] is
  /// query i's estimate for group g, sliced from the captured root state.
  /// Ungrouped queries keep an empty inner vector. Empty when no query is
  /// grouped.
  std::vector<std::vector<double>> group_values;
};

/// Type-erased view of the base station's root aggregate state after one
/// epoch: the exact tree partial and/or the fused synopsis, as opaque
/// pointers to the engine aggregate's A::TreePartial / A::Synopsis (for
/// query-set engines: QuerySetTreePartial / QuerySetSynopsis). Which sides
/// are non-null is fixed per strategy (window/query_window.h's
/// RootStateSides) -- tree engines surface only the partial, synopsis
/// diffusion only the synopsis, Tributary-Delta both. Valid until the next
/// RunEpoch; never retransmitted, so capturing costs zero radio bytes.
///
/// Two consumers re-merge root states downstream of the engines:
/// windowed aggregation (window/) merges one engine's states ACROSS
/// epochs, and the federation tier (src/fed/) merges many gateway
/// engines' states WITHIN an epoch into a global estimate. Both lean on
/// the same contract: every registry aggregate's MergeTree / Fuse is
/// commutative and associative over exactly-representable state (integer
/// counters, bitwise-OR sketch banks, canonical min-wise samples, min /
/// max), so re-merging in any grouping or order reproduces the in-network
/// fold bit-for-bit. The root partial a tree engine exports contains no
/// base-station reading (the base holds none), which is what lets a
/// coordinator merge G gateways' roots without double-counting anything.
/// See DESIGN.md "Hierarchical federation".
struct RootState {
  const void* tree_partial = nullptr;
  const void* synopsis = nullptr;
};

/// Adaptation counters; all zeros for non-adaptive strategies.
struct EngineStats {
  size_t expansions = 0;
  size_t shrinks = 0;
  size_t decisions = 0;
};

/// Knobs shared by every strategy; fields a strategy does not use are
/// ignored (e.g. `adaptation` under kTag).
struct EngineOptions {
  /// Extra per-message tree retransmissions; -1 picks the strategy default
  /// (2 for kTagRetx, 0 otherwise).
  int tree_extra_retransmissions = -1;

  /// Base-station adaptation config (kTributaryDelta / kTdCoarse).
  AdaptationConfig adaptation;

  /// Seed for the piggybacked contributing-count sketch.
  uint64_t contrib_seed = 0x510c;

  /// See SoaTributaryDeltaAggregator::Options::sensor_population.
  size_t sensor_population = 0;

  /// Capture the base station's root aggregate state every epoch (see
  /// Engine::root_state). This is the facade-level switch behind
  /// Experiment::Builder::CaptureRootState; the engine enables capture at
  /// construction so consumers (src/window/, src/fed/) never reach into
  /// engine internals.
  bool capture_root_state = false;
};

/// The facade every bench, example and integration test runs against.
/// Concrete instances come from MakeEngine (any Aggregate) or from
/// Experiment::Builder (the AggregateKind registry).
class Engine {
 public:
  virtual ~Engine() = default;

  /// Runs one aggregation epoch (plus, for adaptive strategies, one
  /// adaptation decision when the damper allows).
  virtual EpochResult RunEpoch(uint32_t epoch) = 0;

  /// Runs epochs [first, first + n): byte-identical to n sequential
  /// RunEpoch calls. All size-n inbox state is scratch reused across the
  /// batch -- see scratch_stats().
  std::vector<EpochResult> RunEpochs(uint32_t first, uint32_t n) {
    std::vector<EpochResult> out;
    out.reserve(n);
    for (uint32_t e = 0; e < n; ++e) out.push_back(RunEpoch(first + e));
    return out;
  }

  virtual Strategy strategy() const = 0;
  virtual Network& network() const = 0;

  /// Cumulative count of nodes whose self synopsis/partial was recomputed
  /// rather than replayed from the epoch-delta cache; grows by at most one
  /// per in-sweep node per epoch.
  virtual uint64_t nodes_reprocessed() const = 0;

  /// Notification that the scenario's tree and rings were repaired in
  /// place (dynamic scenarios, after churn). Tree engines drop their cached
  /// children-first schedule; adaptive engines also re-derive their cached
  /// tree state and resync the region. No engine caches ring adjacency:
  /// the rebuilt Rings carries its own upstream CSR.
  virtual void OnTopologyChanged() {}

  /// The captured root state of the last RunEpoch, when
  /// EngineOptions::capture_root_state (Experiment::Builder::
  /// CaptureRootState) was set at construction. Capture is off by default:
  /// the tree-engine capture copies the root partial once per epoch, so
  /// only consumers pay. Two consumers exist: windowed aggregation
  /// (src/window/ re-merges the state across epochs) and the federation
  /// tier (fed/Coordinator merges the states of many gateway engines into
  /// global answers -- see DESIGN.md "Hierarchical federation"). Both ride
  /// the state the base station already holds, so neither adds radio bytes.
  ///
  /// All-null before the first captured epoch or when capture is
  /// disabled. Which sides are populated is a strategy property
  /// (RootStateSides): tree partial for tree strategies, fused synopsis
  /// for synopsis diffusion, both for Tributary-Delta. The pointers alias engine-owned scratch valid until
  /// the next RunEpoch; a root state excludes any base-station
  /// self-contribution, so cross-engine merging never double-counts.
  virtual RootState root_state() const { return {}; }

  /// Adaptation counters (zeros when !IsAdaptive(strategy())).
  virtual EngineStats stats() const { return {}; }

  /// Inbox-scratch reuse counters of the wrapped engine.
  virtual ScratchStats scratch_stats() const = 0;

  /// Tributary/delta region, or nullptr for non-adaptive strategies.
  virtual const RegionState* region() const { return nullptr; }
  virtual RegionState* mutable_region() { return nullptr; }

  /// Delta size (1 == base station only); 0 when there is no region.
  size_t delta_size() const {
    const RegionState* r = region();
    return r ? r->delta_size() : 0;
  }
};

namespace api_internal {

inline void AssignResult(EpochResult* r, double v) { r->value = v; }
inline void AssignResult(EpochResult* r, const FreqResult& f) {
  r->value = f.total;
  r->freq = f;
}
inline void AssignResult(EpochResult* r, const QuerySetResult& q) {
  r->query_values = q.values;
  r->value = q.values.empty() ? 0.0 : q.values[q.primary];
}

template <typename Outcome>
EpochResult ToEpochResult(uint32_t epoch, const Outcome& o) {
  EpochResult r;
  r.epoch = epoch;
  AssignResult(&r, o.result);
  r.true_contributing = o.true_contributing;
  r.reported_contributing = o.reported_contributing;
  return r;
}

// The engine wrappers. Each enables root capture at construction when
// EngineOptions::capture_root_state asks for it and reports the epoch-delta
// cache through nodes_reprocessed(). The tree engines forward
// OnTopologyChanged (TAG drops its children-first schedule, Tributary-Delta
// resyncs its region); synopsis diffusion caches nothing topological.

template <Aggregate A>
class SoaTreeEngine final : public Engine {
 public:
  SoaTreeEngine(const Scenario* sc, std::shared_ptr<Network> network,
                const A* aggregate, Strategy strategy,
                const EngineOptions& options)
      : network_(std::move(network)),
        strategy_(strategy),
        inner_(&sc->tree, network_.get(), aggregate,
               typename SoaTreeAggregator<A>::Options{
                   .extra_retransmissions =
                       options.tree_extra_retransmissions >= 0
                           ? options.tree_extra_retransmissions
                           : (strategy == Strategy::kTagRetx ? 2 : 0)}) {
    if (options.capture_root_state) inner_.EnableRootCapture();
  }

  EpochResult RunEpoch(uint32_t epoch) override {
    return ToEpochResult(epoch, inner_.RunEpoch(epoch));
  }
  Strategy strategy() const override { return strategy_; }
  Network& network() const override { return *network_; }
  uint64_t nodes_reprocessed() const override {
    return inner_.nodes_reprocessed();
  }
  void OnTopologyChanged() override { inner_.OnTopologyChanged(); }
  RootState root_state() const override {
    return RootState{inner_.root_partial(), nullptr};
  }
  ScratchStats scratch_stats() const override {
    return inner_.scratch_stats();
  }

 private:
  std::shared_ptr<Network> network_;
  Strategy strategy_;
  SoaTreeAggregator<A> inner_;
};

template <Aggregate A>
class SoaMultipathEngine final : public Engine {
 public:
  SoaMultipathEngine(const Scenario* sc, std::shared_ptr<Network> network,
                     const A* aggregate, const EngineOptions& options)
      : network_(std::move(network)),
        inner_(&sc->rings, network_.get(), aggregate, options.contrib_seed) {
    if (options.capture_root_state) inner_.EnableRootCapture();
  }

  EpochResult RunEpoch(uint32_t epoch) override {
    return ToEpochResult(epoch, inner_.RunEpoch(epoch));
  }
  Strategy strategy() const override { return Strategy::kSynopsisDiffusion; }
  Network& network() const override { return *network_; }
  uint64_t nodes_reprocessed() const override {
    return inner_.nodes_reprocessed();
  }
  RootState root_state() const override {
    return RootState{nullptr, inner_.root_synopsis()};
  }
  ScratchStats scratch_stats() const override {
    return inner_.scratch_stats();
  }

 private:
  std::shared_ptr<Network> network_;
  SoaMultipathAggregator<A> inner_;
};

template <Aggregate A>
class SoaTributaryDeltaEngine final : public Engine {
 public:
  SoaTributaryDeltaEngine(const Scenario* sc, std::shared_ptr<Network> network,
                          const A* aggregate, Strategy strategy,
                          const EngineOptions& options)
      : network_(std::move(network)),
        strategy_(strategy),
        inner_(&sc->tree, &sc->rings, network_.get(), aggregate,
               MakePolicy(strategy),
               typename SoaTributaryDeltaAggregator<A>::Options{
                   .adaptation = options.adaptation,
                   .tree_extra_retransmissions =
                       options.tree_extra_retransmissions >= 0
                           ? options.tree_extra_retransmissions
                           : 0,
                   .contrib_seed = options.contrib_seed,
                   .sensor_population = options.sensor_population}) {
    if (options.capture_root_state) inner_.EnableRootCapture();
  }

  EpochResult RunEpoch(uint32_t epoch) override {
    return ToEpochResult(epoch, inner_.RunEpoch(epoch));
  }
  Strategy strategy() const override { return strategy_; }
  Network& network() const override { return *network_; }
  uint64_t nodes_reprocessed() const override {
    return inner_.nodes_reprocessed();
  }
  RootState root_state() const override {
    return RootState{inner_.root_partial(), inner_.root_synopsis()};
  }
  void OnTopologyChanged() override { inner_.OnTopologyChanged(); }
  EngineStats stats() const override {
    return EngineStats{.expansions = inner_.stats().expansions,
                       .shrinks = inner_.stats().shrinks,
                       .decisions = inner_.stats().decisions};
  }
  ScratchStats scratch_stats() const override {
    return inner_.scratch_stats();
  }
  const RegionState* region() const override { return &inner_.region(); }
  RegionState* mutable_region() override { return &inner_.region(); }

 private:
  static std::unique_ptr<AdaptationPolicy> MakePolicy(Strategy s) {
    if (s == Strategy::kTdCoarse) return std::make_unique<TdCoarsePolicy>();
    return std::make_unique<TdFinePolicy>();
  }

  std::shared_ptr<Network> network_;
  Strategy strategy_;
  SoaTributaryDeltaAggregator<A> inner_;
};

}  // namespace api_internal

/// Builds a type-erased engine running `strategy` over `aggregate`. The
/// scenario and aggregate must outlive the engine; the network is shared
/// so several engines can ride one radio environment (and its RNG
/// sequence). When options.capture_root_state is set, the engine captures
/// its root state from the first epoch on, so callers never have to poke
/// the engine afterwards.
template <Aggregate A>
std::unique_ptr<Engine> MakeEngine(Strategy strategy, const Scenario& scenario,
                                   std::shared_ptr<Network> network,
                                   const A* aggregate,
                                   EngineOptions options = {}) {
  TD_CHECK(network != nullptr);
  TD_CHECK(aggregate != nullptr);
  switch (strategy) {
    case Strategy::kTag:
    case Strategy::kTagRetx:
      return std::make_unique<api_internal::SoaTreeEngine<A>>(
          &scenario, std::move(network), aggregate, strategy, options);
    case Strategy::kSynopsisDiffusion:
      return std::make_unique<api_internal::SoaMultipathEngine<A>>(
          &scenario, std::move(network), aggregate, options);
    case Strategy::kTributaryDelta:
    case Strategy::kTdCoarse:
      return std::make_unique<api_internal::SoaTributaryDeltaEngine<A>>(
          &scenario, std::move(network), aggregate, strategy, options);
  }
  TD_CHECK_MSG(false, "unknown Strategy");
  return nullptr;
}

}  // namespace td

#endif  // TD_API_ENGINE_H_
