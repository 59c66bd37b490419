// Tests for the engine core (src/core/). The load-bearing pins:
//
//   * golden recordings: every epoch value, contributor count, reported
//     count, per-query and windowed value, frequent-items count, byte /
//     energy tally, adaptation counter, repair and link-layer retry tally
//     matches the per-epoch fixtures under tests/golden/ EXACTLY (hex
//     floats) -- across all five strategies, every registry aggregate,
//     frequent items, query sets with windows, churn dynamics, sparsely
//     changing readings (delta replay) and an ETX + retry link layer. The
//     fixtures were recorded from the original per-node-object engines,
//     which the structure-of-arrays core replaced bit for bit; any drift
//     in the Deliver/CountTransmission sequence against the shared network
//     RNG shows up as a hard mismatch here.
//   * epoch deltas: unchanged readings replay cached self banks (the
//     nodes_reprocessed_per_epoch observability).
//   * determinism: Threads(1) == Threads(8) RunTrials.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "golden.h"
#include "link/fault_injector.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace td {
namespace {

using golden::ExpectMatchesGolden;
using golden::ExpectRunMatchesGolden;

uint64_t IdReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

uint64_t ConstantReading(NodeId node, uint32_t /*epoch*/) {
  return node % 17 + 1;
}

// Perturbs a small pseudo-random subset of nodes each epoch; everyone else
// keeps yesterday's reading, which is what the delta cache feeds on.
uint64_t SparselyChangingReading(NodeId node, uint32_t epoch) {
  if (node % 13 == epoch % 13) return node + epoch * 7 + 1;
  return node % 23 + 1;
}

// Full bitwise comparison of two runs. EXPECT_EQ on doubles is exact
// equality -- that is the point: runs must not differ in the last ulp.
void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].value, b.epochs[i].value) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].true_contributing, b.epochs[i].true_contributing)
        << "epoch " << i;
    EXPECT_EQ(a.epochs[i].reported_contributing,
              b.epochs[i].reported_contributing)
        << "epoch " << i;
    EXPECT_EQ(a.epochs[i].query_values, b.epochs[i].query_values)
        << "epoch " << i;
    EXPECT_EQ(a.epochs[i].windowed_values, b.epochs[i].windowed_values)
        << "epoch " << i;
  }
  EXPECT_EQ(a.rms, b.rms);
  EXPECT_EQ(a.truths, b.truths);
  EXPECT_EQ(a.contributing, b.contributing);
  EXPECT_EQ(a.energy.bytes, b.energy.bytes);
  EXPECT_EQ(a.energy.transmissions, b.energy.transmissions);
  EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);
  EXPECT_EQ(a.header_bytes_per_epoch, b.header_bytes_per_epoch);
  EXPECT_EQ(a.final_delta_size, b.final_delta_size);
  EXPECT_EQ(a.stats.expansions, b.stats.expansions);
  EXPECT_EQ(a.stats.shrinks, b.stats.shrinks);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  EXPECT_EQ(a.topology_repairs, b.topology_repairs);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].estimates, b.queries[i].estimates);
    EXPECT_EQ(a.queries[i].rms, b.queries[i].rms);
    EXPECT_EQ(a.queries[i].windowed_estimates,
              b.queries[i].windowed_estimates);
    EXPECT_EQ(a.queries[i].windowed_rms, b.queries[i].windowed_rms);
  }
}

Experiment::Builder BaseBuilder(td::Strategy strategy, AggregateKind kind) {
  Experiment::Builder b;
  b.Synthetic(/*seed=*/7, /*num_sensors=*/300)
      .Aggregate(kind)
      .Reading(IdReading)
      .Strategy(strategy)
      .GlobalLossRate(0.2)
      .NetworkSeed(11)
      .Warmup(4)
      .Epochs(12);
  return b;
}

const char* StrategyLabel(Strategy s) {
  switch (s) {
    case Strategy::kTag: return "Tag";
    case Strategy::kTagRetx: return "TagRetx";
    case Strategy::kSynopsisDiffusion: return "SD";
    case Strategy::kTributaryDelta: return "TD";
    case Strategy::kTdCoarse: return "TdCoarse";
  }
  return "Unknown";
}

// Fixture file of one strategy's golden cases: tests/golden/core_<s>.txt.
std::string GoldenFile(Strategy s) {
  std::string name = StrategyLabel(s);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return "core_" + name;
}

class CoreStrategyTest : public testing::TestWithParam<td::Strategy> {};

INSTANTIATE_TEST_SUITE_P(AllStrategies, CoreStrategyTest,
                         testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           return StrategyLabel(info.param);
                         });

TEST_P(CoreStrategyTest, RegistryAggregatesMatchGolden) {
  const AggregateKind kinds[] = {
      AggregateKind::kCount,      AggregateKind::kSum,
      AggregateKind::kAvg,        AggregateKind::kMin,
      AggregateKind::kMax,        AggregateKind::kUniqueCount,
      AggregateKind::kQuantile,   AggregateKind::kQuantileQd,
      AggregateKind::kHistogramQd, AggregateKind::kRangeCountQd};
  for (AggregateKind kind : kinds) {
    SCOPED_TRACE(AggregateKindName(kind));
    ExpectRunMatchesGolden(GoldenFile(GetParam()), AggregateKindName(kind),
                           BaseBuilder(GetParam(), kind));
  }
}

TEST_P(CoreStrategyTest, FrequentItemsMatchGolden) {
  Scenario sc = MakeSyntheticScenario(/*seed=*/7, /*num_sensors=*/300);
  ItemSource items(sc.deployment.size());
  Rng rng(21);
  FillSharedZipfStreams(&items, /*universe=*/64, /*s=*/1.1,
                        /*stream_length=*/20, &rng);
  MultipathFreqParams params;
  params.eps = 0.02;
  params.item_bitmaps = 16;
  ExpectRunMatchesGolden(GoldenFile(GetParam()), "FrequentItems",
                         Experiment::Builder()
                             .Scenario(&sc)
                             .Aggregate(AggregateKind::kFrequentItems)
                             .Items(&items)
                             .FreqParams(params)
                             .Strategy(GetParam())
                             .GlobalLossRate(0.2)
                             .NetworkSeed(11)
                             .AdaptPeriod(3)
                             .Warmup(4)
                             .Epochs(12));
}

TEST_P(CoreStrategyTest, QuerySetsAndWindowsMatchGolden) {
  Query count;
  count.kind = AggregateKind::kCount;
  Query sum;
  sum.kind = AggregateKind::kSum;
  sum.window = WindowSpec::Sliding(5);
  Query avg;
  avg.kind = AggregateKind::kAvg;
  ExpectRunMatchesGolden(GoldenFile(GetParam()), "QuerySetWindowed",
                         Experiment::Builder()
                             .Synthetic(/*seed=*/9, /*num_sensors=*/256)
                             .AddQuery(count)
                             .AddQuery(sum)
                             .AddQuery(avg)
                             .Reading(IdReading)
                             .Strategy(GetParam())
                             .GlobalLossRate(0.15)
                             .NetworkSeed(13)
                             .Warmup(3)
                             .Epochs(10));
}

TEST_P(CoreStrategyTest, DynamicsMatchGolden) {
  DynamicsConfig config;
  config.churn = ChurnConfig{
      .fail_rate = 0.03, .mean_downtime = 6.0, .max_dead_fraction = 0.3};
  RunResult r =
      BaseBuilder(GetParam(), AggregateKind::kSum).Dynamics(config).Run();
  EXPECT_GT(r.topology_repairs, 0u);
  ExpectMatchesGolden(GoldenFile(GetParam()), "SumChurn", r);
}

// Delta path: replaying cached banks for unchanged readings must reproduce
// the recording of a full recompute of every node.
TEST_P(CoreStrategyTest, EpochDeltaReplayMatchesGolden) {
  ExpectRunMatchesGolden(
      GoldenFile(GetParam()), "SumSparseChanges",
      BaseBuilder(GetParam(), AggregateKind::kSum)
          .Reading(SparselyChangingReading));
}

// Link layer: ETX parents, a three-attempt retry budget with ack loss,
// route aging and the scripted reference fault schedule.
TEST_P(CoreStrategyTest, LinkLayerRetriesMatchGolden) {
  Scenario sc = MakeSyntheticScenario(/*seed=*/9, /*num_sensors=*/200);
  LinkLayerConfig ll;
  ll.etx_parents = true;
  ll.retry.max_attempts = 3;
  ll.retry.ack_loss = true;
  ll.aging = RouteAgingConfig{};
  ll.faults = ReferenceFaultSchedule(sc.deployment, 24);
  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(GetParam())
                    .LinkLayer(ll)
                    .NetworkSeed(5)
                    .Warmup(4)
                    .Epochs(20)
                    .Run();
  if (GetParam() != Strategy::kSynopsisDiffusion) {
    EXPECT_GT(r.attempts_per_epoch, 0.0);
  }
  ExpectMatchesGolden(GoldenFile(GetParam()), "CountLinkLayer", r);
}

TEST(CoreDeltaTest, ConstantReadingsReplayEverything) {
  RunResult r = BaseBuilder(Strategy::kSynopsisDiffusion, AggregateKind::kSum)
                    .Reading(ConstantReading)
                    .Run();
  // Every node's self bank was cached during warmup; measured epochs replay.
  EXPECT_EQ(r.nodes_reprocessed_per_epoch, 0.0);
  ExpectMatchesGolden(GoldenFile(Strategy::kSynopsisDiffusion),
                      "SumConstant", r);
}

TEST(CoreDeltaTest, SparseChangesReprocessOnlyTouchedNodes) {
  RunResult r = BaseBuilder(Strategy::kSynopsisDiffusion, AggregateKind::kSum)
                    .Reading(SparselyChangingReading)
                    .Run();
  // ~2/13 of nodes change per epoch (this epoch's perturbed set plus last
  // epoch's reverting back); everyone else replays.
  EXPECT_GT(r.nodes_reprocessed_per_epoch, 0.0);
  EXPECT_LT(r.nodes_reprocessed_per_epoch, 300.0 * 0.25);

  RunResult churn = BaseBuilder(Strategy::kSynopsisDiffusion,
                                AggregateKind::kSum)
                        .Reading(IdReading)  // changes every epoch
                        .Run();
  EXPECT_GT(churn.nodes_reprocessed_per_epoch,
            r.nodes_reprocessed_per_epoch);
}

TEST(CoreTrialsTest, RunTrialsDeterministicAcrossThreadCounts) {
  auto sweep = [&](unsigned threads) {
    return BaseBuilder(Strategy::kTributaryDelta, AggregateKind::kCount)
        .Trials(6)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult one = sweep(1);
  SweepResult eight = sweep(8);
  ASSERT_EQ(one.trials.size(), eight.trials.size());
  for (size_t t = 0; t < one.trials.size(); ++t) {
    ExpectBitIdentical(one.trials[t], eight.trials[t]);
  }
  EXPECT_EQ(one.rms.mean(), eight.rms.mean());
  EXPECT_EQ(one.estimates.mean(), eight.estimates.mean());
  EXPECT_EQ(one.estimates.stddev(), eight.estimates.stddev());
}

TEST(CoreApiTest, EngineReportsReprocessedNodes) {
  Experiment exp = BaseBuilder(Strategy::kTag, AggregateKind::kCount).Build();
  EXPECT_EQ(exp.engine().nodes_reprocessed(), 0u);
  exp.StepEpoch(0);
  EXPECT_GT(exp.engine().nodes_reprocessed(), 0u);
}

}  // namespace
}  // namespace td
