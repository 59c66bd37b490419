// Tests for src/api: the type-erased Engine facade and the Experiment
// builder. The golden tests assert that facade-built engines produce
// bit-identical results to direct template construction for the same seed,
// across every Strategy and several aggregates; the scratch tests pin the
// RunEpochs acceptance criterion (no per-epoch inbox allocations).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "agg/aggregates.h"
#include "api/experiment.h"
#include "core/soa_multipath.h"
#include "core/soa_td.h"
#include "core/soa_tree.h"
#include "net/network.h"
#include "workload/labdata.h"
#include "workload/scenario.h"

namespace td {
namespace {

uint64_t IdReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

struct GoldenRow {
  double value;
  size_t contributing;
  double reported;

  bool operator==(const GoldenRow& o) const {
    // Bitwise comparison: the facade must not perturb anything.
    return value == o.value && contributing == o.contributing &&
           reported == o.reported;
  }
};

/// Runs `strategy` by constructing the class templates directly, exactly
/// as call sites did before the facade existed.
template <Aggregate A>
std::vector<GoldenRow> RunDirect(Strategy strategy, const Scenario& sc,
                                 std::shared_ptr<LossModel> loss,
                                 uint64_t seed, const A& agg,
                                 uint32_t epochs) {
  Network net(&sc.deployment, &sc.connectivity, std::move(loss), seed);
  std::vector<GoldenRow> out;
  auto push = [&](const auto& o) {
    out.push_back(GoldenRow{o.result, o.true_contributing,
                            o.reported_contributing});
  };
  switch (strategy) {
    case Strategy::kTag: {
      SoaTreeAggregator<A> eng(&sc.tree, &net, &agg);
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
    case Strategy::kTagRetx: {
      SoaTreeAggregator<A> eng(
          &sc.tree, &net, &agg,
          typename SoaTreeAggregator<A>::Options{.extra_retransmissions = 2});
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
    case Strategy::kSynopsisDiffusion: {
      SoaMultipathAggregator<A> eng(&sc.rings, &net, &agg);
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
    case Strategy::kTributaryDelta:
    case Strategy::kTdCoarse: {
      std::unique_ptr<AdaptationPolicy> policy;
      if (strategy == Strategy::kTdCoarse) {
        policy = std::make_unique<TdCoarsePolicy>();
      } else {
        policy = std::make_unique<TdFinePolicy>();
      }
      SoaTributaryDeltaAggregator<A> eng(&sc.tree, &sc.rings, &net, &agg,
                                         std::move(policy));
      for (uint32_t e = 0; e < epochs; ++e) push(eng.RunEpoch(e));
      break;
    }
  }
  return out;
}

std::vector<GoldenRow> ToRows(const RunResult& r) {
  std::vector<GoldenRow> out;
  for (const EpochResult& e : r.epochs) {
    out.push_back(GoldenRow{e.value, e.true_contributing,
                            e.reported_contributing});
  }
  return out;
}

class GoldenStrategyTest : public ::testing::TestWithParam<Strategy> {};
INSTANTIATE_TEST_SUITE_P(AllStrategies, GoldenStrategyTest,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           return std::string(StrategyName(info.param)) ==
                                          "TAG+retx"
                                      ? std::string("TAGretx")
                                      : std::string(
                                            StrategyName(info.param)) ==
                                                "TD-Coarse"
                                            ? std::string("TDCoarse")
                                            : StrategyName(info.param);
                         });

constexpr uint32_t kGoldenEpochs = 25;
constexpr uint64_t kNetSeed = 91;

TEST_P(GoldenStrategyTest, CountMatchesDirectConstruction) {
  Scenario sc = MakeSyntheticScenario(21, 150);
  auto loss = std::make_shared<GlobalLoss>(0.25);
  CountAggregate agg;
  auto direct = RunDirect(GetParam(), sc, loss, kNetSeed, agg, kGoldenEpochs);

  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(GetParam())
                    .LossModel(loss)
                    .NetworkSeed(kNetSeed)
                    .Epochs(kGoldenEpochs)
                    .Run();
  EXPECT_EQ(ToRows(r), direct);
}

TEST_P(GoldenStrategyTest, SumMatchesDirectConstruction) {
  Scenario sc = MakeSyntheticScenario(22, 150);
  auto loss = std::make_shared<GlobalLoss>(0.2);
  SumAggregate agg(IdReading);
  auto direct = RunDirect(GetParam(), sc, loss, kNetSeed, agg, kGoldenEpochs);

  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kSum)
                    .Reading(IdReading)
                    .Strategy(GetParam())
                    .LossModel(loss)
                    .NetworkSeed(kNetSeed)
                    .Epochs(kGoldenEpochs)
                    .Run();
  EXPECT_EQ(ToRows(r), direct);
}

TEST_P(GoldenStrategyTest, UniqueCountMatchesDirectConstruction) {
  Scenario sc = MakeSyntheticScenario(23, 120);
  auto loss = std::make_shared<GlobalLoss>(0.15);
  UniqueCountAggregate agg(IdReading);
  auto direct = RunDirect(GetParam(), sc, loss, kNetSeed, agg, kGoldenEpochs);

  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kUniqueCount)
                    .Reading(IdReading)
                    .Strategy(GetParam())
                    .LossModel(loss)
                    .NetworkSeed(kNetSeed)
                    .Epochs(kGoldenEpochs)
                    .Run();
  EXPECT_EQ(ToRows(r), direct);
}

// ------------------------------------------------------ RunEpochs batches

TEST(RunEpochsTest, BatchMatchesSequentialRunEpoch) {
  auto build = [] {
    return Experiment::Builder()
        .Synthetic(31, 150)
        .Aggregate(AggregateKind::kCount)
        .Strategy(Strategy::kTributaryDelta)
        .GlobalLossRate(0.3)
        .NetworkSeed(7)
        .Epochs(1)  // unused; we step the engine directly
        .Build();
  };
  Experiment batch = build();
  Experiment seq = build();
  auto batch_rows = batch.engine().RunEpochs(0, 20);
  for (uint32_t e = 0; e < 20; ++e) {
    EpochResult r = seq.engine().RunEpoch(e);
    EXPECT_EQ(batch_rows[e].value, r.value) << "epoch " << e;
    EXPECT_EQ(batch_rows[e].true_contributing, r.true_contributing);
    EXPECT_EQ(batch_rows[e].reported_contributing, r.reported_contributing);
  }
  EXPECT_EQ(batch.engine().delta_size(), seq.engine().delta_size());
}

TEST(RunEpochsTest, InboxScratchAllocatedOncePerEngine) {
  for (Strategy s : kAllStrategies) {
    Experiment exp = Experiment::Builder()
                         .Synthetic(32, 120)
                         .Aggregate(AggregateKind::kCount)
                         .Strategy(s)
                         .GlobalLossRate(0.2)
                         .Epochs(1)
                         .Build();
    exp.engine().RunEpochs(0, 12);
    ScratchStats stats = exp.engine().scratch_stats();
    EXPECT_EQ(stats.builds, 1u) << StrategyName(s);
    EXPECT_EQ(stats.reuses, 11u) << StrategyName(s);
  }
}

// ------------------------------------------------------------ RunTrials

std::vector<GoldenRow> AllRows(const SweepResult& r) {
  std::vector<GoldenRow> out;
  for (const RunResult& trial : r.trials) {
    for (const EpochResult& e : trial.epochs) {
      out.push_back(GoldenRow{e.value, e.true_contributing,
                              e.reported_contributing});
    }
  }
  return out;
}

TEST_P(GoldenStrategyTest, RunTrialsIndependentOfThreadCount) {
  // The determinism contract: trial t is seeded from (base seed, t), so
  // Threads(1) and Threads(8) must produce bit-identical per-epoch
  // estimates, RMS, byte tallies and merged sweep statistics.
  auto sweep = [&](unsigned threads) {
    return Experiment::Builder()
        .Synthetic(41, 120)
        .Aggregate(AggregateKind::kCount)
        .Strategy(GetParam())
        .GlobalLossRate(0.25)
        .NetworkSeed(17)
        .AdaptPeriod(5)
        .Warmup(5)
        .Epochs(10)
        .Trials(6)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult serial = sweep(1);
  SweepResult threaded = sweep(8);

  ASSERT_EQ(serial.trials.size(), 6u);
  ASSERT_EQ(threaded.trials.size(), 6u);
  EXPECT_EQ(AllRows(serial), AllRows(threaded));
  for (size_t t = 0; t < serial.trials.size(); ++t) {
    EXPECT_EQ(serial.trials[t].rms, threaded.trials[t].rms) << "trial " << t;
    EXPECT_EQ(serial.trials[t].bytes_per_epoch,
              threaded.trials[t].bytes_per_epoch)
        << "trial " << t;
    EXPECT_EQ(serial.trials[t].energy.bytes, threaded.trials[t].energy.bytes)
        << "trial " << t;
    EXPECT_EQ(serial.trials[t].final_delta_size,
              threaded.trials[t].final_delta_size)
        << "trial " << t;
  }
  // Merged parallel-Welford summaries are combined in trial order, so they
  // match bitwise too.
  EXPECT_EQ(serial.rms.mean(), threaded.rms.mean());
  EXPECT_EQ(serial.rms.variance(), threaded.rms.variance());
  EXPECT_EQ(serial.bytes_per_epoch.mean(), threaded.bytes_per_epoch.mean());
  EXPECT_EQ(serial.estimates.mean(), threaded.estimates.mean());
  EXPECT_EQ(serial.estimates.variance(), threaded.estimates.variance());
  EXPECT_EQ(serial.estimates.count(), threaded.estimates.count());
}

TEST(RunTrialsTest, TrialsDifferAndStatsMatchPooledEpochs) {
  SweepResult r = Experiment::Builder()
                      .Synthetic(42, 120)
                      .Aggregate(AggregateKind::kCount)
                      .Strategy(Strategy::kSynopsisDiffusion)
                      .GlobalLossRate(0.3)
                      .NetworkSeed(3)
                      .Epochs(8)
                      .Trials(4)
                      .Threads(2)
                      .RunTrials();
  ASSERT_EQ(r.trials.size(), 4u);
  // Distinct per-trial seeds: the loss draws (and hence estimates) differ.
  EXPECT_NE(r.trials[0].epochs[0].value, r.trials[1].epochs[0].value);
  // The pooled estimate accumulator covers every measured epoch.
  EXPECT_EQ(r.estimates.count(), 4u * 8u);
  EXPECT_EQ(r.rms.count(), 4u);
}

// ------------------------------------------------------------- RunResult

TEST(ExperimentTest, RunResultSeriesAreConsistent) {
  RunResult r = Experiment::Builder()
                    .Synthetic(33, 200)
                    .Aggregate(AggregateKind::kCount)
                    .Strategy(Strategy::kTdCoarse)
                    .GlobalLossRate(0.25)
                    .AdaptPeriod(5)
                    .Warmup(60)
                    .Epochs(40)
                    .Run();
  ASSERT_EQ(r.epochs.size(), 40u);
  ASSERT_EQ(r.truths.size(), 40u);
  ASSERT_EQ(r.contributing.size(), 40u);
  EXPECT_EQ(r.epochs.front().epoch, 60u);  // measured epochs follow warmup
  EXPECT_GT(r.rms, 0.0);
  EXPECT_LT(r.rms, 1.0);
  for (double c : r.contributing) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
  // Adaptation ran and the delta grew beyond the base station.
  EXPECT_GT(r.stats.decisions, 0u);
  EXPECT_GT(r.final_delta_size, 1u);
  // Energy accounting covers the measured epochs only (reset after warmup).
  EXPECT_GT(r.energy.transmissions, 0u);
  EXPECT_GT(r.bytes_per_epoch, 0.0);
}

TEST(ExperimentTest, AverageAndExtremumDefaults) {
  for (AggregateKind kind :
       {AggregateKind::kAvg, AggregateKind::kMin, AggregateKind::kMax}) {
    RunResult r = Experiment::Builder()
                      .Synthetic(34, 120)
                      .Aggregate(kind)
                      .Reading(IdReading)
                      .Strategy(Strategy::kTag)
                      .Epochs(3)  // lossless tree: exact answers
                      .Run();
    ASSERT_EQ(r.truths.size(), 3u);
    for (size_t i = 0; i < r.epochs.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.epochs[i].value, r.truths[i])
          << AggregateKindName(kind);
    }
    EXPECT_EQ(r.rms, 0.0) << AggregateKindName(kind);
  }
}

TEST(ExperimentTest, UniqueCountTracksDistinctValues) {
  RunResult r = Experiment::Builder()
                    .Synthetic(35, 200)
                    .Aggregate(AggregateKind::kUniqueCount)
                    .Reading([](NodeId v, uint32_t) -> uint64_t {
                      return v % 40;  // ~40 distinct values
                    })
                    .Strategy(Strategy::kTag)
                    .Epochs(1)
                    .Run();
  ASSERT_EQ(r.truths.size(), 1u);
  // FM approximation only (lossless tree): allow a generous band.
  EXPECT_NEAR(r.epochs[0].value, r.truths[0], 0.5 * r.truths[0] + 5.0);
}

TEST(ExperimentTest, FrequentItemsFillsFreqResult) {
  Scenario sc = MakeLabScenario(36);
  ItemSource items(sc.deployment.size());
  FillLabItemStreams(&items, 200);
  MultipathFreqParams params;
  params.eps = 0.01;
  params.item_bitmaps = 16;
  RunResult r = Experiment::Builder()
                    .Scenario(&sc)
                    .Aggregate(AggregateKind::kFrequentItems)
                    .Items(&items)
                    .FreqParams(params)
                    .Strategy(Strategy::kTributaryDelta)
                    .GlobalLossRate(0.1)
                    .AdaptPeriod(3)
                    .Warmup(10)
                    .Epochs(2)
                    .Run();
  EXPECT_TRUE(r.truths.empty());  // no scalar ground truth
  for (const EpochResult& e : r.epochs) {
    EXPECT_FALSE(e.freq.counts.empty());
    EXPECT_GT(e.freq.total, 0.0);
    EXPECT_DOUBLE_EQ(e.value, e.freq.total);
  }
}

TEST(ExperimentTest, SharedNetworkDrivesMultipleEngines) {
  Scenario sc = MakeSyntheticScenario(37, 120);
  auto net = std::make_shared<Network>(&sc.deployment, &sc.connectivity,
                                       std::make_shared<GlobalLoss>(0.1), 5);
  Experiment a = Experiment::Builder()
                     .Scenario(&sc)
                     .Aggregate(AggregateKind::kCount)
                     .Strategy(Strategy::kTributaryDelta)
                     .Network(net)
                     .Epochs(1)
                     .Build();
  Experiment b = Experiment::Builder()
                     .Scenario(&sc)
                     .Aggregate(AggregateKind::kMax)
                     .RealReading([](NodeId v, uint32_t) { return v * 1.0; })
                     .Strategy(Strategy::kTag)
                     .Network(net)
                     .Epochs(1)
                     .Build();
  for (uint32_t e = 0; e < 5; ++e) {
    a.engine().RunEpoch(e);
    b.engine().RunEpoch(e);
  }
  // Both engines' traffic lands on the one shared accounting.
  EXPECT_EQ(&a.network(), &b.network());
  EXPECT_GT(net->total_energy().transmissions,
            2 * (sc.tree.num_in_tree() - 1));
}

// The facade-level CaptureRootState switch populates exactly the sides a
// strategy's root state carries -- the tree partial for TAG, the synopsis
// for synopsis diffusion, both for Tributary-Delta -- and nothing is
// captured without it.
TEST(ExperimentTest, CaptureRootStatePopulatesStrategySides) {
  for (Strategy s : kAllStrategies) {
    SCOPED_TRACE(StrategyName(s));
    auto builder = [&] {
      Experiment::Builder b;
      b.Synthetic(41, 150)
          .Aggregate(AggregateKind::kSum)
          .Reading([](NodeId v, uint32_t e) { return v + e; })
          .Strategy(s)
          .GlobalLossRate(0.1)
          .Epochs(1);
      return b;
    };
    Experiment on = builder().CaptureRootState().Build();
    Experiment off = builder().Build();
    EpochResult r_on = on.StepEpoch(0);
    EpochResult r_off = off.StepEpoch(0);
    // Capture is base-station bookkeeping: the answer does not move.
    EXPECT_EQ(r_on.value, r_off.value);
    EXPECT_EQ(on.network().total_energy().bytes,
              off.network().total_energy().bytes);
    RootState captured = on.engine().root_state();
    EXPECT_EQ(captured.tree_partial != nullptr,
              s != Strategy::kSynopsisDiffusion);
    EXPECT_EQ(captured.synopsis != nullptr,
              s == Strategy::kSynopsisDiffusion || IsAdaptive(s));
    RootState none = off.engine().root_state();
    EXPECT_EQ(none.tree_partial, nullptr);
    EXPECT_EQ(none.synopsis, nullptr);
  }
}

TEST(ExperimentTest, StrategyAndRegionAccessors) {
  Experiment exp = Experiment::Builder()
                       .Synthetic(38, 100)
                       .Aggregate(AggregateKind::kCount)
                       .Strategy(Strategy::kTag)
                       .Epochs(1)
                       .Build();
  EXPECT_EQ(exp.engine().strategy(), Strategy::kTag);
  EXPECT_EQ(exp.engine().region(), nullptr);
  EXPECT_EQ(exp.engine().delta_size(), 0u);

  Experiment td_exp = Experiment::Builder()
                          .Synthetic(38, 100)
                          .Aggregate(AggregateKind::kCount)
                          .Strategy(Strategy::kTributaryDelta)
                          .Epochs(1)
                          .Build();
  ASSERT_NE(td_exp.engine().region(), nullptr);
  EXPECT_EQ(td_exp.engine().delta_size(), 1u);  // base-only delta initially
  td_exp.engine().mutable_region()->ExpandAll();
  EXPECT_GT(td_exp.engine().delta_size(), 1u);
}

}  // namespace
}  // namespace td
