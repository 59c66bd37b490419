// Tests for src/agg: the aggregate implementations (Count, Sum, Min, Max,
// Average, UniformSample), their conversion functions, and the tree /
// multi-path engines.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "agg/aggregates.h"
#include "core/soa_multipath.h"
#include "core/soa_tree.h"
#include "net/network.h"
#include "util/stats.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace td {
namespace {

// Fixed reading: node id as value (deterministic ground truth).
uint64_t IdReading(NodeId node, uint32_t /*epoch*/) { return node; }

struct TestNet {
  explicit TestNet(Scenario* s, double loss, uint64_t seed = 99)
      : network(&s->deployment, &s->connectivity,
                std::make_shared<GlobalLoss>(loss), seed) {}
  Network network;
};

// ---------------------------------------------------------- CountAggregate

TEST(CountAggregateTest, TreeSemantics) {
  CountAggregate agg;
  auto p = agg.EmptyTreePartial();
  agg.MergeTree(&p, agg.MakeTreePartial(1, 0));
  agg.MergeTree(&p, agg.MakeTreePartial(2, 0));
  agg.FinalizeTreePartial(&p, 7);
  EXPECT_DOUBLE_EQ(agg.EvaluateTree(p), 2.0);
  EXPECT_EQ(p.origin, 7u);
}

TEST(CountAggregateTest, SynopsisCountsDistinctNodes) {
  CountAggregate agg;
  auto s = agg.EmptySynopsis();
  for (NodeId v = 1; v <= 400; ++v) agg.Fuse(&s, agg.MakeSynopsis(v, 0));
  EXPECT_NEAR(agg.EvaluateSynopsis(s), 400.0, 120.0);
}

TEST(CountAggregateTest, SynopsisDuplicateInsensitive) {
  CountAggregate agg;
  auto s1 = agg.EmptySynopsis();
  auto s2 = agg.EmptySynopsis();
  for (NodeId v = 1; v <= 50; ++v) {
    auto syn = agg.MakeSynopsis(v, 0);
    agg.Fuse(&s1, syn);
    agg.Fuse(&s2, syn);
    agg.Fuse(&s2, syn);  // duplicate path
  }
  EXPECT_DOUBLE_EQ(agg.EvaluateSynopsis(s1), agg.EvaluateSynopsis(s2));
}

TEST(CountAggregateTest, ConversionPreservesValue) {
  CountAggregate agg;
  CountAggregate::TreePartial p{123, 5};
  auto syn = agg.Convert(p);
  EXPECT_NEAR(agg.EvaluateSynopsis(syn), 123.0, 60.0);
}

TEST(CountAggregateTest, CombinedAddsExactAndEstimated) {
  CountAggregate agg;
  CountAggregate::TreePartial p{100, 3};
  auto syn = agg.EmptySynopsis();
  for (NodeId v = 200; v < 300; ++v) agg.Fuse(&syn, agg.MakeSynopsis(v, 0));
  double combined = agg.EvaluateCombined(p, syn);
  EXPECT_NEAR(combined, 200.0, 60.0);
  EXPECT_GE(combined, 100.0);  // exact part is a hard floor
}

// ------------------------------------------------------------ SumAggregate

TEST(SumAggregateTest, TreeSumsExactly) {
  SumAggregate agg(IdReading);
  auto p = agg.EmptyTreePartial();
  for (NodeId v = 1; v <= 10; ++v) {
    agg.MergeTree(&p, agg.MakeTreePartial(v, 0));
  }
  EXPECT_DOUBLE_EQ(agg.EvaluateTree(p), 55.0);
}

TEST(SumAggregateTest, SynopsisApproximatesSum) {
  SumAggregate agg([](NodeId, uint32_t) -> uint64_t { return 50; });
  auto s = agg.EmptySynopsis();
  for (NodeId v = 1; v <= 100; ++v) agg.Fuse(&s, agg.MakeSynopsis(v, 0));
  EXPECT_NEAR(agg.EvaluateSynopsis(s), 5000.0, 1500.0);
}

TEST(SumAggregateTest, ConversionApproximatesSubtreeSum) {
  SumAggregate agg(IdReading);
  SumAggregate::TreePartial p{5000, 17};
  EXPECT_NEAR(agg.EvaluateSynopsis(agg.Convert(p)), 5000.0, 1500.0);
}

TEST(SumAggregateTest, ConversionDuplicateInsensitiveWithSg) {
  // A converted subtree fused twice along two ring paths counts once.
  SumAggregate agg(IdReading);
  SumAggregate::TreePartial p{1000, 9};
  auto converted = agg.Convert(p);
  auto once = agg.EmptySynopsis();
  agg.Fuse(&once, converted);
  auto twice = once;
  agg.Fuse(&twice, converted);
  EXPECT_DOUBLE_EQ(agg.EvaluateSynopsis(once), agg.EvaluateSynopsis(twice));
}

// ------------------------------------------------------ ExtremumAggregate

TEST(ExtremumAggregateTest, MinAndMax) {
  auto reading = [](NodeId v, uint32_t) { return static_cast<double>(v * 10); };
  ExtremumAggregate mn(ExtremumAggregate::Kind::kMin, reading);
  ExtremumAggregate mx(ExtremumAggregate::Kind::kMax, reading);
  auto pm = mn.EmptyTreePartial();
  auto px = mx.EmptyTreePartial();
  for (NodeId v = 3; v <= 7; ++v) {
    mn.MergeTree(&pm, mn.MakeTreePartial(v, 0));
    mx.MergeTree(&px, mx.MakeTreePartial(v, 0));
  }
  EXPECT_DOUBLE_EQ(mn.EvaluateTree(pm), 30.0);
  EXPECT_DOUBLE_EQ(mx.EvaluateTree(px), 70.0);
  // Conversion is the identity; combined picks the right extremum.
  EXPECT_DOUBLE_EQ(mn.EvaluateCombined(pm, 25.0), 25.0);
  EXPECT_DOUBLE_EQ(mx.EvaluateCombined(px, 25.0), 70.0);
}

TEST(ExtremumAggregateTest, FuseIsIdempotent) {
  ExtremumAggregate mn(ExtremumAggregate::Kind::kMin,
                       [](NodeId, uint32_t) { return 1.0; });
  double s = mn.EmptySynopsis();
  mn.Fuse(&s, 5.0);
  mn.Fuse(&s, 5.0);
  EXPECT_DOUBLE_EQ(s, 5.0);
}

// ------------------------------------------------------- AverageAggregate

TEST(AverageAggregateTest, TreeAverageExact) {
  AverageAggregate agg(IdReading);
  auto p = agg.EmptyTreePartial();
  for (NodeId v = 1; v <= 9; ++v) agg.MergeTree(&p, agg.MakeTreePartial(v, 0));
  EXPECT_DOUBLE_EQ(agg.EvaluateTree(p), 5.0);
}

TEST(AverageAggregateTest, SynopsisApproximatesAverage) {
  AverageAggregate agg([](NodeId, uint32_t) -> uint64_t { return 42; });
  auto s = agg.EmptySynopsis();
  for (NodeId v = 1; v <= 200; ++v) agg.Fuse(&s, agg.MakeSynopsis(v, 0));
  // Ratio of two ~12%-sd estimates: allow a generous band.
  EXPECT_NEAR(agg.EvaluateSynopsis(s), 42.0, 21.0);
}

TEST(AverageAggregateTest, CombinedBlendsparts) {
  AverageAggregate agg([](NodeId, uint32_t) -> uint64_t { return 10; });
  AverageAggregate::TreePartial p{1000, 100, 3};  // avg 10 over 100 nodes
  auto s = agg.EmptySynopsis();
  for (NodeId v = 500; v < 600; ++v) agg.Fuse(&s, agg.MakeSynopsis(v, 0));
  EXPECT_NEAR(agg.EvaluateCombined(p, s), 10.0, 3.0);
}

// -------------------------------------------------- UniformSampleAggregate

TEST(UniformSampleAggregateTest, TreeAndSynopsisAgree) {
  auto reading = [](NodeId v, uint32_t) { return static_cast<double>(v); };
  UniformSampleAggregate agg(reading, 32);
  auto p = agg.EmptyTreePartial();
  auto s = agg.EmptySynopsis();
  for (NodeId v = 1; v <= 100; ++v) {
    agg.MergeTree(&p, agg.MakeTreePartial(v, 0));
    agg.Fuse(&s, agg.MakeSynopsis(v, 0));
  }
  // Identical machinery -> identical samples.
  ASSERT_EQ(p.size(), s.size());
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p.entries()[i].id, s.entries()[i].id);
  }
  EXPECT_EQ(p.size(), 32u);
}

TEST(UniformSampleAggregateTest, QuantileFromSample) {
  auto reading = [](NodeId v, uint32_t) { return static_cast<double>(v); };
  UniformSampleAggregate agg(reading, 64);
  auto s = agg.EmptySynopsis();
  for (NodeId v = 1; v <= 1000; ++v) agg.Fuse(&s, agg.MakeSynopsis(v, 0));
  EXPECT_NEAR(s.EstimateQuantile(0.5), 500.0, 150.0);
}

// ----------------------------------------------------- SoaTreeAggregator

TEST(TreeAggregatorTest, LosslessCountIsExact) {
  Scenario sc = MakeSyntheticScenario(5, 150);
  TestNet tn(&sc, 0.0);
  CountAggregate agg;
  SoaTreeAggregator<CountAggregate> engine(&sc.tree, &tn.network, &agg);
  auto out = engine.RunEpoch(0);
  // Exact over every sensor the base station can reach.
  size_t reachable = sc.tree.num_in_tree() - 1;
  EXPECT_DOUBLE_EQ(out.result, static_cast<double>(reachable));
  EXPECT_EQ(out.true_contributing, reachable);
  EXPECT_DOUBLE_EQ(out.reported_contributing, static_cast<double>(reachable));
}

TEST(TreeAggregatorTest, LosslessSumIsExact) {
  Scenario sc = MakeSyntheticScenario(6, 150);
  TestNet tn(&sc, 0.0);
  SumAggregate agg(IdReading);
  SoaTreeAggregator<SumAggregate> engine(&sc.tree, &tn.network, &agg);
  double expected = 0;
  for (NodeId v = 1; v < sc.deployment.size(); ++v) {
    if (sc.tree.InTree(v)) expected += v;
  }
  EXPECT_DOUBLE_EQ(engine.RunEpoch(0).result, expected);
}

TEST(TreeAggregatorTest, FullLossLosesEverything) {
  Scenario sc = MakeSyntheticScenario(7, 100);
  TestNet tn(&sc, 1.0);
  CountAggregate agg;
  SoaTreeAggregator<CountAggregate> engine(&sc.tree, &tn.network, &agg);
  auto out = engine.RunEpoch(0);
  EXPECT_DOUBLE_EQ(out.result, 0.0);
  EXPECT_EQ(out.true_contributing, 0u);
}

TEST(TreeAggregatorTest, LossDropsSubtrees) {
  Scenario sc = MakeSyntheticScenario(8, 300);
  TestNet tn(&sc, 0.25);
  CountAggregate agg;
  SoaTreeAggregator<CountAggregate> engine(&sc.tree, &tn.network, &agg);
  RunningStat contrib;
  for (uint32_t e = 0; e < 30; ++e) {
    auto out = engine.RunEpoch(e);
    // Reported tree count is exact for whatever arrived.
    EXPECT_DOUBLE_EQ(out.reported_contributing,
                     static_cast<double>(out.true_contributing));
    contrib.Add(static_cast<double>(out.true_contributing));
  }
  // At 25% per-hop loss, multi-hop trees lose far more than 25% of nodes
  // (the compounding-subtree effect the paper highlights).
  EXPECT_LT(contrib.mean(), 0.6 * sc.num_sensors());
}

TEST(TreeAggregatorTest, OneTransmissionPerNodePerEpoch) {
  Scenario sc = MakeSyntheticScenario(9, 120);
  TestNet tn(&sc, 0.0);
  CountAggregate agg;
  SoaTreeAggregator<CountAggregate> engine(&sc.tree, &tn.network, &agg);
  engine.RunEpoch(0);
  EXPECT_EQ(tn.network.total_energy().transmissions,
            sc.tree.num_in_tree() - 1);
}

TEST(TreeAggregatorTest, RetransmissionsRecoverLosses) {
  Scenario sc = MakeSyntheticScenario(10, 200);
  CountAggregate agg;
  TestNet tn1(&sc, 0.3, 42);
  SoaTreeAggregator<CountAggregate> plain(&sc.tree, &tn1.network, &agg);
  TestNet tn2(&sc, 0.3, 42);
  SoaTreeAggregator<CountAggregate> retry(
      &sc.tree, &tn2.network, &agg,
      SoaTreeAggregator<CountAggregate>::Options{.extra_retransmissions = 2});
  double plain_sum = 0, retry_sum = 0;
  for (uint32_t e = 0; e < 20; ++e) {
    plain_sum += plain.RunEpoch(e).result;
    retry_sum += retry.RunEpoch(e).result;
  }
  EXPECT_GT(retry_sum, plain_sum * 1.3);
}

// ------------------------------------------------ SoaMultipathAggregator

TEST(MultipathAggregatorTest, LosslessCountNearExact) {
  Scenario sc = MakeSyntheticScenario(11, 300);
  TestNet tn(&sc, 0.0);
  CountAggregate agg;
  SoaMultipathAggregator<CountAggregate> engine(&sc.rings, &tn.network, &agg);
  auto out = engine.RunEpoch(0);
  size_t reachable = sc.rings.num_reachable() - 1;
  EXPECT_EQ(out.true_contributing, reachable);
  // Approximation error only (~12% expected for 40 bitmaps; allow 3x).
  EXPECT_NEAR(out.result, static_cast<double>(reachable), 0.36 * reachable);
}

TEST(MultipathAggregatorTest, RobustUnderHeavyLoss) {
  // Paper-scale density (600 sensors in 20x20): rings redundancy keeps the
  // vast majority of readings at 30% loss.
  Scenario sc = MakeSyntheticScenario(12, 600);
  TestNet tn(&sc, 0.3);
  CountAggregate agg;
  SoaMultipathAggregator<CountAggregate> engine(&sc.rings, &tn.network, &agg);
  RunningStat contrib;
  for (uint32_t e = 0; e < 20; ++e) {
    contrib.Add(static_cast<double>(engine.RunEpoch(e).true_contributing));
  }
  EXPECT_GT(contrib.mean(), 0.85 * (sc.rings.num_reachable() - 1));
}

TEST(MultipathAggregatorTest, OneBroadcastPerNodePerEpoch) {
  Scenario sc = MakeSyntheticScenario(13, 150);
  TestNet tn(&sc, 0.0);
  CountAggregate agg;
  SoaMultipathAggregator<CountAggregate> engine(&sc.rings, &tn.network, &agg);
  engine.RunEpoch(0);
  EXPECT_EQ(tn.network.total_energy().transmissions,
            sc.rings.num_reachable() - 1);
}

TEST(MultipathAggregatorTest, TreeBeatsMultipathAtZeroLossAndViceVersa) {
  // The Figure 2 crossover in miniature.
  Scenario sc = MakeSyntheticScenario(14, 300);
  CountAggregate agg;
  double truth = static_cast<double>(sc.num_sensors());

  auto rms_of = [&](double loss, bool tree) {
    TestNet tn(&sc, loss, 1234);
    std::vector<double> est;
    if (tree) {
      SoaTreeAggregator<CountAggregate> e(&sc.tree, &tn.network, &agg);
      for (uint32_t t = 0; t < 25; ++t) est.push_back(e.RunEpoch(t).result);
    } else {
      SoaMultipathAggregator<CountAggregate> e(&sc.rings, &tn.network, &agg);
      for (uint32_t t = 0; t < 25; ++t) est.push_back(e.RunEpoch(t).result);
    }
    return RelativeRmsError(est, truth);
  };

  EXPECT_LT(rms_of(0.0, true), rms_of(0.0, false));   // tree exact at 0 loss
  EXPECT_GT(rms_of(0.3, true), rms_of(0.3, false));   // multipath robust
}

}  // namespace
}  // namespace td
