// Tests for the error-bounded quantile subsystem (src/quant/): the
// q-digest summary, its registry aggregate kinds (kQuantileQd,
// kHistogramQd, kRangeCountQd) and the spatial group-by machinery
// (RegionGrid + GroupByAggregate + Query::GroupBy).
//
// The load-bearing contracts:
//   * the classical q-digest rank guarantee -- for the returned value q at
//     target rank r over n values: #{x <= q} >= r and
//     #{x < q} <= r - 1 + bits * floor(n / k) -- holds on adversarial,
//     uniform and zipf inputs, with per-hop compression, and survives
//     lossless merging (the bound is subadditive);
//   * Merge is bit-identical under all 24 permutations of a 4-way fold
//     (the same pin fed_test places on every other registry merge);
//   * compression caps the stored node count at 3k;
//   * with k above the population the digest is exact end-to-end: every
//     q-digest kind reproduces its ground truth bit-for-bit on a lossless
//     tree;
//   * a width-1 sliding window equals the instantaneous series, and
//     RunTrials is Threads(1) == Threads(N) deterministic, digests and
//     groups included;
//   * grouped queries: per-group estimates bit-match per-group ground
//     truth for an exact duplicate-insensitive aggregate (kMax) under ALL
//     five strategies on lossless links, grouped sums/digests merge to the
//     global answer on lossless trees, and explicit cohorts exclude
//     unlisted sensors from estimates and truths alike;
//   * the federation coordinator merges per-gateway digests losslessly and
//     order-invariantly;
//   * malformed digest parameters and malformed partitions die fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "agg/query_set.h"
#include "api/experiment.h"
#include "api/query.h"
#include "fed/coordinator.h"
#include "golden.h"
#include "quant/qdigest.h"
#include "quant/region_grid.h"
#include "util/stats.h"
#include "window/window.h"
#include "workload/scenario.h"

namespace td {
namespace {

uint64_t LightReading(NodeId node, uint32_t epoch) {
  return node * 3 + epoch % 5;
}

double RealLight(NodeId node, uint32_t epoch) {
  return static_cast<double>(LightReading(node, epoch));
}

// ------------------------------------------------------------ digest core

/// Builds a digest over `values` the way a tree path would: compress every
/// `hop` insertions (per-hop compression) and once at the end.
QDigest BuildDigest(const std::vector<uint64_t>& values, int bits, int k,
                    size_t hop) {
  QDigest d(bits, k);
  size_t since = 0;
  for (uint64_t v : values) {
    d.Add(v);
    if (++since == hop) {
      d.Compress();
      since = 0;
    }
  }
  d.Compress();
  return d;
}

/// Asserts the classical rank guarantee for a handful of quantiles.
void CheckEpsBound(const QDigest& d, const std::vector<uint64_t>& values,
                   const std::string& label) {
  const uint64_t n = values.size();
  ASSERT_EQ(d.total(), n) << label;
  const uint64_t slack =
      static_cast<uint64_t>(d.bits()) * (n / static_cast<uint64_t>(d.k()));
  for (double p : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    const double q = d.Quantile(p);
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(n))));
    uint64_t cnt_le = 0, cnt_lt = 0;
    for (uint64_t v : values) {
      if (static_cast<double>(v) <= q) ++cnt_le;
      if (static_cast<double>(v) < q) ++cnt_lt;
    }
    EXPECT_GE(cnt_le, rank) << label << " p=" << p;
    EXPECT_LE(cnt_lt, rank - 1 + slack) << label << " p=" << p;
  }
}

std::vector<uint64_t> UniformValues(size_t n, int bits) {
  const uint64_t domain = 1ull << bits;
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back((i * 2654435761ull + 12345) % domain);
  }
  return out;
}

std::vector<uint64_t> ZipfValues(size_t n, int bits) {
  // Heavily skewed: value n/i repeats roughly i times across the sweep.
  const uint64_t domain = 1ull << bits;
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 1; i <= n; ++i) {
    out.push_back((static_cast<uint64_t>(n) / i) % domain);
  }
  return out;
}

std::vector<uint64_t> AdversarialValues(size_t n, int bits) {
  // Half the mass on one value, the rest exponentially spaced -- deep
  // sibling chains, the compression fold's worst case.
  std::vector<uint64_t> out;
  out.reserve(n);
  const uint64_t top = (1ull << bits) - 1;
  for (size_t i = 0; i < n / 2; ++i) out.push_back(0);
  for (size_t i = n / 2; i < n; ++i) {
    out.push_back(top >> (i % static_cast<size_t>(bits)));
  }
  return out;
}

TEST(QDigestTest, ExactWhileTotalBelowK) {
  QDigest d(10, 64);
  std::vector<uint64_t> values = {5, 9, 100, 100, 3, 700, 41};
  for (uint64_t v : values) d.Add(v);
  d.Compress();  // n < k: must be a no-op
  EXPECT_EQ(d.node_count(), 6u);  // one leaf per distinct value
  std::vector<double> as_double(values.begin(), values.end());
  for (double p : {0.1, 0.3, 0.5, 0.8, 0.99}) {
    EXPECT_DOUBLE_EQ(d.Quantile(p), Quantile(as_double, p)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(d.RangeCount(5, 100), 5.0);
}

TEST(QDigestTest, EpsBoundHoldsOnHostileInputs) {
  constexpr int kBits = 12;
  constexpr size_t kN = 2000;
  for (int k : {8, 32, 128}) {
    for (size_t hop : {size_t{1000000}, size_t{25}}) {
      const std::string tag =
          " k=" + std::to_string(k) + " hop=" + std::to_string(hop);
      auto uniform = UniformValues(kN, kBits);
      CheckEpsBound(BuildDigest(uniform, kBits, k, hop), uniform,
                    "uniform" + tag);
      auto zipf = ZipfValues(kN, kBits);
      CheckEpsBound(BuildDigest(zipf, kBits, k, hop), zipf, "zipf" + tag);
      auto adversarial = AdversarialValues(kN, kBits);
      CheckEpsBound(BuildDigest(adversarial, kBits, k, hop), adversarial,
                    "adversarial" + tag);
    }
  }
}

TEST(QDigestTest, CompressionCapsNodeCountAtThreeK) {
  constexpr int kBits = 12;
  for (int k : {8, 32, 128}) {
    for (auto maker : {UniformValues, ZipfValues, AdversarialValues}) {
      QDigest d = BuildDigest(maker(4000, kBits), kBits, k, 50);
      EXPECT_LE(d.node_count(), static_cast<size_t>(3 * k)) << "k=" << k;
    }
  }
}

TEST(QDigestTest, MergeIsBitIdenticalUnderAllPermutations) {
  constexpr int kBits = 12;
  constexpr int kK = 16;
  // Four per-hop-compressed digests over disjoint value streams.
  std::vector<QDigest> parts;
  std::vector<uint64_t> pooled;
  for (int part = 0; part < 4; ++part) {
    std::vector<uint64_t> values;
    for (size_t i = 0; i < 500; ++i) {
      values.push_back((i * 7919 + part * 1000003) % (1ull << kBits));
    }
    pooled.insert(pooled.end(), values.begin(), values.end());
    parts.push_back(BuildDigest(values, kBits, kK, 100));
  }

  std::vector<size_t> perm = {0, 1, 2, 3};
  bool first = true;
  QDigest ref(kBits, kK);
  do {
    QDigest merged(kBits, kK);
    for (size_t i : perm) merged.Merge(parts[i]);
    merged.Compress();
    if (first) {
      ref = merged;
      first = false;
      // The eps bound survives the lossless merge of compressed digests.
      CheckEpsBound(merged, pooled, "merged");
    }
    EXPECT_EQ(merged, ref);
    EXPECT_EQ(merged.EncodedBytes(), ref.EncodedBytes());
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(QDigestTest, RangeCountAndHistogramExactWhileUncompressed) {
  QDigest d(8, 1024);
  // 10 values in [0,63], 20 in [64,127], 5 in [192,255].
  for (uint64_t i = 0; i < 10; ++i) d.Add(i * 6);
  for (uint64_t i = 0; i < 20; ++i) d.Add(64 + i * 3);
  for (uint64_t i = 0; i < 5; ++i) d.Add(192 + i * 12);
  EXPECT_DOUBLE_EQ(d.RangeCount(0, 63), 10.0);
  EXPECT_DOUBLE_EQ(d.RangeCount(64, 127), 20.0);
  EXPECT_DOUBLE_EQ(d.RangeCount(128, 191), 0.0);
  // Modal of 4 buckets (width 64) is bucket 1 -> midpoint 64 + 32.
  EXPECT_DOUBLE_EQ(d.HistogramMode(4), 96.0);
}

TEST(QDigestTest, EncodedBytesStayBoundedAtScale) {
  // The headline trade: a compressed digest's wire size is O(k), however
  // many values it summarizes (the sample synopsis grows to capacity
  // entries of 16 bytes each; bench_accuracy measures the comparison).
  QDigest d = BuildDigest(UniformValues(5000, 16), 16, 32, 100);
  EXPECT_LT(d.EncodedBytes(), size_t{1024});
}

// ------------------------------------------------------------- fail fast

TEST(QuantDeathTest, BadDomainBitsDie) {
  EXPECT_DEATH(QDigest(0, 8), "value-domain bits");
  EXPECT_DEATH(QDigest(33, 8), "value-domain bits");
}

TEST(QuantDeathTest, BadCompressionKDies) {
  EXPECT_DEATH(QDigest(16, 0), "compression parameter k");
}

TEST(QuantDeathTest, OutOfDomainReadingDies) {
  QDigest d(4, 8);
  EXPECT_DEATH(d.Add(16), "outside the configured value domain");
}

TEST(QuantDeathTest, QuantileEndpointDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(80, 60)
                   .AddQuery({.kind = AggregateKind::kQuantileQd,
                              .quantile_p = 1.0})
                   .Reading(LightReading)
                   .Epochs(1)
                   .Build(),
               "strictly in \\(0, 1\\)");
}

TEST(QuantDeathTest, NonPowerOfTwoBucketsDie) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(81, 60)
                   .AddQuery({.kind = AggregateKind::kHistogramQd,
                              .histogram_buckets = 6})
                   .Reading(LightReading)
                   .Epochs(1)
                   .Build(),
               "power of two");
}

TEST(QuantDeathTest, EmptyCohortPartitionDies) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(82, 60)
                   .AddQuery(Query{.kind = AggregateKind::kSum}.GroupBy(
                       RegionSpec::Cohorts({})))
                   .Reading(LightReading)
                   .Epochs(1)
                   .Build(),
               "at least one cohort");
}

TEST(QuantDeathTest, OverlappingCohortsDie) {
  EXPECT_DEATH(Experiment::Builder()
                   .Synthetic(83, 60)
                   .AddQuery(Query{.kind = AggregateKind::kSum}.GroupBy(
                       RegionSpec::Cohorts({{1, 2, 3}, {3, 4}})))
                   .Reading(LightReading)
                   .Epochs(1)
                   .Build(),
               "cohorts overlap");
}

// ---------------------------------------------- registry kinds end-to-end

class QdStrategyTest : public ::testing::TestWithParam<Strategy> {};
INSTANTIATE_TEST_SUITE_P(AllStrategies, QdStrategyTest,
                         ::testing::ValuesIn(kAllStrategies),
                         [](const auto& info) {
                           std::string n = StrategyName(info.param);
                           if (n == "TAG+retx") return std::string("TAGretx");
                           if (n == "TD-Coarse") return std::string("TDCoarse");
                           return n;
                         });

/// With k above the population no fold ever fires, so the digest stays
/// exact: every q-digest kind must reproduce its ground truth bit-for-bit
/// on a lossless tree.
TEST(QdKindsTest, ExactOnLosslessTreeWhenKExceedsPopulation) {
  std::vector<Query> queries = {
      Query{.kind = AggregateKind::kQuantileQd,
            .quantile_p = 0.9,
            .digest_k = 512},
      Query{.kind = AggregateKind::kRangeCountQd,
            .digest_k = 512,
            .range_lo = 50,
            .range_hi = 200},
      Query{.kind = AggregateKind::kHistogramQd,
            .digest_k = 512,
            .histogram_buckets = 16},
  };
  Experiment::Builder b = Experiment::Builder()
                              .Synthetic(84, 100)
                              .Reading(LightReading)
                              .Strategy(Strategy::kTag)
                              .Epochs(5);
  for (const Query& q : queries) b.AddQuery(q);
  RunResult r = b.Run();
  ASSERT_EQ(r.queries.size(), 3u);
  for (const QuerySeries& series : r.queries) {
    SCOPED_TRACE(series.name);
    ASSERT_EQ(series.truths.size(), 5u);
    EXPECT_EQ(series.estimates, series.truths);
    EXPECT_EQ(series.rms, 0.0);
  }
  EXPECT_EQ(r.queries[0].name, "QuantileQd");
  EXPECT_EQ(r.queries[1].name, "RangeCountQd");
  EXPECT_EQ(r.queries[2].name, "HistogramQd");
}

/// The digest runs under every strategy. Tree folds are duplicate-free so
/// the rank guarantee applies; multi-path duplication (SD, TD deltas)
/// inflates counts roughly uniformly, so the quantile stays in a sane band.
TEST_P(QdStrategyTest, QuantileQdRunsEverywhere) {
  RunResult r = Experiment::Builder()
                    .Synthetic(85, 150)
                    .AddQuery({.kind = AggregateKind::kQuantileQd})
                    .Reading(LightReading)
                    .Strategy(GetParam())
                    .GlobalLossRate(0.2)
                    .AdaptPeriod(5)
                    .Epochs(10)
                    .Run();
  ASSERT_EQ(r.truths.size(), 10u);
  for (const EpochResult& e : r.epochs) {
    EXPECT_GE(e.value, 0.0);
    EXPECT_LT(e.value, static_cast<double>(1ull << 16));
  }
  EXPECT_LT(r.rms, 1.0);
}

// The q-digest under TAG at p = 0.75 reproduces its golden recording
// bit for bit: estimates, bytes and every other engine field.
TEST(QdKindsTest, QuantileQdMatchesGolden) {
  golden::ExpectRunMatchesGolden(
      "quant", "TagQuantileQdP75",
      Experiment::Builder()
          .Synthetic(86, 120)
          .AddQuery({.kind = AggregateKind::kQuantileQd, .quantile_p = 0.75})
          .Reading(LightReading)
          .Strategy(Strategy::kTag)
          .GlobalLossRate(0.15)
          .NetworkSeed(7)
          .Epochs(8));
}

TEST(QdKindsTest, WidthOneWindowMatchesInstantaneous) {
  RunResult r = Experiment::Builder()
                    .Synthetic(87, 100)
                    .AddQuery(Query{.kind = AggregateKind::kQuantileQd}
                                  .Window(WindowSpec::Sliding(1)))
                    .AddQuery({.kind = AggregateKind::kSum})
                    .Reading(LightReading)
                    .Strategy(Strategy::kTributaryDelta)
                    .GlobalLossRate(0.2)
                    .Epochs(8)
                    .Run();
  ASSERT_EQ(r.queries.size(), 2u);
  EXPECT_EQ(r.queries[0].windowed_estimates, r.queries[0].estimates);
}

TEST(QdKindsTest, RunTrialsDeterministicForAnyThreadCount) {
  auto sweep = [&](unsigned threads) {
    return Experiment::Builder()
        .Synthetic(88, 100)
        .AddQuery({.kind = AggregateKind::kQuantileQd})
        .AddQuery(Query{.kind = AggregateKind::kSum}.GroupBy(
            RegionSpec::Grid(2, 2)))
        .Reading(LightReading)
        .Strategy(Strategy::kTributaryDelta)
        .GlobalLossRate(0.25)
        .NetworkSeed(17)
        .AdaptPeriod(5)
        .Epochs(6)
        .Trials(4)
        .Threads(threads)
        .RunTrials();
  };
  SweepResult serial = sweep(1);
  SweepResult threaded = sweep(8);
  ASSERT_EQ(serial.trials.size(), 4u);
  for (size_t t = 0; t < serial.trials.size(); ++t) {
    SCOPED_TRACE("trial " + std::to_string(t));
    const RunResult& a = serial.trials[t];
    const RunResult& b = threaded.trials[t];
    ASSERT_EQ(a.queries.size(), 2u);
    for (size_t i = 0; i < a.queries.size(); ++i) {
      EXPECT_EQ(a.queries[i].estimates, b.queries[i].estimates);
      EXPECT_EQ(a.queries[i].group_estimates, b.queries[i].group_estimates);
    }
    EXPECT_EQ(a.bytes_per_epoch, b.bytes_per_epoch);
  }
}

// -------------------------------------------------------------- group-by

TEST(RegionGridTest, PartitionsCoverSensorsAndExcludeBase) {
  Scenario sc = MakeSyntheticScenario(89, 120);
  std::vector<NodeId> sensors;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (sc.tree.InTree(v) && v != sc.base()) sensors.push_back(v);
  }
  for (const RegionSpec& spec :
       {RegionSpec::Grid(3, 2), RegionSpec::RingBands(2)}) {
    RegionGrid grid(spec, sc.deployment, sc.rings, sensors);
    ASSERT_GT(grid.num_groups(), 0u);
    EXPECT_EQ(grid.GroupOf(sc.base()), -1);
    for (NodeId v : sensors) {
      const int g = grid.GroupOf(v);
      ASSERT_GE(g, 0);
      ASSERT_LT(g, static_cast<int>(grid.num_groups()));
      EXPECT_FALSE(grid.GroupName(static_cast<size_t>(g)).empty());
    }
  }
}

/// The acceptance pin: per-group estimates bit-match per-group ground
/// truth under ALL five strategies. kMax is exact and its synopsis is
/// duplicate-insensitive, so on lossless links nothing may deviate.
TEST_P(QdStrategyTest, GroupedMaxBitMatchesPerGroupTruth) {
  RunResult r = Experiment::Builder()
                    .Synthetic(90, 120)
                    .AddQuery(Query{.kind = AggregateKind::kMax}.GroupBy(
                        RegionSpec::Grid(2, 2)))
                    .Reading(LightReading)
                    .Strategy(GetParam())
                    .AdaptPeriod(5)
                    .Epochs(6)
                    .Run();
  ASSERT_EQ(r.queries.size(), 1u);
  const QuerySeries& series = r.queries[0];
  ASSERT_EQ(series.group_names.size(), 4u);
  ASSERT_EQ(series.group_estimates.size(), 4u);
  ASSERT_EQ(series.group_truths.size(), 4u);
  for (size_t g = 0; g < 4; ++g) {
    SCOPED_TRACE(series.group_names[g]);
    EXPECT_EQ(series.group_estimates[g], series.group_truths[g]);
    EXPECT_EQ(series.group_rms[g], 0.0);
  }
  // The global scalar is the merge of the group slots: also exact here.
  EXPECT_EQ(series.estimates, series.truths);
}

TEST(GroupByTest, GroupedSumsMergeToGlobalOnLosslessTree) {
  RunResult r = Experiment::Builder()
                    .Synthetic(91, 120)
                    .AddQuery(Query{.kind = AggregateKind::kSum}.GroupBy(
                        RegionSpec::RingBands(2)))
                    .Reading(LightReading)
                    .Strategy(Strategy::kTag)
                    .Epochs(5)
                    .Run();
  ASSERT_EQ(r.queries.size(), 1u);
  const QuerySeries& series = r.queries[0];
  const size_t ng = series.group_names.size();
  ASSERT_GT(ng, 0u);
  for (size_t e = 0; e < r.epochs.size(); ++e) {
    double groups_total = 0.0;
    for (size_t g = 0; g < ng; ++g) {
      EXPECT_EQ(series.group_estimates[g][e], series.group_truths[g][e]);
      groups_total += series.group_estimates[g][e];
    }
    // Integer-valued sums: the per-group partition adds up exactly.
    EXPECT_DOUBLE_EQ(groups_total, series.estimates[e]);
    EXPECT_EQ(series.estimates[e], series.truths[e]);
  }
}

TEST(GroupByTest, GroupedDigestExactPerGroupOnLosslessTree) {
  RunResult r = Experiment::Builder()
                    .Synthetic(92, 100)
                    .AddQuery(Query{.kind = AggregateKind::kQuantileQd,
                                    .quantile_p = 0.95,
                                    .digest_k = 512}
                                  .GroupBy(RegionSpec::Grid(2, 2)))
                    .Reading(LightReading)
                    .Strategy(Strategy::kTag)
                    .Epochs(4)
                    .Run();
  ASSERT_EQ(r.queries.size(), 1u);
  const QuerySeries& series = r.queries[0];
  ASSERT_EQ(series.group_estimates.size(), 4u);
  for (size_t g = 0; g < 4; ++g) {
    SCOPED_TRACE(series.group_names[g]);
    EXPECT_EQ(series.group_estimates[g], series.group_truths[g]);
  }
  // Per-group digests merge losslessly back into the global digest, so
  // the global answer is the exact global quantile too (k > population).
  EXPECT_EQ(series.estimates, series.truths);
}

TEST(GroupByTest, CohortsExcludeUnlistedSensors) {
  std::vector<std::vector<NodeId>> cohorts = {{1, 2, 3, 4, 5},
                                              {10, 11, 12, 13}};
  RunResult r = Experiment::Builder()
                    .Synthetic(93, 100)
                    .AddQuery(Query{.kind = AggregateKind::kCount}.GroupBy(
                        RegionSpec::Cohorts(cohorts)))
                    .Reading(LightReading)
                    .Strategy(Strategy::kTag)
                    .Epochs(3)
                    .Run();
  const QuerySeries& series = r.queries[0];
  ASSERT_EQ(series.group_names.size(), 2u);
  EXPECT_EQ(series.group_names[0], "cohort0");
  for (size_t e = 0; e < r.epochs.size(); ++e) {
    // Estimates and truths range over the cohort sensors only: the global
    // count is the two cohort counts, not the whole field.
    EXPECT_EQ(series.group_estimates[0][e], series.group_truths[0][e]);
    EXPECT_EQ(series.group_estimates[1][e], series.group_truths[1][e]);
    EXPECT_DOUBLE_EQ(series.estimates[e], series.group_estimates[0][e] +
                                              series.group_estimates[1][e]);
    EXPECT_LE(series.truths[e],
              static_cast<double>(cohorts[0].size() + cohorts[1].size()));
  }
}

// ------------------------------------------------------------ federation

/// The coordinator folds per-gateway digests with the digest's lossless
/// Merge: any permutation of gateway roots evaluates bit-identically.
TEST(QuantFedTest, CoordinatorDigestMergeIsOrderInvariant) {
  Query q = api_internal::ResolveQuery(
      Query{.kind = AggregateKind::kQuantileQd,
            .quantile_p = 0.5,
            .digest_k = 16},
      LightReading, RealLight, 0);
  constexpr size_t kGateways = 4;
  constexpr uint32_t kEpoch = 3;

  std::vector<std::unique_ptr<QueryOps>> ops;
  ops.push_back(api_internal::MakeQueryOps(q));
  QuerySetAggregate qs(std::move(ops));
  std::vector<QuerySetTreePartial> partials;
  for (size_t g = 0; g < kGateways; ++g) {
    QuerySetTreePartial p = qs.EmptyTreePartial();
    for (NodeId v = 1; v <= 120; ++v) {
      if (v % kGateways != g) continue;
      qs.MergeTree(&p, qs.MakeTreePartial(v, kEpoch));
    }
    qs.FinalizeTreePartial(&p, 0);
    partials.push_back(std::move(p));
  }

  std::vector<std::unique_ptr<QueryOps>> coord_ops;
  coord_ops.push_back(api_internal::MakeQueryOps(q));
  Coordinator coord(std::move(coord_ops));

  std::vector<size_t> perm(kGateways);
  std::iota(perm.begin(), perm.end(), size_t{0});
  bool first = true;
  double ref = 0.0;
  do {
    FedState st = coord.MakeState();
    for (size_t g : perm) coord.Merge(&st, {&partials[g], nullptr});
    const double val = coord.Evaluate(st, 0);
    if (first) {
      ref = val;
      first = false;
      // The merged digest answers within the rank guarantee of the exact
      // pooled median (readings v*3 + 3 over v = 1..120).
      std::vector<double> pooled;
      for (NodeId v = 1; v <= 120; ++v) {
        pooled.push_back(RealLight(v, kEpoch));
      }
      const double exact = Quantile(pooled, 0.5);
      EXPECT_NEAR(val, exact, 0.35 * exact);
    }
    EXPECT_EQ(val, ref);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

}  // namespace
}  // namespace td
