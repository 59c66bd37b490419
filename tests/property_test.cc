// Property-based test sweeps: the algebraic laws the whole system rests on,
// exercised across parameter grids (TEST_P) rather than single examples.
//
//  * sketch algebra: union is commutative/associative/idempotent for every
//    geometry; estimates are invariant under insertion order and replay;
//  * codec laws: RLE roundtrips for adversarial bitmap banks;
//  * topology laws: rings/trees invariants across densities and seeds;
//  * region algebra: edge correctness is preserved by arbitrary interleaved
//    switch sequences; expansion monotonically grows coverage;
//  * Algorithm 1 / Algorithm 2 invariants across epsilon and skew grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "freq/multipath_freq.h"
#include "freq/precision_gradient.h"
#include "freq/summary.h"
#include "sketch/fm_sketch.h"
#include "sketch/rle.h"
#include "sketch/sample_synopsis.h"
#include "td/region_state.h"
#include "topology/domination.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace td {
namespace {

// ------------------------------------------------- sketch algebra sweep --

class FmGeometryTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Geometries, FmGeometryTest,
                         ::testing::Values(4, 8, 16, 40, 64));

TEST_P(FmGeometryTest, UnionLawsHoldForEveryGeometry) {
  const int bitmaps = GetParam();
  Rng rng(static_cast<uint64_t>(bitmaps) * 17);
  FmSketch a(bitmaps, 5), b(bitmaps, 5), c(bitmaps, 5);
  for (int i = 0; i < 300; ++i) {
    a.AddKey(rng.Next() % 500);
    b.AddKey(rng.Next() % 500);
    c.AddValue(rng.Next() % 100, 1 + rng.NextBounded(50));
  }
  // Commutativity.
  FmSketch ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  EXPECT_TRUE(ab == ba);
  // Associativity.
  FmSketch left = a;
  left.Merge(b);
  left.Merge(c);
  FmSketch bc = b;
  bc.Merge(c);
  FmSketch right = a;
  right.Merge(bc);
  EXPECT_TRUE(left == right);
  // Idempotence.
  FmSketch dup = left;
  dup.Merge(left);
  EXPECT_TRUE(dup == left);
}

TEST_P(FmGeometryTest, InsertionOrderIrrelevant) {
  const int bitmaps = GetParam();
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 200; ++k) keys.push_back(k * 7919);
  FmSketch forward(bitmaps, 9), backward(bitmaps, 9), shuffled(bitmaps, 9);
  for (uint64_t k : keys) forward.AddKey(k);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) backward.AddKey(*it);
  Rng rng(3);
  rng.Shuffle(&keys);
  for (uint64_t k : keys) shuffled.AddKey(k);
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward == shuffled);
}

TEST_P(FmGeometryTest, BankCodecLossless) {
  const int bitmaps = GetParam();
  FmSketch s(bitmaps, 2);
  Rng rng(static_cast<uint64_t>(bitmaps));
  for (int i = 0; i < 500; ++i) s.AddValue(rng.Next(), 1 + rng.NextBounded(9));
  auto decoded = DecodeBankRle(EncodeBankRle(s.bitmaps()),
                               static_cast<size_t>(bitmaps));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), s.bitmaps());
}

class SampleCapacityTest : public ::testing::TestWithParam<size_t> {};
INSTANTIATE_TEST_SUITE_P(Capacities, SampleCapacityTest,
                         ::testing::Values(1, 4, 32, 256));

TEST_P(SampleCapacityTest, MergeOrderIrrelevant) {
  const size_t cap = GetParam();
  SampleSynopsis a(cap, 7), b(cap, 7);
  std::vector<SampleSynopsis> parts;
  for (int part = 0; part < 5; ++part) {
    SampleSynopsis s(cap, 7);
    for (uint64_t id = 0; id < 50; ++id) {
      s.Add(static_cast<uint64_t>(part) * 100 + id, 1.0 * id);
    }
    parts.push_back(s);
  }
  for (const auto& p : parts) a.Merge(p);
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) b.Merge(*it);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].id, b.entries()[i].id);
  }
}

// ------------------------------------------------- topology law sweeps --

class TopologySweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};
INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, TopologySweepTest,
    ::testing::Combine(::testing::Values(1u, 7u, 23u),
                       ::testing::Values(100u, 300u, 600u)));

TEST_P(TopologySweepTest, RingsAndTreeInvariants) {
  auto [seed, sensors] = GetParam();
  Scenario sc = MakeSyntheticScenario(seed, sensors);
  std::vector<int> heights = sc.tree.ComputeHeights();
  std::vector<int> depths = sc.tree.ComputeDepths();
  std::vector<size_t> sizes = sc.tree.ComputeSubtreeSizes();

  size_t in_tree = 0;
  for (NodeId v = 0; v < sc.deployment.size(); ++v) {
    if (!sc.tree.InTree(v)) {
      EXPECT_EQ(sc.rings.level(v), Rings::kUnreachable);
      continue;
    }
    ++in_tree;
    // Depth equals ring level (strict level-(i-1) parents).
    EXPECT_EQ(depths[v], sc.rings.level(v));
    if (v != sc.base()) {
      NodeId p = sc.tree.parent(v);
      // Heights strictly decrease upward; subtree sizes strictly increase.
      EXPECT_LT(heights[v], heights[p]);
      EXPECT_LT(sizes[v], sizes[p]);
    }
  }
  EXPECT_EQ(in_tree, sc.rings.num_reachable());
  // Sum over the base's subtree equals all in-tree nodes.
  EXPECT_EQ(sizes[sc.base()], in_tree);
  // Height histogram sums to the sensor count.
  HeightHistogram hist = ComputeHeightHistogram(sc.tree);
  EXPECT_EQ(hist.total, in_tree - 1);
}

TEST_P(TopologySweepTest, DominationFactorIsMaximal) {
  auto [seed, sensors] = GetParam();
  Scenario sc = MakeSyntheticScenario(seed, sensors);
  HeightHistogram hist = ComputeHeightHistogram(sc.tree);
  double d = DominationFactor(hist);
  EXPECT_TRUE(IsDDominating(hist, d));
  EXPECT_FALSE(IsDDominating(hist, d + 0.05));
  EXPECT_GE(d, 1.0);
}

// --------------------------------------------------- region state sweep --

class RegionSweepTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RegionSweepTest,
                         ::testing::Values(2u, 5u, 11u, 17u));

TEST_P(RegionSweepTest, RandomSwitchSequencesPreserveEdgeCorrectness) {
  Scenario sc = MakeSyntheticScenario(GetParam(), 200);
  RegionState region(&sc.tree, &sc.rings);
  Rng rng(GetParam() * 101);
  size_t expected_delta = 1;
  for (int step = 0; step < 200; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.4) {
      auto ts = region.SwitchableTs();
      if (!ts.empty()) {
        region.SwitchToM(ts[rng.NextBounded(ts.size())]);
        ++expected_delta;
      }
    } else if (roll < 0.8) {
      auto ms = region.SwitchableMs();
      if (!ms.empty()) {
        region.SwitchToT(ms[rng.NextBounded(ms.size())]);
        --expected_delta;
      }
    } else if (roll < 0.9) {
      expected_delta += region.ExpandAll();
    } else {
      expected_delta -= region.ShrinkAll();
    }
    ASSERT_TRUE(region.CheckInvariants()) << "step " << step;
    ASSERT_EQ(region.delta_size(), expected_delta) << "step " << step;
    // The delta is connected through tree parents up to the base: every M
    // vertex's ancestors up to the base are M (path correctness).
    for (NodeId v : region.FrontierMs()) {
      for (NodeId a = v; a != sc.base(); a = sc.tree.parent(a)) {
        ASSERT_TRUE(region.IsM(a));
      }
    }
  }
}

TEST_P(RegionSweepTest, SaturationFixpoints) {
  Scenario sc = MakeSyntheticScenario(GetParam(), 150);
  RegionState region(&sc.tree, &sc.rings);
  while (region.ExpandAll() > 0) {
  }
  // All-M: no switchable T remains, every in-tree node is M.
  EXPECT_TRUE(region.SwitchableTs().empty());
  EXPECT_EQ(region.delta_size(), sc.tree.num_in_tree());
  while (region.ShrinkAll() > 0) {
  }
  // All-T (plus base): no switchable M remains.
  EXPECT_TRUE(region.SwitchableMs().empty());
  EXPECT_EQ(region.delta_size(), 1u);
}

// ------------------------------------------ Algorithm 1 epsilon sweep ----

class SummaryEpsTest : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Eps, SummaryEpsTest,
                         ::testing::Values(0.005, 0.02, 0.1));

TEST_P(SummaryEpsTest, ChainOfPrunesStaysDeficient) {
  // A 6-level chain of merges and prunes (worst case for error
  // accumulation): estimates must remain eps-deficient at every step.
  const double eps = GetParam();
  MinTotalLoadGradient gradient(eps, 2.0);
  Rng rng(99);
  ItemCounts truth;
  Summary acc;  // running merged summary
  for (int level = 1; level <= 6; ++level) {
    ItemCounts local;
    for (int i = 0; i < 100; ++i) {
      Item u = rng.NextBounded(50);
      uint64_t c = 1 + rng.NextBounded(30);
      local[u] += c;
      truth[u] += c;
    }
    Summary s = LocalSummary(local);
    MergeSummaries(&s, acc);
    PruneSummary(&s, gradient, level);
    acc = s;
    double n = static_cast<double>(acc.n);
    for (const auto& [u, est] : acc.items) {
      ASSERT_LE(est, static_cast<double>(truth[u]) + 1e-6);
      ASSERT_GE(est, static_cast<double>(truth[u]) - eps * n - 1e-6);
    }
    for (const auto& [u, c] : truth) {
      if (acc.items.count(u) == 0) {
        ASSERT_LE(static_cast<double>(c), eps * n + 1e-6);
      }
    }
  }
}

// ------------------------------------------ Algorithm 2 parameter sweep --

class MpFreqSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};
INSTANTIATE_TEST_SUITE_P(EpsEta, MpFreqSweepTest,
                         ::testing::Combine(::testing::Values(0.02, 0.1),
                                            ::testing::Values(1.5, 3.0)));

TEST_P(MpFreqSweepTest, FusionOrderAndReplayIrrelevant) {
  auto [eps, eta] = GetParam();
  MultipathFreqParams params;
  params.eps = eps;
  params.eta = eta;
  params.n_upper = 1 << 16;
  params.item_bitmaps = 8;
  params.seed = 4;
  MultipathFreq mp(params);

  std::vector<FreqSynopsisBank> banks;
  Rng rng(8);
  for (NodeId v = 1; v <= 20; ++v) {
    ItemCounts local;
    for (int i = 0; i < 10; ++i) {
      local[rng.NextBounded(30)] += 1 + rng.NextBounded(100);
    }
    banks.push_back(mp.Generate(v, local));
  }
  // Forward order, reverse order, and with duplicate deliveries: the final
  // evaluation must agree (class layouts can differ; estimates cannot,
  // because SE unions the same underlying per-item sketch bits).
  auto fwd = mp.EmptyBank();
  for (const auto& b : banks) mp.Fuse(&fwd, b);
  auto rev = mp.EmptyBank();
  for (auto it = banks.rbegin(); it != banks.rend(); ++it) mp.Fuse(&rev, *it);
  auto dup = mp.EmptyBank();
  for (const auto& b : banks) {
    mp.Fuse(&dup, b);
    mp.Fuse(&dup, b);
  }
  auto e_fwd = mp.Evaluate(fwd);
  auto e_rev = mp.Evaluate(rev);
  auto e_dup = mp.Evaluate(dup);
  EXPECT_DOUBLE_EQ(e_fwd.total, e_rev.total);
  EXPECT_DOUBLE_EQ(e_fwd.total, e_dup.total);
  // Surviving item sets may differ slightly at prune boundaries across
  // orders (the threshold fires at different fusion times), but any item
  // present in two evaluations must agree exactly on its estimate.
  for (const auto& [u, est] : e_fwd.counts) {
    auto it = e_dup.counts.find(u);
    if (it != e_dup.counts.end()) EXPECT_DOUBLE_EQ(est, it->second);
  }
}

TEST_P(MpFreqSweepTest, SynopsisSizeBounded) {
  auto [eps, eta] = GetParam();
  MultipathFreqParams params;
  params.eps = eps;
  params.eta = eta;
  params.n_upper = 1 << 20;
  params.item_bitmaps = 8;
  params.seed = 6;
  MultipathFreq mp(params);
  // 300 nodes each with distinct light items plus one shared heavy item:
  // after full fusion, per-class counters stay bounded by the rising
  // threshold (no synopsis "grows too large", Section 6.2).
  auto bank = mp.EmptyBank();
  for (NodeId v = 1; v <= 300; ++v) {
    mp.Fuse(&bank, mp.Generate(v, ItemCounts{{1, 200}, {100 + v, 1}}));
  }
  EXPECT_LE(bank.by_class.size(),
            static_cast<size_t>(params.LogN() + 1));
  for (const auto& [cls, syn] : bank.by_class) {
    // eta * logN / eps is the asymptotic counter budget per synopsis;
    // allow a constant factor for sketch noise.
    double budget =
        4.0 * eta * static_cast<double>(params.LogN()) / eps;
    EXPECT_LE(static_cast<double>(syn.counters.size()), budget)
        << "class " << cls;
  }
}

// ------------------------------------------------ gradient grid checks --

class GradientGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};
INSTANTIATE_TEST_SUITE_P(EpsD, GradientGridTest,
                         ::testing::Combine(::testing::Values(0.001, 0.01,
                                                              0.1),
                                            ::testing::Values(1.5, 2.25,
                                                              4.0, 9.0)));

TEST_P(GradientGridTest, MinTotalLawsAcrossGrid) {
  auto [eps, d] = GetParam();
  MinTotalLoadGradient g(eps, d);
  double t = 1.0 / std::sqrt(d);
  for (int i = 0; i <= 30; ++i) {
    // Closed form eps * (1 - t^i).
    EXPECT_NEAR(g.Epsilon(i), eps * (1.0 - std::pow(t, i)), 1e-12);
  }
  // Geometric decay of increments with ratio t (relative tolerance: the
  // increments themselves shrink geometrically, so cancellation grows).
  for (int i = 2; i <= 20; ++i) {
    EXPECT_NEAR(g.Delta(i) / g.Delta(i - 1), t, 1e-6);
  }
  // The Lemma 3 series actually sums below the bound: total counters over
  // an idealized d-dominating tree of m nodes (truncate once the level
  // holds less than a thousandth of a node).
  const double m = 1e4;
  double total = 0.0;
  double nodes_at = m * (d - 1) / d;
  for (int i = 1; i <= 60 && nodes_at > 1e-3; ++i) {
    total += nodes_at / g.Delta(i);
    nodes_at /= d;
  }
  EXPECT_LE(total,
            MinTotalLoadGradient::TotalCommunicationBound(eps, d, 10000) *
                (1.0 + 1e-9));
}

}  // namespace
}  // namespace td
