// Unit tests for src/topology: rings construction, trees, the Section 6.1.3
// tree builder, and d-domination analysis (including the paper's Table 2
// worked example and Lemma 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "net/connectivity.h"
#include "net/deployment.h"
#include "topology/domination.h"
#include "topology/rings.h"
#include "topology/tree.h"
#include "topology/tree_builder.h"
#include "util/rng.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace td {
namespace {

Deployment LineDeployment(size_t n, double spacing = 1.0) {
  std::vector<Point> p;
  for (size_t i = 0; i < n; ++i) {
    p.push_back(Point{spacing * static_cast<double>(i), 0.0});
  }
  return Deployment(std::move(p));
}

// ----------------------------------------------------------------- Rings --

TEST(RingsTest, LineYieldsSequentialLevels) {
  Deployment d = LineDeployment(5);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Rings r = Rings::Build(c, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(r.level(v), static_cast<int>(v));
  EXPECT_EQ(r.max_level(), 4);
  EXPECT_EQ(r.num_reachable(), 5u);
}

TEST(RingsTest, LevelsAreBfsDistances) {
  Scenario s = MakeSyntheticScenario(/*seed=*/1, /*num_sensors=*/200);
  // Every node's level must be 1 + min level among neighbors (BFS property).
  for (NodeId v = 0; v < s.deployment.size(); ++v) {
    int lv = s.rings.level(v);
    if (lv <= 0) continue;
    int best = INT32_MAX;
    for (NodeId w : s.connectivity.Neighbors(v)) {
      if (s.rings.level(w) >= 0) best = std::min(best, s.rings.level(w));
    }
    EXPECT_EQ(lv, best + 1) << "node " << v;
  }
}

// Pins the upstream CSR Build records: each node's list is the ascending
// level-(L-1) filter of Neighbors(v) (over links w -> v that `link_ok`
// accepts, when given), empty for the base and unreachable nodes, and
// UpstreamBegin partitions [0, num_upstream_edges()) with the span and the
// edge ids naming the same targets.
void ExpectUpstreamCsr(const Rings& r, const Connectivity& c,
                       const LinkFilter& link_ok = nullptr) {
  const NodeId n = static_cast<NodeId>(r.num_nodes());
  EXPECT_EQ(r.UpstreamBegin(0), 0u);
  EXPECT_EQ(r.UpstreamBegin(n), r.num_upstream_edges());
  for (NodeId v = 0; v < n; ++v) {
    std::vector<NodeId> want;
    const int lv = r.level(v);
    if (lv > 0) {
      for (NodeId w : c.Neighbors(v)) {
        if (r.level(w) == lv - 1 && (!link_ok || link_ok(w, v))) {
          want.push_back(w);
        }
      }
      EXPECT_FALSE(want.empty()) << "reachable node must have upstream";
    }
    auto up = r.UpstreamNeighbors(c, v);
    EXPECT_EQ(std::vector<NodeId>(up.begin(), up.end()), want) << "node " << v;
    EXPECT_TRUE(std::is_sorted(up.begin(), up.end()));
    ASSERT_LE(r.UpstreamBegin(v), r.UpstreamBegin(v + 1));
    ASSERT_EQ(r.UpstreamBegin(v + 1) - r.UpstreamBegin(v), up.size());
    for (uint32_t e = r.UpstreamBegin(v); e < r.UpstreamBegin(v + 1); ++e) {
      EXPECT_EQ(r.UpstreamTarget(e), up[e - r.UpstreamBegin(v)]);
    }
  }
}

TEST(RingsTest, UpstreamNeighborsAreOneLevelCloser) {
  Scenario s = MakeSyntheticScenario(2, 200);
  const size_t n = s.deployment.size();
  {
    SCOPED_TRACE("plain");
    ExpectUpstreamCsr(s.rings, s.connectivity);
  }

  // Active mask: every 7th sensor down, so some survivors lose their only
  // relays and come out unreachable.
  std::vector<bool> active(n, true);
  for (NodeId v = 1; v < n; v += 7) active[v] = false;
  Rings masked = Rings::Build(s.connectivity, s.base(), active);
  EXPECT_LT(masked.num_reachable(), s.rings.num_reachable());
  {
    SCOPED_TRACE("active mask");
    ExpectUpstreamCsr(masked, s.connectivity);
  }

  // Link filter, asymmetric on purpose: it rejects about a fifth of the
  // directed links, so some nodes drop a level and the adjacency must
  // check the w -> v direction.
  const LinkFilter link_ok = [](NodeId from, NodeId to) {
    return (2 * from + to) % 5 != 0;
  };
  Rings filtered = Rings::Build(s.connectivity, s.base(),
                                std::vector<bool>(n, true), link_ok);
  EXPECT_LT(filtered.num_upstream_edges(), s.rings.num_upstream_edges());
  {
    SCOPED_TRACE("link filter");
    ExpectUpstreamCsr(filtered, s.connectivity, link_ok);
  }
}

TEST(RingsTest, NodesAtLevelPartition) {
  Scenario s = MakeSyntheticScenario(3, 150);
  size_t total = 0;
  for (int l = 0; l <= s.rings.max_level(); ++l) {
    for (NodeId v : s.rings.NodesAtLevel(l)) {
      EXPECT_EQ(s.rings.level(v), l);
    }
    total += s.rings.NodesAtLevel(l).size();
  }
  EXPECT_EQ(total, s.rings.num_reachable());
}

TEST(RingsTest, UnreachableMarked) {
  Deployment d = LineDeployment(4, 10.0);
  Connectivity c = Connectivity::FromRadioRange(d, 1.0);
  Rings r = Rings::Build(c, 0);
  EXPECT_EQ(r.level(0), 0);
  EXPECT_EQ(r.level(1), Rings::kUnreachable);
  EXPECT_EQ(r.num_reachable(), 1u);
}

// ------------------------------------------------------------------ Tree --

TEST(TreeTest, SetParentAndChildren) {
  Tree t(4, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 0);
  t.SetParent(3, 1);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.children(0).size(), 2u);
  EXPECT_EQ(t.num_in_tree(), 4u);
  EXPECT_TRUE(t.InTree(3));
}

TEST(TreeTest, ReattachMovesChild) {
  Tree t(4, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 0);
  t.SetParent(2, 1);
  EXPECT_EQ(t.parent(2), 1u);
  EXPECT_EQ(t.children(0).size(), 1u);
  EXPECT_EQ(t.children(1).size(), 1u);
}

TEST(TreeTest, SetParentRejectsCycles) {
  Tree t(5, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 1);
  t.SetParent(3, 2);
  // Re-parenting an ancestor under its own descendant closes a cycle.
  EXPECT_DEATH(t.SetParent(1, 3), "v != child");
  EXPECT_DEATH(t.SetParent(2, 3), "v != child");
  // Leaves attach and move anywhere: a childless node is nobody's ancestor.
  t.SetParent(4, 3);
  t.SetParent(3, 1);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.children(2).size(), 0u);
  // An internal node may move, just not under its own subtree.
  t.SetParent(2, 4);
  EXPECT_EQ(t.parent(2), 4u);
  EXPECT_DEATH(t.SetParent(3, 2), "v != child");
}

TEST(TreeTest, RemoveFromTree) {
  Tree t(4, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 1);
  t.RemoveFromTree(1);
  EXPECT_FALSE(t.InTree(1));
  EXPECT_EQ(t.parent(1), kNoParent);
  // 2 still points at 1; subtree implicitly detached.
  EXPECT_EQ(t.num_in_tree(), 2u);  // counts nodes with parents or root
}

TEST(TreeTest, HeightsLeafIsOne) {
  Tree t(6, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 0);
  t.SetParent(3, 1);
  t.SetParent(4, 1);
  t.SetParent(5, 4);
  auto h = t.ComputeHeights();
  EXPECT_EQ(h[3], 1);
  EXPECT_EQ(h[5], 1);
  EXPECT_EQ(h[4], 2);
  EXPECT_EQ(h[1], 3);
  EXPECT_EQ(h[2], 1);
  EXPECT_EQ(h[0], 4);
}

TEST(TreeTest, DepthsFromRoot) {
  Tree t(4, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 1);
  t.SetParent(3, 2);
  auto d = t.ComputeDepths();
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[3], 3);
}

TEST(TreeTest, SubtreeSizes) {
  Tree t(5, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 0);
  t.SetParent(3, 1);
  t.SetParent(4, 1);
  auto s = t.ComputeSubtreeSizes();
  EXPECT_EQ(s[0], 5u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 1u);
}

TEST(TreeTest, TopologicalChildrenFirst) {
  Tree t(5, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 1);
  t.SetParent(3, 1);
  t.SetParent(4, 3);
  auto order = t.TopologicalChildrenFirst();
  std::vector<int> pos(5, -1);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<int>(i);
  for (NodeId v = 1; v < 5; ++v) EXPECT_LT(pos[v], pos[t.parent(v)]);
  EXPECT_EQ(order.back(), 0u);
}

// ------------------------------------------------------------ Domination --

TEST(DominationTest, Table2WorkedExample) {
  // The paper's example tree Te: h(i) = 37, 10, 6, 1 (54 nodes) and the
  // regular binary tree T2: h(i) = 8, 4, 2, 1 (15 nodes).
  HeightHistogram te = HistogramFromCounts({37, 10, 6, 1});
  HeightHistogram t2 = HistogramFromCounts({8, 4, 2, 1});
  EXPECT_EQ(te.total, 54u);
  EXPECT_EQ(t2.total, 15u);

  // H(i) values from Table 2.
  EXPECT_NEAR(te.CumulativeFraction(1), 37.0 / 54, 1e-12);
  EXPECT_NEAR(te.CumulativeFraction(2), 47.0 / 54, 1e-12);
  EXPECT_NEAR(te.CumulativeFraction(3), 53.0 / 54, 1e-12);
  EXPECT_NEAR(te.CumulativeFraction(4), 1.0, 1e-12);
  EXPECT_NEAR(t2.CumulativeFraction(1), 8.0 / 15, 1e-12);

  // T2 is 2-dominating (Lemma 2: regular degree-2); Te dominates T2
  // pointwise, hence is 2-dominating as the paper argues.
  EXPECT_TRUE(IsDDominating(t2, 2.0));
  for (int i = 1; i <= 4; ++i) {
    EXPECT_GE(te.CumulativeFraction(i), t2.CumulativeFraction(i));
  }
  EXPECT_TRUE(IsDDominating(te, 2.0));
}

TEST(DominationTest, EveryTreeIs1Dominating) {
  HeightHistogram chain = HistogramFromCounts({1, 1, 1, 1, 1});
  EXPECT_TRUE(IsDDominating(chain, 1.0));
  // A 5-node chain's binding constraint is H(1) = 1/5 >= 1 - 1/d, giving a
  // domination factor of exactly 1.25.
  EXPECT_NEAR(DominationFactor(chain), 1.25, 1e-9);
}

TEST(DominationTest, RegularTreesDominateAtDegree) {
  // Degree-d regular tree of height 4: h(i) = d^3, d^2, d, 1.
  for (size_t d : {2u, 3u, 4u}) {
    HeightHistogram hist =
        HistogramFromCounts({d * d * d, d * d, d, 1});
    EXPECT_TRUE(IsDDominating(hist, static_cast<double>(d))) << d;
    EXPECT_GE(DominationFactor(hist), static_cast<double>(d)) << d;
  }
}

TEST(DominationTest, MonotoneInD) {
  HeightHistogram hist = HistogramFromCounts({20, 6, 2, 1});
  double factor = DominationFactor(hist, 0.05, 16.0);
  EXPECT_TRUE(IsDDominating(hist, factor));
  EXPECT_FALSE(IsDDominating(hist, factor + 0.05));
}

TEST(DominationTest, ComputedFromTreeExcludesRoot) {
  // Star: root with 5 leaf children -> all sensors height 1.
  Tree t(6, 0);
  for (NodeId v = 1; v < 6; ++v) t.SetParent(v, 0);
  HeightHistogram hist = ComputeHeightHistogram(t);
  EXPECT_EQ(hist.total, 5u);
  EXPECT_EQ(hist.count[1], 5u);
  EXPECT_GE(DominationFactor(hist), 15.0);  // H(1)=1: dominates any d
}

TEST(DominationTest, Lemma2StructuralCondition) {
  // Perfect binary tree over ids 0..6 (0 root).
  Tree t(7, 0);
  t.SetParent(1, 0);
  t.SetParent(2, 0);
  t.SetParent(3, 1);
  t.SetParent(4, 1);
  t.SetParent(5, 2);
  t.SetParent(6, 2);
  EXPECT_TRUE(SatisfiesLemma2(t, 2));
  EXPECT_FALSE(SatisfiesLemma2(t, 3));
  // Lemma 2: structural 2-domination implies 2-dominating histogram.
  EXPECT_TRUE(IsDDominating(ComputeHeightHistogram(t), 2.0));
}

TEST(DominationTest, Lemma2ImpliesDominationProperty) {
  // Randomized check of Lemma 2 on synthetic trees built to have >= 2
  // same-height children per internal node where possible.
  Scenario s = MakeSyntheticScenario(11, 300);
  if (SatisfiesLemma2(s.tree, 2)) {
    EXPECT_TRUE(IsDDominating(ComputeHeightHistogram(s.tree), 2.0));
  }
}

// ---------------------------------------------------------- TreeBuilder --

class TreeBuilderTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, TreeBuilderTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_P(TreeBuilderTest, OptimizedTreeRespectsRingConstraint) {
  Scenario s = MakeSyntheticScenario(GetParam(), 300);
  EXPECT_TRUE(s.tree.EdgesSubsetOf(s.connectivity));
  for (NodeId v = 0; v < s.tree.num_nodes(); ++v) {
    NodeId p = s.tree.parent(v);
    if (p == kNoParent) continue;
    // Section 4.1: tree parent is exactly one ring closer.
    EXPECT_EQ(s.rings.level(v), s.rings.level(p) + 1);
  }
}

TEST_P(TreeBuilderTest, AllReachableNodesJoinTree) {
  Scenario s = MakeSyntheticScenario(GetParam(), 300);
  for (NodeId v = 0; v < s.tree.num_nodes(); ++v) {
    EXPECT_EQ(s.tree.InTree(v), s.rings.level(v) >= 0) << "node " << v;
  }
}

TEST_P(TreeBuilderTest, TagTreeIsValidTree) {
  Scenario s = MakeSyntheticScenario(GetParam(), 300);
  EXPECT_TRUE(s.tag_tree.EdgesSubsetOf(s.connectivity));
  // Acyclic by construction; children-first order must cover all in-tree.
  EXPECT_EQ(s.tag_tree.TopologicalChildrenFirst().size(),
            s.tag_tree.num_in_tree());
}

TEST_P(TreeBuilderTest, OptimizedImprovesDominationOverTag) {
  // The Section 6.1.3 construction should (weakly) improve the domination
  // factor versus the plain TAG tree on the same connectivity; allow a
  // small tolerance for unlucky seeds.
  Scenario s = MakeSyntheticScenario(GetParam(), 400);
  double d_opt = DominationFactor(ComputeHeightHistogram(s.tree));
  double d_tag = DominationFactor(ComputeHeightHistogram(s.tag_tree));
  EXPECT_GE(d_opt, d_tag - 0.3)
      << "optimized " << d_opt << " vs TAG " << d_tag;
}

TEST(TreeBuilderTest2, DominationReasonableAtPaperDensity) {
  // At the paper's density (1.5 sensors / sq unit) trees should be bushy:
  // domination factor comfortably above 1.5 (LabData has 2.25).
  Scenario s = MakeSyntheticScenario(21, 600);
  double d = DominationFactor(ComputeHeightHistogram(s.tree));
  EXPECT_GE(d, 1.5);
}

// FNV-1a over every node's parent and then its children in stored order, so
// a builder change that reorders a child list shows as well as a moved edge.
uint64_t TreeDigest(const Tree& t) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (NodeId v = 0; v < t.num_nodes(); ++v) {
    mix(t.parent(v));
    mix(static_cast<uint32_t>(t.children(v).size()));
    for (NodeId c : t.children(v)) mix(c);
  }
  return h;
}

TEST(TreeBuilderTest2, BuildersMatchRecordedDigests) {
  // 2,000 sensors at the paper's density (1.5 per square unit). The digests
  // were recorded from the builders before the level-sweep optimizer and
  // the cheaper cycle guard; both were meant to change no tree.
  struct Recorded {
    uint64_t seed, optimized, tag, etx;
  };
  const Recorded recorded[] = {
      {1, 0xa18e5964493cff4aULL, 0xa56964980b1c2f4cULL, 0xddfcc05e65cf93aaULL},
      {2, 0xa9fccf4e5aaaac89ULL, 0x4fd966250415aeeeULL, 0x4de9f244afb2237cULL},
      {3, 0x7a533ba90ba793bcULL, 0x80c5555c04a7ea04ULL, 0xd4b7f90616c81a7dULL},
  };
  const double width = 20.0 * std::sqrt(2000.0 / 600.0);
  for (const Recorded& r : recorded) {
    Rng dep_rng(r.seed);
    Deployment d = MakeSyntheticDeployment(&dep_rng, 2000, width, width);
    Connectivity c = Connectivity::FromRadioRange(d, 3.0);
    Rings rings = Rings::Build(c, d.base());
    Rng opt_rng(r.seed ^ 0x7ee5ULL);
    Rng tag_rng(r.seed ^ 0x7a9ULL);
    const uint64_t optimized =
        TreeDigest(BuildOptimizedTree(c, rings, &opt_rng));
    const uint64_t tag = TreeDigest(BuildTagTree(c, rings, &tag_rng));
    const uint64_t etx = TreeDigest(BuildEtxTree(
        c, rings, [&d](NodeId child, NodeId parent) {
          return Distance(d.position(child), d.position(parent));
        }));
    EXPECT_EQ(optimized, r.optimized) << "seed " << r.seed;
    EXPECT_EQ(tag, r.tag) << "seed " << r.seed;
    EXPECT_EQ(etx, r.etx) << "seed " << r.seed;
  }
}

TEST(TreeBuilderTest2, ChainHasNoSwitchingOpportunity) {
  Deployment d = LineDeployment(6);
  Connectivity c = Connectivity::FromRadioRange(d, 1.2);
  Rings r = Rings::Build(c, 0);
  Rng rng(5);
  Tree t = BuildOptimizedTree(c, r, &rng);
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(t.parent(v), v - 1);
  // 5-sensor chain: binding constraint H(1) = 1/5 -> factor exactly 1.25.
  EXPECT_NEAR(DominationFactor(ComputeHeightHistogram(t)), 1.25, 1e-9);
}

}  // namespace
}  // namespace td
