// Unit tests for src/net: deployments, connectivity, loss models, delivery
// and energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "net/connectivity.h"
#include "net/deployment.h"
#include "net/loss_model.h"
#include "net/network.h"
#include "util/rng.h"
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

// ------------------------------------------------------------ Deployment --

TEST(DeploymentTest, BasicAccessors) {
  Deployment d = LineDeployment(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.num_sensors(), 4u);
  EXPECT_EQ(d.base(), 0u);
  EXPECT_DOUBLE_EQ(d.position(3).x, 3.0);
}

TEST(DeploymentTest, DistanceAndRect) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(r.Contains({5, 5}));
  EXPECT_TRUE(r.Contains({0, 10}));
  EXPECT_FALSE(r.Contains({10.1, 5}));
}

// ---------------------------------------------------------- Connectivity --

TEST(ConnectivityTest, RadioRangeDisc) {
  Deployment d = LineDeployment(4, 1.0);  // 0-1-2-3 spaced 1 apart
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  EXPECT_TRUE(c.AreNeighbors(0, 1));
  EXPECT_FALSE(c.AreNeighbors(0, 2));
  EXPECT_EQ(c.Neighbors(1).size(), 2u);
  EXPECT_EQ(c.num_links(), 3u);
  EXPECT_TRUE(c.IsConnected(0));
}

TEST(ConnectivityTest, RangeTwoHopsNeighbors) {
  Deployment d = LineDeployment(4, 1.0);
  Connectivity c = Connectivity::FromRadioRange(d, 2.5);
  EXPECT_TRUE(c.AreNeighbors(0, 2));
  EXPECT_FALSE(c.AreNeighbors(0, 3));
}

TEST(ConnectivityTest, FromLinksDedupsAndSymmetric) {
  Connectivity c = Connectivity::FromLinks(3, {{0, 1}, {1, 0}, {1, 2}});
  EXPECT_EQ(c.num_links(), 2u);
  EXPECT_TRUE(c.AreNeighbors(0, 1));
  EXPECT_TRUE(c.AreNeighbors(1, 0));
}

TEST(ConnectivityTest, Disconnected) {
  Deployment d = LineDeployment(4, 10.0);
  Connectivity c = Connectivity::FromRadioRange(d, 1.0);
  EXPECT_FALSE(c.IsConnected(0));
  EXPECT_EQ(c.AverageDegree(), 0.0);
}

// The O(n^2) reference: every b != a with Distance(a, b) <= range, in
// ascending id order.
std::vector<std::vector<NodeId>> BruteForceNeighbors(const Deployment& d,
                                                     double range) {
  std::vector<std::vector<NodeId>> adj(d.size());
  for (NodeId a = 0; a < d.size(); ++a) {
    for (NodeId b = 0; b < d.size(); ++b) {
      if (a != b && Distance(d.position(a), d.position(b)) <= range) {
        adj[a].push_back(b);
      }
    }
  }
  return adj;
}

// Checks `c` list by list against `expected`, and that every list is
// strictly ascending, free of self links and symmetric.
void ExpectAdjacency(const Connectivity& c,
                     const std::vector<std::vector<NodeId>>& expected,
                     const std::string& label) {
  ASSERT_EQ(c.num_nodes(), expected.size()) << label;
  size_t degree_sum = 0;
  for (NodeId a = 0; a < c.num_nodes(); ++a) {
    const auto nbrs = c.Neighbors(a);
    ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), expected[a])
        << label << ", node " << a;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_NE(nbrs[i], a) << label;
      if (i > 0) EXPECT_LT(nbrs[i - 1], nbrs[i]) << label;
      EXPECT_TRUE(c.AreNeighbors(nbrs[i], a)) << label;
    }
    degree_sum += nbrs.size();
  }
  EXPECT_EQ(c.num_links() * 2, degree_sum) << label;
}

void ExpectMatchesBruteForce(const std::vector<Point>& points, double range,
                             const std::string& label) {
  Deployment d(points);
  ExpectAdjacency(Connectivity::FromRadioRange(d, range),
                  BruteForceNeighbors(d, range), label);
}

TEST(ConnectivityTest, CsrMatchesBruteForce) {
  Rng rng(2024);
  auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * rng.NextDouble();
  };

  // Random fields of 2 to 5,000 nodes at the paper's density (1.5 per
  // square unit), plus sparser and denser ones.
  const std::pair<size_t, double> fields[] = {
      {2, 1.5},    {3, 0.05},  {17, 1.5},    {250, 0.05},  {250, 1.5},
      {250, 20.0}, {1000, 0.05}, {1000, 1.5}, {1000, 20.0}, {5000, 1.5}};
  for (const auto& [n, per_area] : fields) {
    const double side = std::sqrt(static_cast<double>(n) / per_area);
    std::vector<Point> p;
    for (size_t i = 0; i < n; ++i) {
      p.push_back({uniform(0.0, side), uniform(0.0, side)});
    }
    ExpectMatchesBruteForce(p, 3.0,
                            "random n=" + std::to_string(n) +
                                " density=" + std::to_string(per_area));
  }

  // A lattice with spacing exactly `range`: axis neighbors sit at distance
  // exactly range (or a rounding step either side of it).
  for (double range : {3.0, 0.1, 0.7}) {
    std::vector<Point> p;
    for (int i = 0; i < 30; ++i) {
      for (int j = 0; j < 30; ++j) p.push_back({i * range, j * range});
    }
    ExpectMatchesBruteForce(p, range, "lattice range=" + std::to_string(range));
  }

  // Pairs whose squared distance sits a few rounding steps above range^2:
  // there the square root can still round down to range, so only
  // Distance itself decides the link correctly.
  for (double range : {0.7, 1.3, 2.5, 3.0}) {
    const double r2 = range * range;
    const double step = std::nextafter(r2, 2 * r2) - r2;
    for (int k = 0; k < 8; ++k) {
      const double dy = std::sqrt(k * step);
      ExpectMatchesBruteForce({{0.0, 0.0}, {range, dy}, {-range, -dy}}, range,
                              "band range=" + std::to_string(range) +
                                  " k=" + std::to_string(k));
    }
  }

  // Points on and a rounding step either side of the multiples of the range,
  // where range-sized cells have their edges.
  {
    const double range = 0.3;
    std::vector<Point> p;
    for (int k = 0; k < 25; ++k) {
      const double x = k * range;
      for (double xx : {x, std::nextafter(x, -1e9), std::nextafter(x, 1e9)}) {
        p.push_back({xx, range * static_cast<double>(rng.NextBounded(6))});
        p.push_back({xx, uniform(0.0, 6 * range)});
      }
    }
    ExpectMatchesBruteForce(p, range, "cell edges");
  }

  // Pairs within range that cells exactly `range` wide, measured from the
  // field's minimum (-0.1 here), would put two cells apart: rounding in
  // (x - min) / range pushes the right node across a second cell edge.
  {
    const double pairs[][3] = {{0.1, 0.19999999999999998, 0.3},
                               {0.3, 7.699999999999999, 7.999999999999999},
                               {0.7, 1.9999999999999998, 2.6999999999999997},
                               {3.0, 254.89999999999998, 257.9}};
    for (const auto& [range, xa, xb] : pairs) {
      ExpectMatchesBruteForce({{-0.1, 0.0}, {xa, 0.0}, {xb, 0.0}}, range,
                              "cell rounding range=" + std::to_string(range));
    }
  }

  // A field offset to negative coordinates.
  {
    std::vector<Point> p;
    for (int i = 0; i < 2000; ++i) {
      p.push_back({uniform(-1000.5, -960.5), uniform(-777.25, -737.25)});
    }
    ExpectMatchesBruteForce(p, 3.0, "negative offset");
  }

  // All nodes in one cell (a complete graph), and all on one point.
  {
    std::vector<Point> p, same;
    for (int i = 0; i < 300; ++i) {
      p.push_back({uniform(5.0, 5.5), uniform(-2.0, -1.5)});
      same.push_back({4.25, 4.25});
    }
    ExpectMatchesBruteForce(p, 3.0, "one cell");
    ExpectMatchesBruteForce(same, 3.0, "one point");
  }

  // FromLinks: duplicate and reversed links collapse into one.
  {
    const size_t n = 200;
    std::vector<std::pair<NodeId, NodeId>> links;
    std::vector<std::vector<NodeId>> expected(n);
    for (int i = 0; i < 1500; ++i) {
      const NodeId a = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId b = static_cast<NodeId>(rng.NextBounded(n));
      if (a == b) continue;
      links.emplace_back(a, b);
      if (i % 3 == 0) links.emplace_back(b, a);
      if (i % 5 == 0) links.emplace_back(a, b);
      expected[a].push_back(b);
      expected[b].push_back(a);
    }
    for (auto& list : expected) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    ExpectAdjacency(Connectivity::FromLinks(n, links), expected, "links");
  }
}

// ------------------------------------------------------------ LossModels --

TEST(LossModelTest, GlobalInRange) {
  GlobalLoss p(0.3);
  EXPECT_DOUBLE_EQ(p.LossRate(5, 6, 99), 0.3);
  GlobalLoss zero(0.0);
  EXPECT_DOUBLE_EQ(zero.LossRate(0, 1, 0), 0.0);
  GlobalLoss one(1.0);
  EXPECT_DOUBLE_EQ(one.LossRate(0, 1, 0), 1.0);
}

// Out-of-range rates are caller bugs: constructors abort rather than
// silently clamping (a clamped 1.7 "loss rate" would misreport every
// robustness sweep built on it).
TEST(LossModelDeathTest, RejectsOutOfRangeRates) {
  EXPECT_DEATH(GlobalLoss(1.7), "probabilities in \\[0, 1\\]");
  EXPECT_DEATH(GlobalLoss(-0.5), "probabilities in \\[0, 1\\]");
  EXPECT_DEATH(
      {
        PerLinkLoss pl(0.2);
        pl.SetLink(0, 1, 1.2);
      },
      "probabilities in \\[0, 1\\]");
  EXPECT_DEATH(PerLinkLoss(-0.1), "probabilities in \\[0, 1\\]");
  Deployment d = LineDeployment(3);
  EXPECT_DEATH(RegionalLoss(&d, Rect{{0, 0}, {1, 1}}, 2.0, 0.1),
               "probabilities in \\[0, 1\\]");
  GilbertElliottLoss::Params ge;
  ge.p_good_to_bad = -0.2;
  EXPECT_DEATH(GilbertElliottLoss(ge, 1), "transition probabilities");
}

TEST(LossModelDeathTest, TimeVaryingRejectsBadPhases) {
  using Phases =
      std::vector<std::pair<uint32_t, std::shared_ptr<LossModel>>>;
  EXPECT_DEATH(TimeVaryingLoss(Phases{}), "at least one phase");
  EXPECT_DEATH(
      TimeVaryingLoss(Phases{{5, std::make_shared<GlobalLoss>(0.1)}}),
      "begin at epoch 0");
  EXPECT_DEATH(
      TimeVaryingLoss(Phases{{0, std::make_shared<GlobalLoss>(0.1)},
                             {100, std::make_shared<GlobalLoss>(0.2)},
                             {50, std::make_shared<GlobalLoss>(0.3)}}),
      "strictly increasing start epoch");
}

TEST(LossModelTest, RegionalUsesSenderPosition) {
  Deployment d({{0, 0}, {5, 5}, {15, 15}});
  RegionalLoss r(&d, Rect{{0, 0}, {10, 10}}, 0.8, 0.1);
  EXPECT_DOUBLE_EQ(r.LossRate(1, 2, 0), 0.8);  // sender inside region
  EXPECT_DOUBLE_EQ(r.LossRate(2, 1, 0), 0.1);  // sender outside region
}

TEST(LossModelTest, PerLinkWithDefault) {
  PerLinkLoss pl(0.2);
  pl.SetLink(0, 1, 0.5);
  pl.SetLinkSymmetric(1, 2, 0.7);
  EXPECT_DOUBLE_EQ(pl.LossRate(0, 1, 0), 0.5);
  EXPECT_DOUBLE_EQ(pl.LossRate(1, 0, 0), 0.2);  // directed
  EXPECT_DOUBLE_EQ(pl.LossRate(1, 2, 0), 0.7);
  EXPECT_DOUBLE_EQ(pl.LossRate(2, 1, 0), 0.7);
}

TEST(LossModelTest, DistanceLossMonotone) {
  Deployment d = LineDeployment(5, 2.0);
  DistanceLoss dl(&d, 8.0, 0.05, 0.5, 2.0);
  double near = dl.LossRate(0, 1, 0);   // distance 2
  double far = dl.LossRate(0, 3, 0);    // distance 6
  EXPECT_LT(near, far);
  EXPECT_GE(near, 0.05);
  EXPECT_LE(far, 1.0);
}

TEST(LossModelTest, TimeVaryingSwitchesAtBoundaries) {
  auto phases = std::vector<std::pair<uint32_t, std::shared_ptr<LossModel>>>{
      {0, std::make_shared<GlobalLoss>(0.0)},
      {100, std::make_shared<GlobalLoss>(0.3)},
      {200, std::make_shared<GlobalLoss>(0.9)}};
  TimeVaryingLoss tv(std::move(phases));
  EXPECT_DOUBLE_EQ(tv.LossRate(0, 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(tv.LossRate(0, 1, 99), 0.0);
  EXPECT_DOUBLE_EQ(tv.LossRate(0, 1, 100), 0.3);
  EXPECT_DOUBLE_EQ(tv.LossRate(0, 1, 199), 0.3);
  EXPECT_DOUBLE_EQ(tv.LossRate(0, 1, 5000), 0.9);
}

TEST(LossModelTest, MaxLossTakesWorse) {
  auto a = std::make_shared<GlobalLoss>(0.2);
  auto b = std::make_shared<GlobalLoss>(0.6);
  MaxLoss m(a, b);
  EXPECT_DOUBLE_EQ(m.LossRate(0, 1, 0), 0.6);
}

// --------------------------------------------------------------- Network --

TEST(NetworkTest, LosslessAlwaysDelivers) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.0), 1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(net.Deliver(0, 1, 0));
}

TEST(NetworkTest, FullLossNeverDelivers) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(1.0), 1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(net.Deliver(0, 1, 0));
}

TEST(NetworkTest, LossRateStatistics) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.3), 2);
  int delivered = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) delivered += net.Deliver(0, 1, 0);
  EXPECT_NEAR(static_cast<double>(delivered) / trials, 0.7, 0.01);
}

TEST(NetworkTest, DeterministicGivenSeed) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network n1(&d, &c, std::make_shared<GlobalLoss>(0.5), 77);
  Network n2(&d, &c, std::make_shared<GlobalLoss>(0.5), 77);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(n1.Deliver(0, 1, i), n2.Deliver(0, 1, i));
  }
}

TEST(NetworkTest, TransmissionAccounting) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.0), 1);
  net.CountTransmission(1, 10);    // 1 packet
  net.CountTransmission(1, 48);    // 1 packet
  net.CountTransmission(1, 49);    // 2 packets
  net.CountTransmission(1, 0);     // still 1 packet minimum
  EXPECT_EQ(net.total_energy().transmissions, 4u);
  EXPECT_EQ(net.total_energy().packets, 5u);
  EXPECT_EQ(net.total_energy().bytes, 107u);
  EXPECT_EQ(net.node_energy(1).transmissions, 4u);
  EXPECT_EQ(net.node_energy(0).transmissions, 0u);
}

TEST(NetworkTest, ResetEnergyZeroes) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.0), 1);
  net.CountTransmission(0, 10);
  net.ResetEnergy();
  EXPECT_EQ(net.total_energy().transmissions, 0u);
  EXPECT_EQ(net.node_energy(0).bytes, 0u);
}

TEST(NetworkTest, RetriesImproveDelivery) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.5), 3);
  const int trials = 20000;
  int no_retry = 0, with_retry = 0;
  for (int i = 0; i < trials; ++i) {
    no_retry += net.DeliverWithRetries(0, 1, 0, 0, 10);
    with_retry += net.DeliverWithRetries(0, 1, 0, 2, 10);
  }
  // p(success) = 0.5 vs 1 - 0.5^3 = 0.875.
  EXPECT_NEAR(no_retry / static_cast<double>(trials), 0.5, 0.02);
  EXPECT_NEAR(with_retry / static_cast<double>(trials), 0.875, 0.02);
}

TEST(NetworkTest, RetriesChargeEnergyPerAttempt) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(1.0), 3);
  EXPECT_FALSE(net.DeliverWithRetries(0, 1, 0, 2, 10));
  EXPECT_EQ(net.total_energy().transmissions, 3u);  // 1 + 2 retries
}

TEST(NetworkTest, RetriesStopAfterSuccess) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.0), 3);
  EXPECT_TRUE(net.DeliverWithRetries(0, 1, 0, 5, 10));
  EXPECT_EQ(net.total_energy().transmissions, 1u);
}

// ------------------------------------------ retry policy and accounting --

// The RetryStats invariants hold for any seed and loss rate, and the
// energy tally matches the attempt tally exactly: every failed attempt is
// charged.
TEST(NetworkTest, RetryAccountingMatchesEnergyAcrossSeeds) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  for (uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    Network net(&d, &c, std::make_shared<GlobalLoss>(0.45), seed);
    RetryPolicy policy;
    policy.max_attempts = 4;
    net.SetRetryPolicy(policy);
    const size_t bytes = 10;  // < 48: one packet per attempt
    for (int i = 0; i < 5000; ++i) net.DeliverWithRetries(0, 1, 0, 0, bytes);

    const RetryStats& rs = net.retry_stats();
    EXPECT_EQ(rs.unicasts, 5000u);
    uint64_t hist_unicasts = 0, hist_attempts = 0;
    for (size_t k = 0; k < rs.by_attempts.size(); ++k) {
      hist_unicasts += rs.by_attempts[k];
      hist_attempts += (k + 1) * rs.by_attempts[k];
    }
    EXPECT_EQ(hist_unicasts, rs.unicasts);
    EXPECT_EQ(hist_attempts, rs.attempts);
    EXPECT_LE(rs.delivered, rs.unicasts);
    EXPECT_LE(rs.by_attempts.size(), 4u);
    // Energy: every attempt -- delivered or failed -- was charged.
    EXPECT_EQ(net.total_energy().transmissions, rs.attempts);
    EXPECT_EQ(net.total_energy().packets, rs.attempts);
    EXPECT_EQ(net.total_energy().bytes, rs.attempts * bytes);
  }
}

TEST(NetworkTest, RetryPolicyOverridesPerCallBudget) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(1.0), 3);
  RetryPolicy policy;
  policy.max_attempts = 5;
  net.SetRetryPolicy(policy);
  // The per-call extra_attempts argument (0) is ignored under a policy.
  EXPECT_FALSE(net.DeliverWithRetries(0, 1, 0, 0, 10));
  EXPECT_EQ(net.total_energy().transmissions, 5u);
  net.ClearRetryPolicy();
  net.ResetEnergy();
  EXPECT_FALSE(net.DeliverWithRetries(0, 1, 0, 0, 10));
  EXPECT_EQ(net.total_energy().transmissions, 1u);
}

TEST(NetworkTest, BackoffTruncatesBudgetToEpochWindow) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_slots = 2;  // stride 3 -> ceil(8 / 3) = 3 attempts fit
  policy.slots_per_epoch = 8;
  EXPECT_EQ(policy.EffectiveAttempts(), 3);
  policy.backoff_slots = 0;
  EXPECT_EQ(policy.EffectiveAttempts(), 8);
  policy.max_attempts = 2;
  EXPECT_EQ(policy.EffectiveAttempts(), 2);
}

TEST(NetworkTest, AckLossRetransmitsButDeliversOnce) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  // Perfect data link, perfect ack link: exactly one attempt + one ack.
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.0), 3);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.ack_loss = true;
  policy.ack_bytes = 8;
  net.SetRetryPolicy(policy);
  EXPECT_TRUE(net.DeliverWithRetries(0, 1, 0, 0, 10));
  EXPECT_EQ(net.node_energy(0).transmissions, 1u);  // data
  EXPECT_EQ(net.node_energy(1).transmissions, 1u);  // ack
  EXPECT_EQ(net.retry_stats().delivered, 1u);

  // Acks always lost on the reverse link: data arrives on attempt 1, but
  // the sender burns the whole budget waiting for an ack that never comes.
  PerLinkLoss asym(0.0);
  asym.SetLink(1, 0, 1.0);  // reverse (ack) link dead
  Network net2(&d, &c, std::make_shared<PerLinkLoss>(asym), 3);
  net2.SetRetryPolicy(policy);
  EXPECT_TRUE(net2.DeliverWithRetries(0, 1, 0, 0, 10));
  EXPECT_EQ(net2.node_energy(0).transmissions, 4u);  // full budget
  EXPECT_EQ(net2.node_energy(1).transmissions, 4u);  // one ack per receipt
  EXPECT_EQ(net2.retry_stats().delivered, 1u);       // still one delivery
  EXPECT_EQ(net2.retry_stats().attempts, 4u);
}

TEST(NetworkDeathTest, RejectsZeroAttemptBudget) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(0.0), 1);
  RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_DEATH(net.SetRetryPolicy(policy), "zero-attempt budget");
}

TEST(NetworkTest, SetLossModelSwaps) {
  Deployment d = LineDeployment(3);
  Connectivity c = Connectivity::FromRadioRange(d, 1.5);
  Network net(&d, &c, std::make_shared<GlobalLoss>(1.0), 3);
  EXPECT_FALSE(net.Deliver(0, 1, 0));
  net.SetLossModel(std::make_shared<GlobalLoss>(0.0));
  EXPECT_TRUE(net.Deliver(0, 1, 0));
}

}  // namespace
}  // namespace td
