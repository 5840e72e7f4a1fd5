// §4 size estimation: the InstanceSet counting kernel on its own. The whole
// protocol — leaders, epochs, churn — is run in test_network_runner.cpp.
#include "protocol/size_estimation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace epiagg {
namespace {

TEST(InstanceSet, StartsEmpty) {
  InstanceSet set;
  EXPECT_EQ(set.instance_count(), 0u);
  EXPECT_DOUBLE_EQ(set.total_mass(), 0.0);
  EXPECT_FALSE(set.estimate().has_value());
  EXPECT_DOUBLE_EQ(set.get(42), 0.0);
}

TEST(InstanceSet, LeadCreatesUnitMass) {
  InstanceSet set;
  set.lead(7);
  EXPECT_EQ(set.instance_count(), 1u);
  EXPECT_DOUBLE_EQ(set.get(7), 1.0);
  EXPECT_DOUBLE_EQ(set.total_mass(), 1.0);
  ASSERT_TRUE(set.estimate().has_value());
  EXPECT_DOUBLE_EQ(*set.estimate(), 1.0);  // alone, it thinks N = 1
}

TEST(InstanceSet, LeadRejectsDuplicates) {
  InstanceSet set;
  set.lead(7);
  EXPECT_THROW(set.lead(7), ContractViolation);
}

TEST(InstanceSet, EntriesStaySorted) {
  InstanceSet set;
  set.lead(9);
  set.lead(3);
  set.lead(6);
  const auto& entries = set.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 3u);
  EXPECT_EQ(entries[1].first, 6u);
  EXPECT_EQ(entries[2].first, 9u);
}

TEST(InstanceSet, ExchangeAveragesSharedInstance) {
  InstanceSet a, b;
  a.lead(1);  // a: {1: 1.0}
  InstanceSet::exchange(a, b);
  EXPECT_DOUBLE_EQ(a.get(1), 0.5);
  EXPECT_DOUBLE_EQ(b.get(1), 0.5);
  EXPECT_EQ(b.instance_count(), 1u);
}

TEST(InstanceSet, ExchangeMergesDisjointInstances) {
  InstanceSet a, b;
  a.lead(1);
  b.lead(2);
  InstanceSet::exchange(a, b);
  for (const InstanceSet* s : {&a, &b}) {
    EXPECT_EQ(s->instance_count(), 2u);
    EXPECT_DOUBLE_EQ(s->get(1), 0.5);
    EXPECT_DOUBLE_EQ(s->get(2), 0.5);
  }
}

TEST(InstanceSet, ExchangeConservesMassPerInstance) {
  Rng rng(1);
  InstanceSet a, b;
  a.lead(10);
  b.lead(20);
  InstanceSet::exchange(a, b);
  // Run random exchanges among 4 replicas; total per-instance mass is fixed.
  InstanceSet c, d;
  InstanceSet* sets[4] = {&a, &b, &c, &d};
  for (int round = 0; round < 100; ++round) {
    const auto i = rng.uniform_u64(4);
    auto j = rng.uniform_u64(3);
    if (j >= i) ++j;
    InstanceSet::exchange(*sets[i], *sets[j]);
  }
  double mass10 = 0.0, mass20 = 0.0;
  for (const InstanceSet* s : sets) {
    mass10 += s->get(10);
    mass20 += s->get(20);
  }
  EXPECT_NEAR(mass10, 1.0, 1e-12);
  EXPECT_NEAR(mass20, 1.0, 1e-12);
}

TEST(InstanceSet, ExchangeLeavesIdenticalStates) {
  InstanceSet a, b;
  a.lead(1);
  a.lead(5);
  b.lead(3);
  InstanceSet::exchange(a, b);
  EXPECT_EQ(a.entries(), b.entries());
}

TEST(InstanceSet, EstimateCombinesInstanceEstimates) {
  InstanceSet set;
  set.lead(1);
  set.lead(2);
  // Manually converge both instances to 1/4 via exchanges with three empty
  // peers (2 rounds of halving).
  InstanceSet p1, p2;
  InstanceSet::exchange(set, p1);  // values 1/2
  InstanceSet::exchange(set, p2);  // values 1/4
  ASSERT_TRUE(set.estimate().has_value());
  EXPECT_DOUBLE_EQ(*set.estimate(), 4.0);  // both instances say N = 4
}

TEST(InstanceSet, ClearDropsEverything) {
  InstanceSet set;
  set.lead(1);
  set.clear();
  EXPECT_EQ(set.instance_count(), 0u);
  EXPECT_FALSE(set.estimate().has_value());
}

TEST(LeaderProbability, ScalesInverselyWithEstimate) {
  EXPECT_DOUBLE_EQ(leader_probability(4.0, 1000.0), 0.004);
  EXPECT_DOUBLE_EQ(leader_probability(1.0, 100.0), 0.01);
  EXPECT_DOUBLE_EQ(leader_probability(10.0, 5.0), 1.0);  // clamped
  EXPECT_THROW(leader_probability(0.0, 100.0), ContractViolation);
  EXPECT_THROW(leader_probability(4.0, 0.5), ContractViolation);
}

TEST(Counting, GossipRoundsConvergeToTrueSize) {
  // Full counting pipeline on a static 256-node network simulated directly
  // over InstanceSets: one leader, SEQ-style random exchanges, estimate at
  // every node approaches N.
  Rng rng(2);
  constexpr std::size_t kNodes = 256;
  std::vector<InstanceSet> nodes(kNodes);
  nodes[0].lead(99);
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::size_t j = static_cast<std::size_t>(rng.uniform_u64(kNodes - 1));
      if (j >= i) ++j;
      InstanceSet::exchange(nodes[i], nodes[j]);
    }
  }
  for (const InstanceSet& node : nodes) {
    ASSERT_TRUE(node.estimate().has_value());
    EXPECT_NEAR(*node.estimate(), static_cast<double>(kNodes),
                static_cast<double>(kNodes) * 1e-6);
  }
}

}  // namespace
}  // namespace epiagg
