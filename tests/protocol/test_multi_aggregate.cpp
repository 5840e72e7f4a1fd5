// Multi-aggregate continuous monitoring: several aggregates ride the same
// push–pull exchanges (a real node piggybacks all its aggregation state in
// one message), and §4 epochs restart every one of them from a fresh
// snapshot of the local attributes. Declared through
// `.aggregates({AggregatorSpec::...})` with `.epoch_length(...)`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "aggregate/aggregate.hpp"
#include "common/stats.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

std::vector<double> uniforms(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return generate_values(ValueDistribution::kUniform, n, rng);
}

/// Average, maximum and minimum of the load over epochs of `epoch_length`.
SimulationBuilder monitor(std::size_t epoch_length, std::uint64_t seed) {
  SimulationBuilder builder;
  builder
      .aggregates({AggregatorSpec::average("avg_load"),
                   AggregatorSpec::maximum("max_load"),
                   AggregatorSpec::minimum("min_load")})
      .epoch_length(epoch_length)
      .seed(seed);
  return builder;
}

TEST(MultiAggregate, AllAggregatesConvergeToTruthInOneEpoch) {
  const auto load = uniforms(500, 1);
  Simulation sim =
      monitor(30, 2).workload(WorkloadSpec::from_values(load)).build();
  const EpochSummary report = sim.run_epoch();
  EXPECT_EQ(report.population_start, 500u);
  EXPECT_NEAR(report.est_mean, mean(load), 1e-8);
  const double max = *std::max_element(load.begin(), load.end());
  const double min = *std::min_element(load.begin(), load.end());
  // 30 SEQ cycles contract the variance of U(0, 1) by (1/(2√e))^30: a
  // per-node standard deviation of ~5e-9 around the conserved mean.
  for (NodeId v = 0; v < 500; ++v) {
    EXPECT_NEAR(sim.slot_approximations(0)[v], mean(load), 1e-7);
    EXPECT_EQ(sim.slot_approximations(1)[v], max);  // extremes spread exactly
    EXPECT_EQ(sim.slot_approximations(2)[v], min);
  }
}

TEST(MultiAggregate, AdaptsToValueDriftNextEpoch) {
  Simulation sim =
      monitor(25, 3).workload(WorkloadSpec::from_values(uniforms(300, 3))).build();
  const EpochSummary first = sim.run_epoch();
  for (NodeId v = 0; v < 300; ++v) sim.set_slot_value(v, 0, 10.0);
  const EpochSummary second = sim.run_epoch();
  EXPECT_NEAR(second.est_mean, 10.0, 1e-8);
  EXPECT_NE(first.est_mean, second.est_mean);
  // Only the average's attribute moved.
  EXPECT_LT(sim.slot_approximations(1).front(), 1.0);
}

TEST(MultiAggregate, MidEpochApproximationIsReadable) {
  // Proactive means continuously available: a mid-epoch read gives the
  // current, partially converged estimate — and mass is conserved exactly.
  const auto load = uniforms(100, 6);
  Simulation sim =
      monitor(100, 7).workload(WorkloadSpec::from_values(load)).build();
  sim.run_cycles(1);
  const std::vector<double>& avg = sim.slot_approximations(0);
  EXPECT_GT(empirical_variance(avg), 0.0);  // one cycle is not convergence
  EXPECT_NEAR(mean(avg), mean(load), 1e-12);
}

TEST(MultiAggregate, SizeAndSumFromAverages) {
  // §1.1: the average of an indicator (one node holds 1) is 1/N, and the
  // sum of any attribute is its average times that size estimate.
  Simulation size = SimulationBuilder()
                        .nodes(400)
                        .workload(WorkloadSpec::from_distribution(
                            ValueDistribution::kIndicator))
                        .epoch_length(30)
                        .seed(8)
                        .build();
  const double n_hat = 1.0 / size.run_epoch().est_mean;
  EXPECT_NEAR(n_hat, 400.0, 400.0 * 1e-6);

  Rng rng(9);
  const auto memory_free = generate_values(ValueDistribution::kPareto, 400, rng);
  Simulation sum = SimulationBuilder()
                       .workload(WorkloadSpec::from_values(memory_free))
                       .epoch_length(30)
                       .seed(10)
                       .build();
  const double derived = sum_from_average(sum.run_epoch().est_mean, n_hat);
  EXPECT_NEAR(derived, kahan_total(memory_free), kahan_total(memory_free) * 1e-4);
}

TEST(MultiAggregate, JoinersCountFromNextEpoch) {
  class JoinBurst final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t cycle, std::size_t) override {
      return cycle == 5 ? ChurnAction{50, 0} : ChurnAction{};
    }
  };
  Simulation sim = monitor(30, 4)
                       .nodes(200)
                       .failures(FailureSpec::with_churn(
                           std::make_shared<JoinBurst>()))
                       .build();
  const EpochSummary before = sim.run_epoch();
  EXPECT_EQ(before.population_start, 200u);
  EXPECT_EQ(before.population_end, 250u);
  EXPECT_EQ(sim.participant_count(), 200u);  // joiners wait for the restart
  const EpochSummary after = sim.run_epoch();
  EXPECT_EQ(after.population_start, 250u);
  EXPECT_EQ(sim.participant_count(), 250u);
  EXPECT_NEAR(after.est_mean, after.truth, 1e-8);
}

TEST(MultiAggregate, CrashesShrinkNextReport) {
  Simulation sim = monitor(30, 5)
                       .nodes(200)
                       .failures(FailureSpec::with_churn(
                           std::make_shared<CrashBurst>(35, 40)))
                       .build();
  sim.run_epoch();
  const EpochSummary crashed = sim.run_epoch();
  EXPECT_EQ(crashed.population_end, 160u);
  const EpochSummary report = sim.run_epoch();
  EXPECT_EQ(report.population_start, 160u);
  EXPECT_EQ(sim.participant_count(), 160u);
  EXPECT_NEAR(report.est_mean, report.truth, 1e-8);
}

TEST(MultiAggregate, ValidatesConstruction) {
  EXPECT_THROW(monitor(30, 1).nodes(1).build(), ContractViolation);
  EXPECT_THROW(SimulationBuilder()
                   .nodes(10)
                   .aggregates({AggregatorSpec{"x", "no-such-kind", 0.0}})
                   .build(),
               ContractViolation);
  Simulation sim = monitor(30, 10).nodes(10).build();
  EXPECT_THROW((void)sim.slot_approximations(3), ContractViolation);
  EXPECT_THROW(sim.set_slot_value(0, 9, 1.0), ContractViolation);
  EXPECT_THROW(sim.set_slot_value(10, 0, 1.0), ContractViolation);
}

}  // namespace
}  // namespace epiagg
