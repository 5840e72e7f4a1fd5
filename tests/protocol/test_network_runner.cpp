// Whole-network protocol runs with epoch restarts (§4), driven through
// SimulationBuilder: the size-estimation protocol — leaders, epochs, churn —
// via `.protocol(ProtocolVariant::kSizeEstimation)`, and continuous averaging
// restarted every epoch. The runs are pinned to fingerprints of their epoch
// reports, recorded from the same configurations before the dedicated
// network classes were folded into the builder.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "../support/trace_fingerprint.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

/// The Fig. 4 protocol on the cycle engine: `n` initial nodes, epochs of
/// `epoch_length` cycles, E = 4 expected leaders, optional churn.
Simulation counting(std::size_t n, std::size_t epoch_length, std::uint64_t seed,
                    std::shared_ptr<ChurnSchedule> churn = nullptr) {
  SimulationBuilder builder;
  builder.nodes(n)
      .protocol(ProtocolVariant::kSizeEstimation)
      .epoch_length(epoch_length)
      .expected_leaders(4.0)
      .seed(seed);
  if (churn != nullptr) builder.failures(FailureSpec::with_churn(churn));
  return builder.build();
}

TEST(SizeEstimation, StaticNetworkEstimatesAccurately) {
  Simulation sim = counting(1000, 30, 1);
  sim.run_cycles(30);  // one epoch
  ASSERT_EQ(sim.epochs().size(), 1u);
  const EpochSummary& report = sim.epochs().front();
  EXPECT_EQ(report.population_start, 1000u);
  EXPECT_EQ(report.population_end, 1000u);
  if (report.instances > 0) {
    EXPECT_GT(report.reporting, 990u);
    EXPECT_NEAR(report.est_mean, 1000.0, 1.0);
    EXPECT_NEAR(report.est_min, 1000.0, 1.0);
    EXPECT_NEAR(report.est_max, 1000.0, 1.0);
  }
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0x645b7eeb77ecd823ULL);
}

TEST(SizeEstimation, MultipleEpochsAllReport) {
  Simulation sim = counting(500, 30, 2);
  sim.run_cycles(30 * 10);
  ASSERT_EQ(sim.epochs().size(), 10u);
  int epochs_with_instances = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0) continue;  // possible with small probability
    ++epochs_with_instances;
    EXPECT_NEAR(report.est_mean, 500.0, 5.0);
  }
  // P(no leader) = (1 - 4/500)^500 ≈ e^-4 ≈ 1.8% per epoch.
  EXPECT_GE(epochs_with_instances, 8);
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0xf68759799ef46095ULL);
}

TEST(SizeEstimation, MassConservedWithoutChurn) {
  Simulation sim = counting(300, 30, 3);
  sim.run_cycles(10);  // mid-epoch
  const double mass = sim.total_mass();
  // Mass equals the number of instances started this epoch (each leader
  // injected exactly 1).
  EXPECT_NEAR(mass, std::round(mass), 1e-9);
  sim.run_cycles(10);
  EXPECT_NEAR(sim.total_mass(), mass, 1e-9);
  EXPECT_EQ(fingerprint({mass, sim.total_mass()}), 0x3d8789896e18461fULL);
}

TEST(SizeEstimation, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Simulation sim = counting(200, 30, seed);
    sim.run_cycles(60);
    return sim.epochs();
  };
  const auto a = run(7);
  const auto b = run(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].instances, b[i].instances);
    EXPECT_DOUBLE_EQ(a[i].est_mean, b[i].est_mean);
  }
  EXPECT_EQ(epochs_fingerprint(a), 0x82c7a8715f6cea6bULL);
}

TEST(SizeEstimation, JoinersWaitForNextEpoch) {
  // A join-only burst mid-epoch: the population grows immediately but the
  // participant set only changes at the next epoch boundary.
  class JoinBurst final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t cycle, std::size_t) override {
      return cycle == 5 ? ChurnAction{30, 0} : ChurnAction{};
    }
  };
  Simulation sim = counting(100, 20, 4, std::make_shared<JoinBurst>());
  sim.run_cycles(10);  // mid-epoch, after the burst
  EXPECT_EQ(sim.population_size(), 130u);
  EXPECT_EQ(sim.participant_count(), 100u);  // joiners still waiting
  sim.run_cycles(10);  // epoch boundary at cycle 20
  EXPECT_EQ(sim.participant_count(), 130u);  // absorbed at the restart
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0x5bd657146c17de08ULL);
}

TEST(SizeEstimation, GrowthShowsUpOneEpochLate) {
  // A pure-join schedule: +10 nodes per cycle. The estimate of epoch k
  // reflects the population at epoch k's start — i.e. it lags by one epoch
  // (the paper's "translated by an epoch" observation).
  class PureJoin final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t, std::size_t) override { return {10, 0}; }
  };
  Simulation sim = counting(500, 25, 5, std::make_shared<PureJoin>());
  sim.run_cycles(25 * 4);
  ASSERT_EQ(sim.epochs().size(), 4u);
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0) continue;
    // Estimate ≈ size at epoch start, not at epoch end (which is 250 larger).
    EXPECT_NEAR(report.est_mean, static_cast<double>(report.population_start),
                static_cast<double>(report.population_start) * 0.02);
    EXPECT_EQ(report.population_end, report.population_start + 250u);
  }
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0x8f7a69b03a470a9fULL);
}

TEST(SizeEstimation, SurvivesHeavyChurn) {
  // 10% fluctuation per cycle: estimates become noisy but stay in a sane
  // band and the simulation never breaks invariants.
  Simulation sim =
      counting(400, 30, 6, std::make_shared<ConstantFluctuation>(40));
  sim.run_cycles(30 * 5);
  ASSERT_EQ(sim.epochs().size(), 5u);
  EXPECT_EQ(sim.population_size(), 400u);
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0 || report.reporting == 0) continue;
    EXPECT_GT(report.est_mean, 100.0);
    EXPECT_LT(report.est_mean, 1600.0);
  }
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0x5c2d8fad64b19ef6ULL);
}

TEST(SizeEstimation, OscillationTrackedWithOneEpochLag) {
  // Scaled-down Fig. 4: size oscillates 900..1100, epoch 30, fluctuation 10.
  Simulation sim = counting(
      1100, 30, 7, std::make_shared<OscillatingChurn>(900, 1100, 200, 10));
  sim.run_cycles(30 * 12);
  std::size_t checked = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0 || report.reporting == 0) continue;
    // The estimate reflects the epoch-start population within ~10%.
    EXPECT_NEAR(report.est_mean, static_cast<double>(report.population_start),
                static_cast<double>(report.population_start) * 0.10);
    ++checked;
  }
  EXPECT_GE(checked, 9u);
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0x918ff1a9d799de9fULL);
}

TEST(SizeEstimation, ValidatesConfig) {
  EXPECT_THROW(counting(1, 30, 1), ContractViolation);
  EXPECT_THROW(SimulationBuilder()
                   .nodes(100)
                   .protocol(ProtocolVariant::kSizeEstimation)
                   .expected_leaders(0.0)
                   .build(),
               ContractViolation);
}

// Epoch restarts (§4) of continuous averaging over a static population
// whose attributes change between epochs — the load-monitoring application
// of the paper's introduction. Pinned to the fingerprints of the same runs
// recorded before the dedicated averaging network class was folded into
// the builder.

Simulation monitoring(std::vector<double> values, std::size_t epoch_length,
                      std::uint64_t seed) {
  return SimulationBuilder()
      .epoch_length(epoch_length)
      .workload(WorkloadSpec::from_values(std::move(values)))
      .seed(seed)
      .build();
}

void append_summary(std::vector<double>& trace, const EpochSummary& e) {
  for (const double x : {static_cast<double>(e.end_cycle), e.truth, e.est_mean,
                         e.est_min, e.est_max, e.variance})
    trace.push_back(x);
}

TEST(EpochRestarts, AveragingConvergesWithinEpoch) {
  Rng rng(8);
  Simulation sim = monitoring(
      generate_values(ValueDistribution::kUniform, 500, rng), 30, 9);
  const EpochSummary report = sim.run_epoch();
  EXPECT_NEAR(report.est_mean, report.truth, 1e-9);
  EXPECT_NEAR(report.est_min, report.truth, 1e-6);
  EXPECT_NEAR(report.est_max, report.truth, 1e-6);
  EXPECT_LT(report.variance, 1e-12);
  std::vector<double> trace;
  append_summary(trace, report);
  EXPECT_EQ(fingerprint(trace), 0x8e5e1a6d73519312ULL);
}

TEST(EpochRestarts, AveragingTracksDriftingValuesAcrossEpochs) {
  Rng rng(10);
  const auto values = generate_values(ValueDistribution::kUniform, 200, rng);
  Simulation sim = monitoring(values, 25, 11);
  const EpochSummary first = sim.run_epoch();
  // Double the load on every node: the next epoch reports the doubled mean.
  for (NodeId i = 0; i < 200; ++i) sim.set_value(i, values[i] * 2.0);
  const EpochSummary second = sim.run_epoch();
  EXPECT_NEAR(second.truth, first.truth * 2.0, 1e-12);
  EXPECT_NEAR(second.est_mean, second.truth, 1e-9);
  std::vector<double> trace;
  append_summary(trace, first);
  append_summary(trace, second);
  EXPECT_EQ(fingerprint(trace), 0xcc8727e48c88e0c5ULL);
}

TEST(EpochRestarts, AveragingValidatesInputs) {
  EXPECT_THROW(SimulationBuilder()
                   .nodes(10)
                   .epoch_length(30)
                   .workload(WorkloadSpec::from_values(std::vector<double>(5)))
                   .build(),
               ContractViolation);
  Simulation sim = monitoring(std::vector<double>(10, 1.0), 30, 1);
  EXPECT_THROW(sim.set_value(10, 0.0), ContractViolation);
}

}  // namespace
}  // namespace epiagg
