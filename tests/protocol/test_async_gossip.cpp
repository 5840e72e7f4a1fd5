// The asynchronous push–pull averaging protocol of §3.3 in its plain static
// form: `.engine(kEvent)` with no epochs, churn or extra aggregates. Each
// node wakes after GETWAITINGTIME and exchanges push/reply messages that may
// be delayed or lost. The run is checked against the paper's analytic
// oracles: the contraction rates of §3.3 (constant waits realize
// GETPAIR_SEQ, exponential waits GETPAIR_RAND) and exact mass conservation,
// plus the accounting identities of the loss model. Each bound is stated
// with the spread it allows for. The message-level failure semantics of the
// richer event configurations live in tests/sim/test_event_async.cpp.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "core/theory.hpp"

namespace epiagg {
namespace {

/// The plain static event run: complete overlay, normal(0, 1) attributes,
/// zero latency unless set, per-message loss `loss`.
Simulation static_event(std::size_t n, std::uint64_t seed,
                        WaitingTime waiting = WaitingTime::kConstant,
                        double loss = 0.0,
                        ValueDistribution values = ValueDistribution::kNormal) {
  return SimulationBuilder()
      .nodes(n)
      .engine(EngineKind::kEvent)
      .waiting(waiting)
      .failures(FailureSpec::message_loss_only(loss))
      .workload(WorkloadSpec::from_distribution(values))
      .seed(seed)
      .build();
}

/// Mean per-unit-time variance contraction factor over `runs` static runs
/// of N = 2000 nodes and 6 time units (5 factors per run).
double mean_contraction(WaitingTime waiting, int runs) {
  RunningStats factors;
  for (int run = 0; run < runs; ++run) {
    Simulation sim = static_event(2000, 100 + run, waiting);
    sim.run_time(6.0);
    const auto& samples = sim.samples();
    for (std::size_t i = 1; i < samples.size(); ++i)
      factors.add(samples[i].variance / samples[i - 1].variance);
  }
  return factors.mean();
}

TEST(EventStatic, LosslessZeroLatencyConservesMassExactly) {
  Simulation sim = static_event(500, 2);
  const std::vector<double> before = sim.approximations();
  sim.run_time(20.0);
  const std::vector<double>& after = sim.approximations();
  ASSERT_EQ(after.size(), 500u);
  // Each exchange replaces (a, b) by ((a+b)/2, (a+b)/2): the sum moves only
  // by floating-point rounding.
  EXPECT_NEAR(kahan_total(after), kahan_total(before), 1e-12 * 500);
  EXPECT_NEAR(sim.mean(), mean(before), 1e-14);
  EXPECT_EQ(sim.messages_lost(), 0u);
  EXPECT_LT(sim.variance(), 1e-9);
}

TEST(EventStatic, VarianceContractsExponentially) {
  Simulation sim = static_event(2000, 4);
  sim.run_time(10.0);
  ASSERT_EQ(sim.samples().size(), 10u);  // integer times 1..10
  EXPECT_EQ(sim.samples().front().time, 1.0);
  // Ten units at a rate <= 1/e per unit leave less than e^-10 of the start.
  EXPECT_LT(sim.samples().back().variance,
            sim.samples().front().variance * 1e-3);
}

TEST(EventStatic, ConstantWaitContractsAtTheSequentialRate) {
  // Constant-Δt autonomous nodes are the distributed realization of
  // GETPAIR_SEQ: per unit time the variance contracts by ≈ 1/(2√e) ≈ 0.303.
  // 8 runs × 5 factors; single factors spread by ~0.012, so the mean's
  // standard error is ~0.002 — the 0.025 band leaves room for the small
  // systematic offset of random phases against the synchronous sweep.
  EXPECT_NEAR(mean_contraction(WaitingTime::kConstant, 8),
              theory::rate_sequential(), 0.025);
}

TEST(EventStatic, ExponentialWaitContractsAtTheRandomRate) {
  // Exponential waits make activations a Poisson process: the GETPAIR_RAND
  // regime, contracting by ≈ 1/e ≈ 0.368 per unit time. Single factors
  // spread by ~0.025, so over 40 factors the band is ~5 standard errors.
  EXPECT_NEAR(mean_contraction(WaitingTime::kExponential, 8),
              theory::rate_random_edge(), 0.02);
}

TEST(EventStatic, PushLossConservesMassAndReplyLossLeaksIt) {
  // Loss 1: every push is lost, so no passive side ever updates and no
  // reply is ever sent — the state must not move by a single bit.
  Simulation pushes_only = static_event(500, 41, WaitingTime::kConstant, 1.0,
                                        ValueDistribution::kPeak);
  const std::vector<double> before = pushes_only.approximations();
  pushes_only.run_time(15.0);
  EXPECT_EQ(pushes_only.approximations(), before);
  EXPECT_EQ(pushes_only.messages_sent(), 500u * 15u);  // one push per wake
  EXPECT_EQ(pushes_only.messages_lost(), pushes_only.messages_sent());

  // Loss 0.3: a lost reply updates the passive side only (an asymmetric
  // update), so the mean drifts away from the peak's 1.0 — but the drift is
  // bounded (each loss halves some node's excess) and every value stays a
  // convex combination of the initial ones.
  Simulation lossy = static_event(500, 41, WaitingTime::kConstant, 0.3,
                                  ValueDistribution::kPeak);
  const double mean_before = lossy.mean();
  lossy.run_time(15.0);
  EXPECT_GT(lossy.messages_lost(), 0u);
  const double drift = std::abs(lossy.mean() - mean_before);
  EXPECT_GT(drift, 1e-3);
  EXPECT_LT(drift, 1.0);
  for (const double x : lossy.approximations()) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 500.0);
  }
}

TEST(EventStatic, MessageCountsFollowTheLossModel) {
  // Constant waits wake every node exactly once per unit time, and each wake
  // sends one push; a push that arrives is answered by one reply. So
  //   sent = 2·wakes − lost pushes,
  // which recovers the lost pushes from the counters; the remaining losses
  // are replies. Both must be lost at the configured rate.
  Simulation lossless = static_event(200, 71);
  lossless.run_time(5.0);
  EXPECT_EQ(lossless.messages_sent(), 2u * 200u * 5u);
  EXPECT_EQ(lossless.messages_lost(), 0u);

  const double p = 0.2;
  Simulation lossy = static_event(1000, 31, WaitingTime::kConstant, p);
  lossy.run_time(20.0);
  const double wakes = 1000.0 * 20.0;
  const double sent = static_cast<double>(lossy.messages_sent());
  const double lost = static_cast<double>(lossy.messages_lost());
  const double lost_pushes = 2.0 * wakes - sent;
  const double replies = wakes - lost_pushes;
  ASSERT_GT(lost_pushes, 0.0);
  ASSERT_LE(lost_pushes, lost);
  // Binomial standard errors: ~0.003 for each rate; bands are ~5 of them.
  EXPECT_NEAR(lost_pushes / wakes, p, 0.015);
  EXPECT_NEAR((lost - lost_pushes) / replies, p, 0.015);
}

TEST(EventStatic, MessageLossSlowsButStillConverges) {
  Simulation clean = static_event(1000, 31);
  Simulation noisy = static_event(1000, 31, WaitingTime::kConstant, 0.2);
  clean.run_time(8.0);
  noisy.run_time(8.0);
  EXPECT_GT(noisy.messages_lost(), 0u);
  EXPECT_GT(noisy.samples().back().variance, clean.samples().back().variance);
  EXPECT_LT(noisy.samples().back().variance,
            noisy.samples().front().variance * 0.05);
}

TEST(EventStatic, HeavyLossStillContractsSlowerThanLosslessTheory) {
  // At 40% loss the variance still contracts (the paper's graceful
  // degradation), but strictly slower than the lossless 1/(2√e).
  Simulation sim = static_event(1000, 6, WaitingTime::kConstant, 0.4);
  sim.run_time(20.0);
  const auto& samples = sim.samples();
  EXPECT_LT(samples.back().variance, samples.front().variance * 0.01);
  RunningStats factors;
  for (std::size_t i = 1; i < samples.size(); ++i)
    factors.add(samples[i].variance / samples[i - 1].variance);
  EXPECT_GT(factors.mean(), theory::rate_sequential());
}

TEST(EventStatic, LatencyDelaysButPreservesConvergence) {
  Simulation sim = SimulationBuilder()
                       .nodes(1000)
                       .engine(EngineKind::kEvent)
                       .latency(std::make_shared<ConstantLatency>(0.1))
                       .workload(WorkloadSpec::from_distribution(
                           ValueDistribution::kNormal))
                       .seed(51)
                       .build();
  const double mean_before = sim.mean();
  sim.run_time(12.0);
  EXPECT_LT(sim.samples().back().variance,
            sim.samples().front().variance * 1e-2);
  // Overlapping exchanges drift the mean only to second order.
  EXPECT_NEAR(sim.mean(), mean_before, 0.05);
}

TEST(EventStatic, LatencyPlusLossCombined) {
  // The least idealized static regime: exponential waits, exponential
  // latencies, 10% loss. Convergence is still exponential in time.
  Simulation sim = SimulationBuilder()
                       .nodes(800)
                       .engine(EngineKind::kEvent)
                       .waiting(WaitingTime::kExponential)
                       .latency(std::make_shared<ExponentialLatency>(0.1))
                       .failures(FailureSpec::message_loss_only(0.1))
                       .seed(9)
                       .build();
  sim.run_time(15.0);
  EXPECT_LT(sim.samples().back().variance,
            sim.samples().front().variance * 1e-3);
}

TEST(EventStatic, SparseTopologyStillConverges) {
  Simulation sim = SimulationBuilder()
                       .nodes(500)
                       .engine(EngineKind::kEvent)
                       .topology(TopologySpec::random_out_view(20))
                       .workload(WorkloadSpec::from_distribution(
                           ValueDistribution::kNormal))
                       .seed(62)
                       .build();
  sim.run_time(10.0);
  EXPECT_EQ(sim.topology()->size(), 500u);
  EXPECT_LT(sim.samples().back().variance,
            sim.samples().front().variance * 1e-2);
}

TEST(EventStatic, DegenerateInputFailsAtBuildTime) {
  EXPECT_THROW(SimulationBuilder().nodes(1).engine(EngineKind::kEvent).build(),
               ContractViolation);
  EXPECT_THROW(SimulationBuilder()
                   .engine(EngineKind::kEvent)
                   .workload(WorkloadSpec::from_values({1.0}))
                   .build(),
               ContractViolation);
  for (const double loss : {-0.1, 1.5}) {
    EXPECT_THROW(SimulationBuilder()
                     .nodes(10)
                     .engine(EngineKind::kEvent)
                     .failures(FailureSpec::message_loss_only(loss))
                     .build(),
                 ContractViolation);
  }
}

}  // namespace
}  // namespace epiagg
