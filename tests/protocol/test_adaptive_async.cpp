// The fully asynchronous adaptive protocol of paper §4 — per-node epoch
// clocks with bounded drift, epidemic epoch adoption from message tags, and
// joiners that wait for the epoch their contact announces — driven through
// `.engine(EngineKind::kEvent).adaptive_epochs(drift)`.
//
// Each run is pinned to a fingerprint of its per-node epoch completions,
// recorded from the same configuration before the dedicated adaptive
// network class was folded into the builder.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "../support/trace_fingerprint.hpp"
#include "common/stats.hpp"
#include "sim/simulation.hpp"
#include "workload/values.hpp"

namespace epiagg {
namespace {

std::vector<double> uniforms(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return generate_values(ValueDistribution::kUniform, n, rng);
}

Simulation adaptive(std::vector<double> values, std::uint64_t seed,
                    std::size_t epoch_length = 30, double drift = 0.0,
                    double loss = 0.0) {
  return SimulationBuilder()
      .nodes(values.size())
      .engine(EngineKind::kEvent)
      .adaptive_epochs(drift)
      .epoch_length(epoch_length)
      .failures(FailureSpec::message_loss_only(loss))
      .workload(WorkloadSpec::from_values(std::move(values)))
      .seed(seed)
      .build();
}

/// Node estimates reported for `epoch`; empty if no node completed it.
std::optional<RunningStats> epoch_summary(const Simulation& sim,
                                          EpochId epoch) {
  RunningStats stats;
  for (const AdaptiveEpochSample& sample : sim.adaptive_samples())
    if (sample.epoch == epoch) stats.add(sample.approximation);
  if (stats.count() == 0) return std::nullopt;
  return stats;
}

std::uint64_t run_fingerprint(const Simulation& sim) {
  std::vector<double> trace;
  append_adaptive(trace, sim.adaptive_samples());
  trace.push_back(static_cast<double>(sim.frontier_epoch()));
  trace.push_back(static_cast<double>(sim.population_size()));
  return fingerprint(trace);
}

TEST(AdaptiveAsync, EpochsCompleteAndConverge) {
  const auto values = uniforms(500, 1);
  const double truth = mean(values);
  Simulation sim = adaptive(values, 2);
  sim.run_time(95.0);  // ~3 epochs of 30 cycles
  for (EpochId epoch = 0; epoch < 3; ++epoch) {
    const auto summary = epoch_summary(sim, epoch);
    ASSERT_TRUE(summary.has_value()) << "epoch " << epoch;
    EXPECT_EQ(summary->count(), 500u);
    EXPECT_NEAR(summary->mean(), truth, 1e-4);
    EXPECT_NEAR(summary->min(), truth, 1e-3);
    EXPECT_NEAR(summary->max(), truth, 1e-3);
  }
  EXPECT_EQ(run_fingerprint(sim), 0x7876064be43587e3ULL);
}

TEST(AdaptiveAsync, AdaptsToAttributeDrift) {
  Simulation sim = adaptive(uniforms(300, 3), 4, 25);
  sim.run_time(26.0);  // epoch 0 completed
  for (NodeId i = 0; i < 300; ++i) sim.set_value(i, 5.0);
  sim.run_time(80.0);  // epochs 1-2 run on the new snapshot
  const auto late = epoch_summary(sim, 2);
  ASSERT_TRUE(late.has_value());
  EXPECT_NEAR(late->mean(), 5.0, 1e-4);
  EXPECT_EQ(run_fingerprint(sim), 0xf42890080adac492ULL);
}

TEST(AdaptiveAsync, ClockDriftIsAbsorbedByEpidemicAdoption) {
  // With 1% clock drift (far beyond real quartz drift), fast nodes enter new
  // epochs early and the epidemic adoption drags everyone along within one
  // cycle; epochs still complete with (nearly) all nodes reporting near the
  // truth.
  const auto values = uniforms(400, 5);
  const double truth = mean(values);
  Simulation sim = adaptive(values, 6, 30, 0.01);
  sim.run_time(100.0);
  const auto summary = epoch_summary(sim, 1);
  ASSERT_TRUE(summary.has_value());
  // Adoption restarts can interrupt an occasional laggard's epoch, so allow
  // a small shortfall — but the bulk must report, and accurately.
  EXPECT_GT(summary->count(), 350u);
  EXPECT_NEAR(summary->mean(), truth, 0.02);
  EXPECT_EQ(run_fingerprint(sim), 0xde33a3312d0daa62ULL);
}

TEST(AdaptiveAsync, FrontierAdvances) {
  Simulation sim = adaptive(uniforms(100, 7), 8, 10);
  EXPECT_EQ(sim.frontier_epoch(), 0u);
  sim.run_time(35.0);
  EXPECT_GE(sim.frontier_epoch(), 3u);
  EXPECT_EQ(run_fingerprint(sim), 0x605db78a1a81246dULL);
}

TEST(AdaptiveAsync, JoinerWaitsForNextEpoch) {
  const auto values = uniforms(200, 9);
  Simulation sim = adaptive(values, 10);
  sim.run_time(5.0);  // mid-epoch 0
  sim.join(100.0);    // an outlier attribute
  EXPECT_EQ(sim.population_size(), 201u);
  sim.run_time(29.0);  // still inside epoch 0 (which ends ~cycle 30)
  // Epoch 0 summaries must NOT include the rookie's outlier.
  sim.run_time(31.5);
  const auto epoch0 = epoch_summary(sim, 0);
  ASSERT_TRUE(epoch0.has_value());
  EXPECT_LT(epoch0->max(), 2.0);
  // By epoch 2 the rookie participates and shifts the average up by ~0.5.
  sim.run_time(95.0);
  const auto epoch2 = epoch_summary(sim, 2);
  ASSERT_TRUE(epoch2.has_value());
  const double expected = (mean(values) * 200.0 + 100.0) / 201.0;
  EXPECT_NEAR(epoch2->mean(), expected, 0.02);
  EXPECT_EQ(run_fingerprint(sim), 0x75f693e4f608aef2ULL);
}

TEST(AdaptiveAsync, MessageLossToleratedWithinEpochs) {
  const auto values = uniforms(400, 11);
  Simulation sim = adaptive(values, 12, 30, 0.0, 0.15);
  sim.run_time(95.0);
  const auto summary = epoch_summary(sim, 1);
  ASSERT_TRUE(summary.has_value());
  // Loss slows convergence and adds drift, but epoch results stay close.
  EXPECT_NEAR(summary->mean(), mean(values), 0.05);
  EXPECT_LT(summary->max() - summary->min(), 0.2);
  EXPECT_EQ(run_fingerprint(sim), 0xbc847589f7a1bda7ULL);
}

TEST(AdaptiveAsync, ValidatesConfig) {
  EXPECT_THROW(adaptive({1.0}, 1), ContractViolation);  // one node only
  EXPECT_THROW(SimulationBuilder()
                   .nodes(3)
                   .engine(EngineKind::kEvent)
                   .adaptive_epochs()
                   .workload(WorkloadSpec::from_values({1.0}))
                   .build(),
               ContractViolation);  // size disagrees with the values
  EXPECT_THROW(adaptive({1.0, 2.0}, 1, 30, 1.5), ContractViolation);
  Simulation sim = adaptive({1.0, 2.0}, 1);
  EXPECT_THROW(sim.set_value(5, 0.0), ContractViolation);  // no such node
}

TEST(AdaptiveAsync, EpochSummaryEmptyForFutureEpochs) {
  Simulation sim = adaptive(uniforms(50, 13), 14, 10);
  sim.run_time(5.0);
  EXPECT_FALSE(epoch_summary(sim, 0).has_value());  // epoch 0 not finished
  EXPECT_FALSE(epoch_summary(sim, 99).has_value());
  EXPECT_EQ(run_fingerprint(sim), 0x8727c9b9602c30f4ULL);
}

}  // namespace
}  // namespace epiagg
