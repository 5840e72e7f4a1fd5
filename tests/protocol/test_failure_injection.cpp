// Failure-injection tests for §4 size estimation: the protocol's documented
// degradation modes under crashes and leaderless epochs must be present,
// bounded, and in the predicted direction — not just "still runs". (The
// event engine's message-loss modes are pinned in
// tests/protocol/test_async_gossip.cpp.)
//
// Each run is pinned to a fingerprint of its epoch reports, recorded from
// the same configuration before the dedicated size-estimation network class
// was folded into the builder.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../support/trace_fingerprint.hpp"
#include "sim/simulation.hpp"

namespace epiagg {
namespace {

Simulation counting(std::size_t n, std::size_t epoch_length, double leaders,
                    std::shared_ptr<ChurnSchedule> churn, std::uint64_t seed) {
  return SimulationBuilder()
      .nodes(n)
      .protocol(ProtocolVariant::kSizeEstimation)
      .epoch_length(epoch_length)
      .expected_leaders(leaders)
      .failures(FailureSpec::with_churn(std::move(churn)))
      .seed(seed)
      .build();
}

TEST(FailureInjection, CrashBurstMidEpochBiasesOneEpochOnly) {
  // A 20% crash burst in the middle of epoch 3 removes counting mass at
  // random. Epoch 3's report may be off, but epoch 4 restarts from the
  // surviving population and must be accurate again — the self-stabilizing
  // property of the restart mechanism.
  Simulation sim = counting(2000, 30, 6.0,
                            std::make_shared<CrashBurst>(3 * 30 + 15, 400), 1);
  sim.run_cycles(6 * 30);
  const auto& reports = sim.epochs();
  ASSERT_EQ(reports.size(), 6u);
  // Post-burst epochs estimate the shrunken population accurately.
  for (std::size_t e = 4; e < 6; ++e) {
    if (reports[e].instances == 0 || reports[e].reporting == 0) continue;
    EXPECT_NEAR(reports[e].est_mean, 1600.0, 1600.0 * 0.03) << "epoch " << e;
  }
  EXPECT_EQ(epochs_fingerprint(reports), 0x37061abd7420fc2eULL);
}

TEST(FailureInjection, CrashesNeverStallTheProtocol) {
  // Extreme fluctuation (20% of the network swapped per cycle) must not
  // break any invariant or wedge the simulation.
  Simulation sim =
      counting(500, 20, 4.0, std::make_shared<ConstantFluctuation>(100), 2);
  sim.run_cycles(100);
  EXPECT_EQ(sim.population_size(), 500u);
  EXPECT_EQ(sim.epochs().size(), 5u);
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0x525370697c359102ULL);
}

TEST(FailureInjection, MassLossBiasesCountingUpward) {
  // Crashes remove instance mass; since surviving mass can only shrink, the
  // per-instance estimate 1/x̄ is biased UP relative to the surviving
  // population far more often than down. Verify the direction statistically.
  class CrashOnly final : public ChurnSchedule {
  public:
    ChurnAction at_cycle(std::size_t, std::size_t size) override {
      return size > 600 ? ChurnAction{0, 5} : ChurnAction{};
    }
  };
  int above = 0, total = 0;
  std::vector<double> trace;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Simulation sim =
        counting(1000, 30, 4.0, std::make_shared<CrashOnly>(), 100 + seed);
    sim.run_cycles(30);
    append_epochs(trace, sim.epochs());
    const EpochSummary& report = sim.epochs().front();
    if (report.instances == 0 || report.reporting == 0) continue;
    ++total;
    // Compare against the END population (what survived).
    if (report.est_mean > static_cast<double>(report.population_end)) ++above;
  }
  ASSERT_GE(total, 8);
  EXPECT_GE(above, total - 1);
  EXPECT_EQ(fingerprint(trace), 0xdc871fe797d74931ULL);
}

TEST(FailureInjection, IsolatedEpochWithoutLeadersRecovers) {
  // Force expected_leaders so low that leaderless epochs happen; the network
  // must keep running and produce estimates in the epochs that do have one.
  Simulation sim = counting(300, 25, 0.7, std::make_shared<NoChurn>(), 7);
  sim.run_cycles(25 * 20);  // P(no leader) ≈ e^-0.7 ≈ 0.5 per epoch
  std::size_t with = 0, without = 0;
  for (const EpochSummary& report : sim.epochs()) {
    if (report.instances == 0) {
      ++without;
      EXPECT_EQ(report.reporting, 0u);
    } else {
      ++with;
      if (report.reporting > 0) {
        EXPECT_NEAR(report.est_mean, 300.0, 3.0);
      }
    }
  }
  EXPECT_GT(with, 0u);
  EXPECT_GT(without, 0u);  // the failure mode actually occurred
  EXPECT_EQ(epochs_fingerprint(sim.epochs()), 0xd92b2070b9fd650bULL);
}

}  // namespace
}  // namespace epiagg
