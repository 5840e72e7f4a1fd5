// The message latency models of sim/event_engine.hpp: the one-way delay
// distributions the event engine samples for every push and reply. The
// calendar queue from the same header is tested in test_calendar_queue.cpp.
#include "sim/event_engine.hpp"

#include <gtest/gtest.h>

#include "common/contract.hpp"
#include "common/rng.hpp"

namespace epiagg {
namespace {

TEST(LatencyModels, ConstantAndBounds) {
  Rng rng(1);
  ConstantLatency zero(0.0);
  EXPECT_DOUBLE_EQ(zero.sample(rng), 0.0);
  ConstantLatency fixed(0.25);
  EXPECT_DOUBLE_EQ(fixed.sample(rng), 0.25);
  EXPECT_THROW(ConstantLatency(-1.0), ContractViolation);
}

TEST(LatencyModels, UniformWithinRange) {
  Rng rng(2);
  UniformLatency latency(0.1, 0.3);
  for (int i = 0; i < 1000; ++i) {
    const double d = latency.sample(rng);
    EXPECT_GE(d, 0.1);
    EXPECT_LT(d, 0.3);
  }
  EXPECT_THROW(UniformLatency(0.3, 0.1), ContractViolation);
}

TEST(LatencyModels, ExponentialMean) {
  Rng rng(3);
  ExponentialLatency latency(0.2);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += latency.sample(rng);
  EXPECT_NEAR(sum / kDraws, 0.2, 0.005);
  EXPECT_THROW(ExponentialLatency(0.0), ContractViolation);
}

}  // namespace
}  // namespace epiagg
