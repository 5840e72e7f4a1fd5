// The typed-event machinery behind the message-based impls: the
// SimEventEngine scheduling contract (time order, FIFO among equal times,
// inclusive run_until boundaries, rejection of past scheduling, the
// processed-event count), the payload arenas (sim/payload_arena.hpp) that
// keep in-flight messages heap-free in the steady state, and the kControl
// escape hatch. Pins the recycling contracts a use-after-release or
// stale-index bug would break — these tests run under ASan+UBSan in CI,
// where such a bug turns into a hard failure instead of silent corruption.
#include "sim/sim_events.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "../support/trace_fingerprint.hpp"
#include "sim/payload_arena.hpp"
#include "sim/simulation.hpp"

namespace epiagg {
namespace {

/// A kWake record whose node field carries `tag`, so a handler can tell
/// records apart by the order it sees them.
SimEventRecord tagged(NodeId tag) {
  SimEventRecord record;
  record.kind = EvKind::kWake;
  record.a = tag;
  return record;
}

/// Drains `engine` through `t_end`, returning the tags in pop order.
std::vector<NodeId> drain(SimEventEngine& engine, SimTime t_end) {
  std::vector<NodeId> order;
  engine.run_until(t_end,
                   [&](SimEventRecord& event) { order.push_back(event.a); });
  return order;
}

TEST(SimEventEngine, StartsEmptyAtTimeZero) {
  SimEventEngine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.events_processed(), 0u);
}

TEST(SimEventEngine, PopsInTimeOrder) {
  SimEventEngine engine;
  engine.schedule_at(3.0, tagged(3));
  engine.schedule_at(1.0, tagged(1));
  engine.schedule_at(2.0, tagged(2));
  EXPECT_EQ(drain(engine, 10.0), (std::vector<NodeId>{1, 2, 3}));
}

TEST(SimEventEngine, EqualTimesAreFifo) {
  // Determinism rests on this: same-timestamp events fire in scheduling
  // order, interleaved or not with other timestamps.
  SimEventEngine engine;
  for (NodeId i = 0; i < 10; ++i) {
    engine.schedule_at(1.0, tagged(i));
    engine.schedule_at(0.5, tagged(100 + i));
  }
  const std::vector<NodeId> order = drain(engine, 1.0);
  ASSERT_EQ(order.size(), 20u);
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], 100 + i);
    EXPECT_EQ(order[10 + i], i);
  }
}

TEST(SimEventEngine, RunUntilBoundaryIsInclusive) {
  SimEventEngine engine;
  engine.schedule_at(1.0, tagged(1));
  engine.schedule_at(2.0, tagged(2));
  engine.schedule_at(3.0, tagged(3));
  EXPECT_EQ(drain(engine, 2.0), (std::vector<NodeId>{1, 2}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(drain(engine, 10.0), (std::vector<NodeId>{3}));
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);  // the clock advances to the horizon
}

TEST(SimEventEngine, ScheduleAfterChainsFromTheCurrentTime) {
  // A handler rescheduling itself is how every wake-up loop runs: one
  // record per unit time, t = 0..100 inclusive.
  SimEventEngine engine;
  engine.schedule_at(0.0, tagged(0));
  std::vector<SimTime> fired;
  engine.run_until(100.0, [&](SimEventRecord& event) {
    fired.push_back(engine.now());
    engine.schedule_after(1.0, event);
  });
  ASSERT_EQ(fired.size(), 101u);
  EXPECT_DOUBLE_EQ(fired.back(), 100.0);
  EXPECT_EQ(engine.pending(), 1u);  // t = 101 waits for the next run
}

TEST(SimEventEngine, RejectsPastScheduling) {
  SimEventEngine engine;
  engine.schedule_at(5.0, tagged(0));
  drain(engine, 5.0);
  EXPECT_THROW(engine.schedule_at(1.0, tagged(1)), ContractViolation);
  EXPECT_THROW(engine.schedule_after(-1.0, tagged(1)), ContractViolation);
  EXPECT_THROW(engine.schedule_control(1.0, [] {}), ContractViolation);
  EXPECT_THROW(engine.schedule_control(6.0, nullptr), ContractViolation);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(SimEventEngine, CountsProcessedEvents) {
  SimEventEngine engine;
  for (int i = 0; i < 7; ++i)
    engine.schedule_at(static_cast<double>(i), tagged(0));
  engine.schedule_control(3.5, [] {});
  drain(engine, 4.0);
  EXPECT_EQ(engine.events_processed(), 6u);  // t = 0..4 plus the control
  drain(engine, 100.0);
  EXPECT_EQ(engine.events_processed(), 8u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(SlabArena, RecyclesRowsThroughTheFreeList) {
  SlabArena<double> arena(4);
  const std::uint32_t a = arena.acquire();
  const std::uint32_t b = arena.acquire();
  EXPECT_EQ(arena.rows(), 2u);
  arena.release(b);
  arena.release(a);
  // LIFO reuse: the most recently released row comes back first, and the
  // high-water mark does not move.
  EXPECT_EQ(arena.acquire(), a);
  EXPECT_EQ(arena.acquire(), b);
  EXPECT_EQ(arena.rows(), 2u);
  EXPECT_EQ(arena.free_count(), 0u);
}

TEST(SlabArena, RowAddressesAreStableAcrossBlockGrowth) {
  // A delivery reads the push payload while staging its reply in a freshly
  // acquired row; if growth reallocated existing rows, that read would be a
  // use-after-free. Force several block allocations and verify the first
  // row never moves.
  SlabArena<double> arena(3);
  const std::uint32_t first = arena.acquire();
  double* const stable = arena.at(first).data();
  arena.at(first)[0] = 1.5;
  arena.at(first)[1] = 2.5;
  arena.at(first)[2] = 3.5;
  for (int i = 0; i < 5000; ++i) arena.acquire();  // > 4 blocks of 1024
  EXPECT_EQ(arena.at(first).data(), stable);
  EXPECT_EQ(arena.at(first)[0], 1.5);
  EXPECT_EQ(arena.at(first)[1], 2.5);
  EXPECT_EQ(arena.at(first)[2], 3.5);
}

TEST(ObjectArena, ReleasedObjectsKeepTheirBuffers) {
  ObjectArena<std::vector<double>> arena;
  const std::uint32_t slot = arena.acquire();
  arena.at(slot).assign(256, 1.0);
  const double* const buffer = arena.at(slot).data();
  arena.release(slot);
  // Re-acquiring the slot hands back the SAME object, capacity intact:
  // copy-assigning a same-or-smaller payload into it allocates nothing.
  ASSERT_EQ(arena.acquire(), slot);
  EXPECT_GE(arena.at(slot).capacity(), 256u);
  arena.at(slot).assign(128, 2.0);
  EXPECT_EQ(arena.at(slot).data(), buffer);
  EXPECT_EQ(arena.size(), 1u);
}

TEST(SimEventEngine, ControlEventsInterleaveWithTypedRecords) {
  // The kControl escape hatch schedules closures THROUGH the typed queue,
  // so controls and records execute in one global (time, sequence) order —
  // and control slots are free-listed, so repeated controls do not grow
  // the stash.
  SimEventEngine engine;
  std::vector<int> order;
  SimEventRecord record;
  record.kind = EvKind::kWake;
  record.a = 0;
  engine.schedule_at(1.0, record);       // seq 0 -> tag 10
  engine.schedule_control(1.0, [&] { order.push_back(20); });  // seq 1
  engine.schedule_at(0.5, record);       // seq 2, earlier time -> tag 30
  engine.schedule_control(2.0, [&] { order.push_back(40); });  // seq 3
  int wakes = 0;
  engine.run_until(3.0, [&](SimEventRecord& event) {
    ASSERT_EQ(event.kind, EvKind::kWake);
    order.push_back(wakes == 0 ? 30 : 10);  // 0.5 pops before 1.0
    ++wakes;
  });
  EXPECT_EQ(order, (std::vector<int>{30, 10, 20, 40}));
  EXPECT_EQ(engine.events_processed(), 4u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(SimEventEngine, StalePopsStillRecycleTheirArenaSlots) {
  // The impls release a record's payload slot when the record POPS — before
  // the generation/epoch staleness checks decide whether to deliver it. A
  // leak here is invisible to correctness tests (stale messages are simply
  // dropped) but would grow the arena without bound under churn; pin the
  // free-list accounting instead.
  SimEventEngine engine;
  SlabArena<double> payloads(2);
  for (int i = 0; i < 100; ++i) {
    SimEventRecord push;
    push.kind = EvKind::kPush;
    push.a = 0;
    push.gen_a = static_cast<std::uint32_t>(i % 2);  // half are "stale"
    push.slab = payloads.acquire();
    engine.schedule_at(0.25 * i, push);
  }
  std::size_t delivered = 0;
  engine.run_until(100.0, [&](SimEventRecord& event) {
    // Release FIRST, deliver after — mirroring the impls' handle() shape.
    payloads.release(event.slab);
    if (event.gen_a != 0) return;  // crashed-in-flight addressee
    ++delivered;
  });
  EXPECT_EQ(delivered, 50u);
  EXPECT_EQ(payloads.free_count(), payloads.rows());
}

TEST(SimEvents, OrphanedInFlightTrafficRecyclesDeterministically) {
  // End-to-end generation-recycling regression: churn + latency keep
  // payload-bearing messages in flight across crashes, so slots recycle
  // through the stale-drop path as well as the delivery path. Two identical
  // runs must agree bit-for-bit; ASan in CI turns any use-after-recycle
  // into a failure.
  auto run = [](std::uint64_t seed) {
    Simulation sim =
        SimulationBuilder()
            .nodes(300)
            .engine(EngineKind::kEvent)
            .aggregates({AggregatorSpec::average("avg"),
                         AggregatorSpec::maximum("max"),
                         AggregatorSpec::minimum("min")})  // 3 planes: slab
                                                           // payloads
            .epoch_length(20)
            .failures(FailureSpec::with_churn(
                std::make_shared<ConstantFluctuation>(4)))
            .latency(std::make_shared<ConstantLatency>(0.4))
            .workload(
                WorkloadSpec::from_distribution(ValueDistribution::kNormal))
            .seed(seed)
            .build();
    sim.run_time(45.0);
    return std::pair{sim.mean(), sim.messages_sent()};
  };
  const auto golden = run(97);
  EXPECT_GT(golden.second, 0u);
  // Pinned: the same run declared through the retired slot shim.
  EXPECT_EQ(fingerprint({golden.first, static_cast<double>(golden.second)}),
            0xf1e9bb5d2b3e0fc9ULL);
  EXPECT_EQ(run(97), golden);
  EXPECT_NE(run(96).second, golden.second);
}

}  // namespace
}  // namespace epiagg
