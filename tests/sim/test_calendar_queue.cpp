// CalendarQueue invariants: exact (time, sequence) pop order (the event
// engine's determinism contract), FIFO within equal timestamps, overflow-
// tier promotion on year rotation, lane resize, empty-drain reuse, a slot
// pool that stays flat across rotations, payload lifetimes through pooled
// slots, and the deterministic rebuild / peak-size counters.
#include "sim/event_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/sim_events.hpp"

namespace epiagg {
namespace {

using Queue = CalendarQueue<int>;

TEST(CalendarQueue, PopsInTimeThenSequenceOrder) {
  Queue queue;
  // Deliberately scrambled times, including duplicates.
  const std::vector<double> times = {5.0, 1.0, 3.0, 1.0, 9.0, 3.0, 0.5, 5.0};
  for (std::size_t i = 0; i < times.size(); ++i)
    queue.push(times[i], i, static_cast<int>(i));

  std::vector<std::pair<double, std::uint64_t>> popped;
  while (!queue.empty()) {
    const auto entry = queue.pop_min();
    popped.emplace_back(entry.time, entry.sequence);
  }
  ASSERT_EQ(popped.size(), times.size());
  for (std::size_t i = 1; i < popped.size(); ++i) {
    const bool ordered = popped[i - 1].first < popped[i].first ||
                         (popped[i - 1].first == popped[i].first &&
                          popped[i - 1].second < popped[i].second);
    EXPECT_TRUE(ordered) << "entries " << i - 1 << " and " << i;
  }
}

TEST(CalendarQueue, EqualTimestampsAreFifo) {
  Queue queue;
  // A burst far larger than one lane's expected occupancy, all at one
  // timestamp: pop order must be exactly the scheduling order.
  constexpr int kBurst = 5000;
  for (int i = 0; i < kBurst; ++i)
    queue.push(7.25, static_cast<std::uint64_t>(i), i);
  for (int i = 0; i < kBurst; ++i) {
    const auto entry = queue.pop_min();
    EXPECT_EQ(entry.time, 7.25);
    EXPECT_EQ(entry.payload, i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, MatchesReferenceOrderUnderRandomWorkload) {
  // Differential test against a sort-based reference: interleaved pushes
  // and pops with clustered, duplicated and far-future times — the mix the
  // simulation actually generates (wake-ups ~1 Δt out, deliveries at small
  // latencies, the integer tick, far-future adaptive activations).
  Rng rng(2004);
  Queue queue;
  std::set<std::pair<double, std::uint64_t>> reference;
  std::uint64_t sequence = 0;
  double now = 0.0;

  for (int step = 0; step < 20000; ++step) {
    const bool push = queue.empty() || rng.uniform() < 0.55;
    if (push) {
      double delay = 0.0;
      const double kind = rng.uniform();
      if (kind < 0.2) {
        delay = 0.0;  // same-timestamp burst
      } else if (kind < 0.9) {
        delay = rng.uniform() * 2.0;  // the typical wake/delivery window
      } else {
        delay = 50.0 + rng.uniform() * 1000.0;  // far future: overflow tier
      }
      queue.push(now + delay, sequence, static_cast<int>(sequence));
      reference.emplace(now + delay, sequence);
      ++sequence;
    } else {
      const auto entry = queue.pop_min();
      ASSERT_EQ(entry.time, reference.begin()->first);
      ASSERT_EQ(entry.sequence, reference.begin()->second);
      now = entry.time;
      reference.erase(reference.begin());
    }
  }
  while (!queue.empty()) {
    const auto entry = queue.pop_min();
    ASSERT_EQ(entry.time, reference.begin()->first);
    ASSERT_EQ(entry.sequence, reference.begin()->second);
    reference.erase(reference.begin());
  }
  EXPECT_TRUE(reference.empty());
}

TEST(CalendarQueue, OverflowTierPromotesOnRotation) {
  Queue queue;
  // Near events first: the growth rebuild they trigger anchors a short year
  // around their span. Far events pushed afterwards fall past its end (even
  // with the year-slack factor) and must park in the overflow tier.
  for (int i = 0; i < 100; ++i)
    queue.push(0.01 * i, static_cast<std::uint64_t>(i), i);
  const std::uint64_t far_base = 100;
  for (int i = 0; i < 8; ++i)
    queue.push(1e6 + i, far_base + static_cast<std::uint64_t>(i), 1000 + i);
  EXPECT_GT(queue.overflow_count(), 0u);

  // Drain the near year; the rotation must promote the far tier and keep
  // exact order.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(queue.pop_min().payload, i);
  for (int i = 0; i < 8; ++i) {
    const auto entry = queue.pop_min();
    EXPECT_EQ(entry.payload, 1000 + i);
    EXPECT_EQ(entry.time, 1e6 + i);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.overflow_count(), 0u);
}

TEST(CalendarQueue, LaneCountTracksPendingCount) {
  Queue queue;
  const std::size_t initial_lanes = queue.bucket_count();
  for (int i = 0; i < 4096; ++i)
    queue.push(0.001 * i, static_cast<std::uint64_t>(i), i);
  EXPECT_GT(queue.bucket_count(), initial_lanes);

  // Draining far below the lane count must shrink the calendar back.
  for (int i = 0; i < 4090; ++i) (void)queue.pop_min();
  EXPECT_LT(queue.bucket_count(), 4096u);
  while (!queue.empty()) (void)queue.pop_min();
  EXPECT_EQ(queue.size(), 0u);
}

TEST(CalendarQueue, EmptyDrainAndReuse) {
  Queue queue;
  EXPECT_TRUE(queue.empty());
  queue.push(1.0, 0, 42);
  EXPECT_EQ(queue.min_time(), 1.0);
  EXPECT_EQ(queue.pop_min().payload, 42);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);

  // Reuse after a full drain, including a same-time push behind the cursor.
  queue.push(2.0, 1, 1);
  queue.push(2.0, 2, 2);
  EXPECT_EQ(queue.pop_min().payload, 1);
  queue.push(2.0, 3, 3);  // scheduled "now", after its lane drained once
  EXPECT_EQ(queue.pop_min().payload, 2);
  EXPECT_EQ(queue.pop_min().payload, 3);
  EXPECT_TRUE(queue.empty());
}

std::size_t round_up_to_block(std::size_t n) {
  constexpr std::size_t kBlock = Queue::kBlockEntries;
  return (n + kBlock - 1) / kBlock * kBlock;
}

TEST(CalendarQueue, SlotPoolStaysFlatAcrossYearRotations) {
  // The classic hold model at a fixed pending count: pop the minimum, push
  // it back a U(0,1) delay later. The pool must stop at the pending count
  // (rounded up to one block) and never grow again, however many years the
  // calendar rotates through.
  constexpr std::size_t kPending = 6000;
  Rng rng(13);
  Queue queue;
  std::uint64_t sequence = 0;
  for (std::size_t i = 0; i < kPending; ++i)
    queue.push(rng.uniform(), sequence++, 0);
  const std::size_t filled = queue.capacity();
  EXPECT_GE(filled, kPending);
  EXPECT_LE(filled, round_up_to_block(kPending));

  const std::uint64_t start_rebuilds = queue.rebuilds();
  std::uint64_t seen_rebuilds = start_rebuilds;
  for (std::size_t step = 0; step < 400 * kPending; ++step) {
    const auto entry = queue.pop_min();
    queue.push(entry.time + rng.uniform(), sequence++, entry.payload);
    if (queue.rebuilds() != seen_rebuilds) {
      seen_rebuilds = queue.rebuilds();
      ASSERT_EQ(queue.capacity(), filled) << "pool grew at rebuild "
                                          << seen_rebuilds;
    }
    if (seen_rebuilds - start_rebuilds >= 25) break;
  }
  EXPECT_GE(seen_rebuilds - start_rebuilds, 20u);
  EXPECT_EQ(queue.size(), kPending);
  EXPECT_EQ(queue.capacity(), filled);
}

TEST(CalendarQueue, ShrinkThenRegrowReusesSlots) {
  constexpr std::size_t kPending = 20000;
  Queue queue;
  std::uint64_t sequence = 0;
  for (std::size_t i = 0; i < kPending; ++i)
    queue.push(0.001 * static_cast<double>(i), sequence++, 0);
  const std::size_t filled = queue.capacity();
  const std::size_t wide = queue.bucket_count();

  // Drain to a handful: the lane count shrinks, the pool keeps its slots.
  double now = 0.0;
  while (queue.size() > 5) now = queue.pop_min().time;
  EXPECT_LT(queue.bucket_count(), wide);
  EXPECT_EQ(queue.capacity(), filled);

  // Regrow to the same pending count: every slot comes off the free list.
  for (std::size_t i = queue.size(); i < kPending; ++i)
    queue.push(now + 0.001 * static_cast<double>(i), sequence++, 0);
  EXPECT_EQ(queue.size(), kPending);
  EXPECT_EQ(queue.capacity(), filled);
}

TEST(CalendarQueue, PooledSlotsReleasePayloads) {
  // A non-trivial payload: CalendarQueue is a template, and a payload that
  // owns a resource must be released when its entry pops. The test keeps
  // the original of every payload, keyed by sequence: while pending, the
  // queue holds exactly one more reference; once popped, the queue holds
  // none, and a recycled slot never hands back an old payload.
  using SharedQueue = CalendarQueue<std::shared_ptr<int>>;
  Rng rng(77);
  std::vector<std::shared_ptr<int>> originals;
  std::uint64_t popped = 0;
  std::size_t saw_overflow = 0;
  {
    SharedQueue queue;
    double now = 0.0;
    const auto push = [&](double time) {
      const auto sequence = static_cast<std::uint64_t>(originals.size());
      originals.push_back(std::make_shared<int>(static_cast<int>(sequence)));
      queue.push(time, sequence, originals.back());
      EXPECT_EQ(originals.back().use_count(), 2);
    };
    const auto check_popped = [&](SharedQueue::Entry& entry) {
      ASSERT_LT(entry.sequence, originals.size());
      ASSERT_EQ(entry.payload, originals[entry.sequence])
          << "slot handed back the wrong payload";
      EXPECT_EQ(*entry.payload, static_cast<int>(entry.sequence));
      EXPECT_GE(entry.time, now);
      now = entry.time;
      entry.payload.reset();
      EXPECT_EQ(originals[entry.sequence].use_count(), 1);
      ++popped;
    };

    SharedQueue::Entry out{};
    for (int round = 0; round < 6; ++round) {
      // Grow (lane-count rebuilds), then park far-future entries past the
      // year in the overflow tier, for later rotations to promote.
      for (int i = 0; i < 2700; ++i)
        push(rng.uniform() < 0.1 ? now : now + rng.uniform() * 2.0);
      for (int i = 0; i < 300; ++i) push(now + 100.0 + rng.uniform() * 1000.0);
      saw_overflow = std::max(saw_overflow, queue.overflow_count());
      // Hold: alternate both pop forms with pushes.
      for (int i = 0; i < 6000; ++i) {
        if (rng.uniform() < 0.5) {
          SharedQueue::Entry entry = queue.pop_min();
          check_popped(entry);
        } else if (queue.pop_min_if(now + 0.5, out)) {
          check_popped(out);
        } else {
          EXPECT_EQ(out.payload, nullptr) << "a refused pop moved a payload";
        }
        push(now + rng.uniform() * 3.0);
      }
      // Shrink to a handful (lane-count rebuilds down).
      while (queue.size() > 3) {
        SharedQueue::Entry entry = queue.pop_min();
        check_popped(entry);
      }
    }
    EXPECT_GT(saw_overflow, 0u);
    EXPECT_GT(queue.rebuilds(), 20u);

    // Full drain.
    while (queue.pop_min_if(std::numeric_limits<double>::infinity(), out))
      check_popped(out);
    EXPECT_TRUE(queue.empty());

    // Pending payloads are released when the queue itself goes away.
    for (int i = 0; i < 100; ++i) push(now + 1.0 + i);
  }
  EXPECT_EQ(popped + 100, originals.size());
  for (const auto& original : originals) EXPECT_EQ(original.use_count(), 1);
}

/// One fixed schedule of pushes and drains (`drain(t)` pops every entry at
/// or before t): a near burst (two grow rebuilds), a half drain, a spread
/// wave with far-future stragglers, a full drain (two shrink rebuilds), and
/// a far batch past the year end (one rotation).
template <typename Push, typename Drain>
void run_counter_script(Push&& push, Drain&& drain) {
  for (int i = 0; i < 300; ++i) push(0.01 * i);
  drain(1.495);
  for (int i = 0; i < 2000; ++i) push(3.0 + 0.37 * (i % 97) + 0.001 * i);
  for (int i = 0; i < 20; ++i) push(1e4 + i);
  drain(2e4);
  for (int i = 0; i < 10; ++i) push(1e5 + i);
  drain(2e5);
}

TEST(CalendarQueue, RebuildAndPeakCountersArePinned) {
  // Both counters are pure functions of the push/pop script: no clock, no
  // RNG. Pinned values catch any change to the queue's geometry policy.
  Queue queue;
  std::uint64_t sequence = 0;
  std::size_t popped = 0;
  run_counter_script(
      [&](double t) {
        queue.push(t, sequence, static_cast<int>(sequence));
        ++sequence;
      },
      [&](double t_end) {
        Queue::Entry out{};
        while (queue.pop_min_if(t_end, out)) ++popped;
      });
  EXPECT_EQ(popped, sequence);
  EXPECT_EQ(queue.peak_size(), 2170u);
  EXPECT_EQ(queue.rebuilds(), 5u);
}

TEST(SimEventEngine, ExposesQueueCounters) {
  // The engine's counters are its queue's: the same script through
  // schedule_at / run_until reads the same pinned values.
  SimEventEngine engine;
  std::size_t handled = 0;
  run_counter_script(
      [&](double t) { engine.schedule_at(t, SimEventRecord{}); },
      [&](double t_end) {
        engine.run_until(t_end, [&](SimEventRecord&) { ++handled; });
      });
  EXPECT_EQ(handled, 2330u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.peak_pending(), 2170u);
  EXPECT_EQ(engine.queue_rebuilds(), 5u);
}

}  // namespace
}  // namespace epiagg
