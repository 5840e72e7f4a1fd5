// Discrete-event building blocks: the calendar queue that SimEventEngine
// (sim/sim_events.hpp) schedules on, and the message latency models.
//
// They support the paper's asynchronous reading of the protocol: each node is
// autonomous, waking after GETWAITINGTIME (constant Δt or exponentially
// distributed) and exchanging messages that may take time and may be lost.
// Determinism: events at equal timestamps fire in scheduling order.
//
// The pending set lives in a CALENDAR QUEUE (time-bucketed FIFO lanes with
// an overflow tier) instead of a binary heap: schedule and pop are O(1)
// amortized at the 10^5–10^7 pending-event scales the benches hit, where a
// std::priority_queue pays log(n) compares — and heap-moves its payload —
// on every operation. Pop order is EXACTLY ascending (time, sequence), bit-
// identical to the old heap comparator.
//
// Storage is memory-flat: every entry lives in ONE slot pool (fixed blocks,
// so growth never moves an entry) recycled through a LIFO free list, and a
// lane is just the {head, tail} of an intrusive singly linked list threaded
// through a parallel array of 32-bit next-links. The queue therefore holds
// ~peak pending × (sizeof(Entry) + 4) bytes plus 8 bytes per lane, however
// many year rotations and resizes it goes through; a rebuild re-links slot
// indices and never moves an entry. docs/api.md "Event-engine internals"
// carries the design note; the class comment below, the ordering argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace epiagg {

/// A calendar queue over `(time, sequence, payload)` entries, popped in
/// ascending `(time, sequence)` order.
///
/// Geometry: `lanes_.size()` lanes of `width_` simulated seconds starting
/// at `year_start_`; an entry maps to lane `floor((t - year_start_) /
/// width_)` (clamped at 0), or to the unsorted overflow tier when that
/// index falls past the last lane. The mapping is a clamped floor of a
/// monotone affine function, so `t1 <= t2` implies `lane(t1) <= lane(t2)`
/// REGARDLESS of floating-point rounding — draining lanes left to right
/// (each lane kept sorted) is therefore a correct total order, and every
/// overflow entry is strictly later than every bucketed one. When the lanes
/// drain the calendar rotates: a new year is anchored at the overflow
/// minimum and the tier is re-bucketed. The lane count tracks the pending
/// count (power-of-two resize, O(n) rebuild amortized over the >= n
/// operations that changed the size), keeping a few entries per lane so
/// the sorted insert is O(1) in the common case — and an exact FIFO append
/// for equal-timestamp bursts.
///
/// Payloads are moved into a pooled slot on push and moved out on pop, so a
/// popped slot keeps no reference to its payload.
template <typename P>
class CalendarQueue {
public:
  struct Entry {
    SimTime time;
    std::uint64_t sequence;  // FIFO tie-break for equal timestamps
    P payload;
  };

  /// Entry slots per pool block; the pool grows one block at a time.
  static constexpr std::size_t kBlockEntries = 4096;

  CalendarQueue() : lanes_(kMinBuckets) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Lanes currently allocated (resize/rotation observability for tests).
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return lanes_.size();
  }
  /// Entries currently parked in the overflow tier.
  [[nodiscard]] std::size_t overflow_count() const noexcept {
    return overflow_.size();
  }
  /// Entry slots ever allocated: the pending high-water mark rounded up to
  /// whole blocks. Never shrinks; freed slots are reused first.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Rebuilds so far (year rotations plus lane-count resizes).
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  /// Largest size() ever reached.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_size_; }

  void push(SimTime time, std::uint64_t sequence, P payload) {
    const std::uint32_t slot = acquire_slot();
    Entry& entry = at(slot);
    entry.time = time;
    entry.sequence = sequence;
    entry.payload = std::move(payload);
    link(slot);
    ++size_;
    peak_size_ = std::max(peak_size_, size_);
    if (size_ > lanes_.size() * kGrowOccupancy &&
        lanes_.size() < kMaxBuckets) {
      rebuild();
    }
  }

  /// Timestamp of the earliest entry. Requires !empty(); may advance the
  /// lane cursor or rotate the year (amortized O(1)).
  [[nodiscard]] SimTime min_time() { return at(front_slot()).time; }

  /// Removes and returns the earliest entry. Requires !empty().
  Entry pop_min() {
    const std::uint32_t slot = front_slot();
    Entry out = std::move(at(slot));
    release_front(slot);
    return out;
  }

  /// Peek-and-pop in ONE cursor scan: moves the earliest entry into `out`
  /// and returns true iff its time is <= `t_end`. The drain loop's
  /// `min_time() <= t_end` guard plus `pop_min()` costs two front scans per
  /// event; this is the fused form.
  bool pop_min_if(SimTime t_end, Entry& out) {
    if (size_ == 0) return false;
    const std::uint32_t slot = front_slot();
    Entry& front = at(slot);
    if (front.time > t_end) return false;
    out = std::move(front);
    release_front(slot);
    return true;
  }

private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// An intrusive list of slots, ascending (time, sequence) from `head`.
  struct Lane {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  /// Cache-line aligned, so 64-byte entries never straddle two lines.
  struct alignas(64) Block {
    Entry entries[kBlockEntries];
  };

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;
  static constexpr std::size_t kGrowOccupancy = 4;   // entries per lane
  static constexpr std::size_t kShrinkOccupancy = 8;  // lanes per entry
  static constexpr std::size_t kYearSlack = 4;  // year length / pending span

  static bool entry_less(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }

  [[nodiscard]] Entry& at(std::uint32_t slot) noexcept {
    return blocks_[slot / kBlockEntries]->entries[slot % kBlockEntries];
  }

  /// A free slot: the most recently released one (still warm in cache),
  /// else a fresh one, growing the pool by a block when it is full.
  std::uint32_t acquire_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = next_[slot];
      return slot;
    }
    if (capacity_ == blocks_.size() * kBlockEntries) {
      EPIAGG_ASSERT(capacity_ + kBlockEntries <= kNil,
                    "calendar queue slot pool exhausted");
      blocks_.push_back(std::make_unique<Block>());
      next_.resize(capacity_ + kBlockEntries, kNil);
    }
    return static_cast<std::uint32_t>(capacity_++);
  }

  /// Maps `t` to its lane, or returns false for the overflow tier. Clamped
  /// floor of a monotone function: never decreasing in `t`.
  bool lane_index(SimTime t, std::size_t& idx) const {
    const double offset = (t - year_start_) / width_;
    if (offset >= static_cast<double>(lanes_.size())) return false;
    idx = offset <= 0.0 ? 0 : static_cast<std::size_t>(offset);
    return idx < lanes_.size();
  }

  /// Threads `slot` into its lane (after every entry not later than it)
  /// or parks it in the overflow tier.
  void link(std::uint32_t slot) {
    const Entry& entry = at(slot);
    std::size_t idx = 0;
    if (!lane_index(entry.time, idx)) {
      overflow_.push_back(slot);
      return;
    }
    Lane& lane = lanes_[idx];
    if (lane.head == kNil) {
      lane.head = slot;
      lane.tail = slot;
      next_[slot] = kNil;
    } else if (!entry_less(entry, at(lane.tail))) {
      next_[lane.tail] = slot;  // FIFO fast path
      next_[slot] = kNil;
      lane.tail = slot;
    } else {
      // The tail is later than `entry`, so the walk stops before it ends.
      std::uint32_t prev = kNil;
      std::uint32_t cur = lane.head;
      while (!entry_less(entry, at(cur))) {
        prev = cur;
        cur = next_[cur];
      }
      next_[slot] = cur;
      if (prev == kNil) {
        lane.head = slot;
      } else {
        next_[prev] = slot;
      }
    }
    // A lane the cursor already passed can receive entries again (anything
    // scheduled at the current time after its lane drained); pull the
    // cursor back so the scan never strands them.
    if (idx < cursor_) cursor_ = idx;
  }

  /// Unlinks the slot front_slot() just returned (the head of the lane at
  /// cursor_) and frees it. Shared tail of pop_min / pop_min_if.
  void release_front(std::uint32_t slot) {
    Lane& lane = lanes_[cursor_];
    lane.head = next_[slot];
    if (lane.head == kNil) lane.tail = kNil;
    next_[slot] = free_head_;
    free_head_ = slot;
    --size_;
    if (size_ * kShrinkOccupancy < lanes_.size() &&
        lanes_.size() > kMinBuckets) {
      rebuild();
    }
  }

  /// The earliest entry's slot: head of the first non-empty lane, rotating
  /// the year when only the overflow tier remains. Requires !empty().
  std::uint32_t front_slot() {
    for (;;) {
      while (cursor_ < lanes_.size() && lanes_[cursor_].head == kNil)
        ++cursor_;
      if (cursor_ < lanes_.size()) return lanes_[cursor_].head;
      EPIAGG_ASSERT(!overflow_.empty(),
                    "calendar queue scan on an empty queue");
      rebuild();  // new year anchored at the overflow minimum
    }
  }

  /// Re-buckets every pending entry with fresh geometry: lane count ~ the
  /// pending count, year anchored at the earliest pending time, width
  /// spreading the pending span over 1/kYearSlack of the lanes. The earliest
  /// entry always lands in lane 0, so rotation makes progress
  /// unconditionally. Only slot indices move: the lanes (in order) and then
  /// the overflow tier are spliced into one chain, which is re-linked into
  /// fresh lanes.
  void rebuild() {
    ++rebuilds_;
    std::uint32_t chain = kNil;
    std::uint32_t chain_tail = kNil;
    const auto splice = [&](std::uint32_t first, std::uint32_t last) {
      if (chain == kNil) {
        chain = first;
      } else {
        next_[chain_tail] = first;
      }
      chain_tail = last;
    };
    for (const Lane& lane : lanes_)
      if (lane.head != kNil) splice(lane.head, lane.tail);
    for (const std::uint32_t slot : overflow_) splice(slot, slot);
    if (chain_tail != kNil) next_[chain_tail] = kNil;
    overflow_.clear();

    std::size_t lanes = kMinBuckets;
    while (lanes < size_ && lanes < kMaxBuckets) lanes <<= 1;
    lanes_.assign(lanes, Lane{});
    cursor_ = 0;
    if (chain == kNil) return;

    SimTime lo = at(chain).time;
    SimTime hi = lo;
    for (std::uint32_t slot = chain; slot != kNil; slot = next_[slot]) {
      lo = std::min(lo, at(slot).time);
      hi = std::max(hi, at(slot).time);
    }
    year_start_ = lo;
    const double span = hi - lo;
    // The year covers kYearSlack × the pending span: future schedules keep
    // landing in lanes (instead of the overflow tier) for several horizons,
    // so an entry is re-bucketed by at most ~1/kYearSlack of rotations —
    // at the price of ~kYearSlack entries per occupied lane.
    width_ = span > 0.0
                 ? span * static_cast<double>(kYearSlack) /
                       static_cast<double>(lanes)
                 : 1.0;
    for (std::uint32_t slot = chain; slot != kNil;) {
      const std::uint32_t following = next_[slot];
      link(slot);
      slot = following;
    }
  }

  std::vector<std::unique_ptr<Block>> blocks_;  // the slot pool
  std::vector<std::uint32_t> next_;  // per slot: lane successor or next free
  std::uint32_t free_head_ = kNil;   // LIFO free list through next_
  std::size_t capacity_ = 0;         // slots handed out so far
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> overflow_;  // unsorted; strictly later than any
                                         // lane entry
  std::size_t cursor_ = 0;  // lanes below are empty (or refilled with a
                            // cursor pull-back on insert)
  SimTime year_start_ = 0.0;
  double width_ = 1.0;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Message latency models for the asynchronous protocol mode.
class LatencyModel {
public:
  virtual ~LatencyModel() = default;
  /// Samples one one-way message delay (>= 0).
  [[nodiscard]] virtual SimTime sample(Rng& rng) const = 0;
};

/// Zero or fixed delay; the paper's analysis assumes zero communication time.
class ConstantLatency final : public LatencyModel {
public:
  explicit ConstantLatency(SimTime delay) : delay_(delay) {
    EPIAGG_EXPECTS(delay >= 0.0, "latency cannot be negative");
  }
  [[nodiscard]] SimTime sample(Rng& /*rng*/) const override { return delay_; }

private:
  SimTime delay_;
};

/// Uniform delay in [lo, hi).
class UniformLatency final : public LatencyModel {
public:
  UniformLatency(SimTime lo, SimTime hi) : lo_(lo), hi_(hi) {
    EPIAGG_EXPECTS(lo >= 0.0 && hi > lo, "invalid uniform latency range");
  }
  [[nodiscard]] SimTime sample(Rng& rng) const override {
    return rng.uniform(lo_, hi_);
  }

private:
  SimTime lo_;
  SimTime hi_;
};

/// Exponential delay with the given mean.
class ExponentialLatency final : public LatencyModel {
public:
  explicit ExponentialLatency(SimTime mean) : rate_(1.0 / mean) {
    EPIAGG_EXPECTS(mean > 0.0, "latency mean must be positive");
  }
  [[nodiscard]] SimTime sample(Rng& rng) const override {
    return rng.exponential(rate_);
  }

private:
  double rate_;
};

}  // namespace epiagg
