// Typed POD event records for the message-based simulation impls.
//
// Erasing every event behind a heap-allocating `std::function<void()>` would
// cost one allocation (plus a captured payload vector) per message at 10^5+
// nodes. The simulation impls instead schedule fixed-size `SimEventRecord`s
// on a `SimEventEngine` — a calendar queue of plain structs — and dispatch
// them through one switch (simulation_event.cpp). Payloads ride inline in
// the record when they fit (one double plane, push-sum mass halves) or in a
// recycled arena slot (payload_arena.hpp) when they don't. A `Callback`
// escape hatch remains for rare control events that genuinely need a
// closure; its slots are free-listed too.
//
// Determinism: records pop in ascending `(time, sequence)` order, the
// sequence being the scheduling order, so events at equal timestamps fire
// first-in first-out and a run is a pure function of its seed.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/types.hpp"
#include "sim/event_engine.hpp"
#include "sim/payload_arena.hpp"

namespace epiagg {

/// Event variants of the message-based impls. Field usage per kind:
///
///   kWake            a = node, gen_a = its generation at scheduling
///   kMembershipWake  a = node, gen_a = generation
///   kAdaptiveWake    a = node, gen_a = generation
///   kTick            tag = the integer time t
///   kPush            a = initiator, b = addressee, gen_a/gen_b = their
///                    generations, tag = epoch tag, payload in v0 (one
///                    plane) or slab (multi-plane / counting instances)
///   kReply           a = addressee (the original initiator), gen_a = its
///                    generation, tag = epoch tag, payload as for kPush
///   kAdoptNotify     a = addressee, gen_a = generation, tag = the newer
///                    epoch id (adaptive-epoch epidemic fast-forward)
///   kPushSumDeliver  b = addressee, v0 = half sum, v1 = half weight
///   kControl         slab = index of the stashed Callback
enum class EvKind : std::uint8_t {
  kWake,
  kMembershipWake,
  kAdaptiveWake,
  kTick,
  kPush,
  kReply,
  kAdoptNotify,
  kPushSumDeliver,
  kControl,
};

/// Field order packs the record into 48 bytes, so a queue Entry — `(time,
/// sequence, record)` — is exactly 64 bytes: one cache line in the queue's
/// line-aligned slot pool. The generation guards are 32-bit on the wire:
/// they only ever compare for EQUALITY against a counter bumped once per
/// crash of one slot, so wrap-around would need 2^32 crashes of a single
/// node within one message's flight.
struct SimEventRecord {
  double v0 = 0.0;
  double v1 = 0.0;
  EpochId tag = 0;  // epoch tag, or the integer time for kTick
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  std::uint32_t gen_a = 0;
  std::uint32_t gen_b = 0;
  std::uint32_t slab = kNoSlab;
  EvKind kind = EvKind::kWake;
};
static_assert(sizeof(CalendarQueue<SimEventRecord>::Entry) == 64,
              "a CalendarQueue slot must stay one 64-byte cache line: "
              "SimEventRecord must pack into 48 bytes");

/// A deterministic scheduler of SimEventRecords: pops in ascending `(time,
/// sequence)` order (FIFO among equal times), `run_until` boundaries are
/// inclusive, scheduling into the past is rejected, and there is no type
/// erasure on the hot path.
class SimEventEngine {
public:
  using Callback = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  void schedule_at(SimTime t, const SimEventRecord& record) {
    EPIAGG_EXPECTS(t >= now_, "cannot schedule events in the past");
    queue_.push(t, next_sequence_++, record);
  }

  void schedule_after(SimTime delay, const SimEventRecord& record) {
    EPIAGG_EXPECTS(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, record);
  }

  /// The escape hatch: schedules an arbitrary closure as a kControl record
  /// (its slot is recycled after the call).
  void schedule_control(SimTime t, Callback callback) {
    EPIAGG_EXPECTS(callback != nullptr, "null control callback");
    std::uint32_t slot;
    if (!control_free_.empty()) {
      slot = control_free_.back();
      control_free_.pop_back();
      controls_[slot] = std::move(callback);
    } else {
      slot = static_cast<std::uint32_t>(controls_.size());
      controls_.push_back(std::move(callback));
    }
    SimEventRecord record;
    record.kind = EvKind::kControl;
    record.slab = slot;
    schedule_at(t, record);
  }

  /// Runs events through `handle` until simulated time exceeds `t_end` or
  /// the queue drains; events exactly at t_end are executed. kControl
  /// records are dispatched internally.
  template <typename Handler>
  void run_until(SimTime t_end, Handler&& handle) {
    CalendarQueue<SimEventRecord>::Entry entry;
    while (queue_.pop_min_if(t_end, entry)) {
      EPIAGG_ASSERT(entry.time >= now_, "event queue time went backwards");
      now_ = entry.time;
      ++processed_;
      if (entry.payload.kind == EvKind::kControl) {
        const std::uint32_t slot = entry.payload.slab;
        Callback callback = std::move(controls_[slot]);
        controls_[slot] = nullptr;
        control_free_.push_back(slot);
        callback();
      } else {
        handle(entry.payload);
      }
    }
    now_ = std::max(now_, t_end);
  }

  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  /// Calendar-queue rebuilds (year rotations plus lane resizes) so far.
  /// Like peak_pending(), a pure function of the schedule: no clock, no RNG.
  [[nodiscard]] std::uint64_t queue_rebuilds() const noexcept {
    return queue_.rebuilds();
  }
  /// Largest pending() ever reached.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return queue_.peak_size();
  }

private:
  CalendarQueue<SimEventRecord> queue_;
  std::vector<Callback> controls_;
  std::vector<std::uint32_t> control_free_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace epiagg
