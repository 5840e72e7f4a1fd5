#include "sim/event_engine.hpp"

#include <utility>

namespace epiagg {

void EventEngine::schedule_at(SimTime t, Callback callback) {
  EPIAGG_EXPECTS(t >= now_, "cannot schedule events in the past");
  EPIAGG_EXPECTS(callback != nullptr, "null event callback");
  queue_.push(t, next_sequence_++, std::move(callback));
}

void EventEngine::schedule_after(SimTime delay, Callback callback) {
  EPIAGG_EXPECTS(delay >= 0.0, "negative delay");
  schedule_at(now_ + delay, std::move(callback));
}

bool EventEngine::run_next() {
  if (queue_.empty()) return false;
  auto event = queue_.pop_min();
  EPIAGG_ASSERT(event.time >= now_, "event queue time went backwards");
  now_ = event.time;
  ++processed_;
  event.payload();
  return true;
}

void EventEngine::run_until(SimTime t_end) {
  CalendarQueue<Callback>::Entry event;
  while (queue_.pop_min_if(t_end, event)) {
    EPIAGG_ASSERT(event.time >= now_, "event queue time went backwards");
    now_ = event.time;
    ++processed_;
    event.payload();
  }
  now_ = std::max(now_, t_end);
}

void EventEngine::run_all() {
  while (run_next()) {
  }
}

}  // namespace epiagg
