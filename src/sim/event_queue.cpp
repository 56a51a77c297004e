#include "adaflow/sim/event_queue.hpp"

#include <algorithm>
#include <sstream>

namespace adaflow::sim {

namespace {

constexpr std::size_t kArity = 4;

}  // namespace

void EventQueue::schedule_at(double when, EventFn fn) {
  require(when >= now_, "cannot schedule into the past");
  std::size_t slot = slab_.size();
  if (free_slots_.empty()) {
    slab_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  }
  // Sift the new key up from the end of the heap.
  const Key key{when, next_sequence_++, slot};
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

/// Removes the root: the last key fills the hole and sifts down.
void EventQueue::pop_top() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::run_until(double t_end) {
  if (!(t_end >= now_)) {  // also rejects NaN, which would poison the clock
    std::ostringstream msg;
    msg.precision(17);
    msg << "run_until needs t_end >= now() = " << now_ << ", got " << t_end;
    throw ConfigError(msg.str());
  }
  for (;;) {
    const bool heap_due = !heap_.empty() && heap_.front().when <= t_end;
    if (next_lane_ != kNoLane && lanes_[next_lane_].when <= t_end &&
        (!heap_due || before(lanes_[next_lane_], heap_.front()))) {
      fire_lane(next_lane_);
      continue;
    }
    if (!heap_due) {
      break;
    }
    const Key top = heap_.front();
    pop_top();
    // Move the callback out and free its slot before running it: the
    // callback may schedule more events, which can reuse the slot or grow
    // the slab under a reference into it.
    EventFn fn = std::move(slab_[top.slot]);
    free_slots_.push_back(top.slot);
    now_ = top.when;
    fn();
  }
  now_ = t_end;
}

void EventQueue::place_lane(double when, void* step, LaneFn run) {
  require(when >= now_, "cannot schedule into the past");
  const Lane lane{when, next_sequence_++, step, run};
  std::size_t k = 0;
  while (k < lanes_.size() && lanes_[k].step != nullptr) {
    ++k;
  }
  if (k == lanes_.size()) {
    lanes_.push_back(lane);
  } else {
    lanes_[k] = lane;
  }
  ++live_lanes_;
  if (next_lane_ == kNoLane || before(lane, lanes_[next_lane_])) {
    next_lane_ = k;
  }
}

void EventQueue::fire_lane(std::size_t k) {
  // Copy the lane out and retire it before the step runs: the step may
  // start another chain, which can take this lane or grow lanes_, and a step
  // that throws leaves its chain ended.
  const Lane lane = lanes_[k];
  lanes_[k].step = nullptr;
  --live_lanes_;
  find_next_lane();
  now_ = lane.when;
  if (const std::optional<double> next = lane.run(lane.step)) {
    place_lane(*next, lane.step, lane.run);
  }
}

void EventQueue::find_next_lane() {
  next_lane_ = kNoLane;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k].step != nullptr &&
        (next_lane_ == kNoLane || before(lanes_[k], lanes_[next_lane_]))) {
      next_lane_ = k;
    }
  }
}

}  // namespace adaflow::sim
