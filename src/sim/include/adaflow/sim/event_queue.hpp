#pragma once

/// \file event_queue.hpp
/// Minimal discrete-event simulation engine: a time-ordered queue of
/// callbacks with a monotonically advancing clock. Events scheduled at equal
/// times fire in insertion order (stable), which keeps runs deterministic.
///
/// The queue is a flat 4-ary min-heap of small keys (time, sequence, slot)
/// over a slab of callbacks with a free list. A callback is moved into its
/// slot when scheduled and moved out again just before it runs, never
/// copied; once the heap and the slab have grown to the standing depth, the
/// queue itself allocates nothing.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "adaflow/common/error.hpp"

namespace adaflow::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  double now() const { return now_; }

  /// Schedules \p fn at absolute time \p when (>= now).
  void schedule_at(double when, EventFn fn);

  /// Schedules \p fn \p delay seconds from now.
  void schedule_in(double delay, EventFn fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Runs events in time order until the queue empties or the clock would
  /// pass \p t_end; the clock finishes exactly at t_end. Throws ConfigError
  /// when \p t_end is NaN or earlier than now(): the clock never runs back.
  void run_until(double t_end);

  std::size_t pending() const { return heap_.size(); }

 private:
  struct Key {
    double when;
    std::uint64_t sequence;
    std::size_t slot;  ///< index of the callback in slab_
  };

  /// Strict (when, sequence) order; sequences are unique, so it is total.
  static bool before(const Key& a, const Key& b) {
    return a.when < b.when || (a.when == b.when && a.sequence < b.sequence);
  }
  void pop_top();

  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::vector<Key> heap_;  ///< 4-ary min-heap: the children of i are 4i+1 .. 4i+4
  std::vector<EventFn> slab_;
  std::vector<std::size_t> free_slots_;
};

}  // namespace adaflow::sim
