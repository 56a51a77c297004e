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
/// queue itself allocates nothing, and neither does a tick of a recurring
/// event (every, chain): its step lives in a table the queue owns.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaflow/common/error.hpp"

namespace adaflow::sim {

using EventFn = std::function<void()>;

/// How far past the horizon a window-sample cadence still fires: summed
/// periods can land the last sample a rounding error late (DESIGN.md §3).
inline constexpr double kSampleEndSlack = 1e-9;

class EventQueue {
 public:
  EventQueue() = default;
  /// Scheduled events point back into the queue: it never moves.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

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

  /// Runs \p fn at \p first (whatever \p last is), then at now() + \p period
  /// after each call while that is <= \p last. The successor is scheduled
  /// after \p fn returns, so what \p fn schedules for the same time fires
  /// first. Throws ConfigError unless \p period is finite and positive.
  template <typename Fn>
  void every(double first, double period, double last, Fn fn) {
    if (!(std::isfinite(period) && period > 0.0)) {
      throw ConfigError("every needs a finite positive period, got " + std::to_string(period));
    }
    repeat(first, [this, fn = std::move(fn), period, last]() mutable {
      fn();
      const double when = now_ + period;
      return when <= last ? std::optional(when) : std::nullopt;
    });
  }

  /// Runs \p fn at each time \p next yields, drawn now and then after each
  /// call of \p fn; ends when \p next yields nullopt.
  template <typename Next, typename Fn>
  void chain(Next next, Fn fn) {
    if (const std::optional<double> when = next()) {
      repeat(*when, [next = std::move(next), fn = std::move(fn)]() mutable {
        fn();
        return next();
      });
    }
  }

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

  /// Keeps \p step (run the body, yield the next time) while the queue lives
  /// and fires it, by its own type, at \p when and at each time it yields.
  template <typename Step>
  void repeat(double when, Step step) {
    const auto kept = std::make_shared<Step>(std::move(step));
    repeats_.push_back(kept);
    fire(when, kept.get());
  }
  template <typename Step>
  void fire(double when, Step* step) {
    schedule_at(when, [this, step] {
      if (const std::optional<double> next = (*step)()) {
        fire(*next, step);
      }
    });
  }

  double now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::vector<Key> heap_;  ///< 4-ary min-heap: the children of i are 4i+1 .. 4i+4
  std::vector<EventFn> slab_;
  std::vector<std::size_t> free_slots_;
  std::vector<std::shared_ptr<void>> repeats_;  ///< the steps scheduled firings point to
};

}  // namespace adaflow::sim
