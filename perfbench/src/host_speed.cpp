#include "host_speed.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace perfbench {
namespace {

volatile std::uint64_t g_sink = 0;

std::uint64_t integer_chain() {
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 6'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::uint64_t float_dot() {
  std::vector<float> a(8192, 1.0001f);
  std::vector<float> b(8192, 0.9999f);
  float sum = 0.0f;
  for (int r = 0; r < 800; ++r) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      sum += a[i] * b[i];
    }
    a[static_cast<std::size_t>(r) % a.size()] = sum * 1e-9f;  // keeps each pass live
  }
  return static_cast<std::uint64_t>(sum);
}

/// The simulator's hot pattern: 50 self-rescheduling events, each held as a
/// std::function in a binary heap ordered by (time, sequence).
std::uint64_t event_loop() {
  struct Entry {
    double when;
    std::uint64_t sequence;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.sequence > b.sequence;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap;
  std::uint64_t sequence = 0;
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  double now = 0.0;
  int fired = 0;
  std::function<void()> hold = [&] {
    ++fired;
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    heap.push({now + static_cast<double>(rng % 1024), sequence++, hold});
  };
  for (int i = 0; i < 50; ++i) {
    heap.push({static_cast<double>(i), sequence++, hold});
  }
  while (fired < 200'000) {
    const Entry e = heap.top();
    heap.pop();
    now = e.when;
    e.fn();
  }
  return sequence;
}

}  // namespace

double reference_kernel() {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink = g_sink + integer_chain() + float_dot() + event_loop();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

Timing timed(const std::function<void()>& fn) {
  const double before = reference_kernel();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const double raw = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double after = reference_kernel();
  return {raw, raw * kReferenceKernelS / (0.5 * (before + after))};
}

}  // namespace perfbench
