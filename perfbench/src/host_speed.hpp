#pragma once

/// \file host_speed.hpp
/// Timings scaled to a reference host speed.
///
/// The benchmark shares its machine with other work. The speed of its vCPUs
/// drifts by 10-15% over minutes, and in slow phases that last up to an hour
/// the same work runs 1.7-2.8 times slower. A fixed reference kernel, made of
/// benchmark code only (no library code, so no change under test moves it),
/// is timed right before and right after each measured interval. The
/// interval is then reported at the reference speed:
///
///     scaled_s = raw_s * kReferenceKernelS / mean(kernel before, kernel after)
///
/// On a host running at the reference speed, scaled_s equals raw_s.

#include <functional>

namespace perfbench {

/// Fixes the unit of scaled times: a scaled time is what the interval takes
/// on a host where reference_kernel() takes this long. Only ratios between
/// runs are compared, so the value is a convention. It is the median time
/// of an earlier version of the kernel on a quiet 4-vCPU KVM guest (Intel
/// Xeon, 2.1 GHz).
inline constexpr double kReferenceKernelS = 0.0226;

/// One run of the reference kernel: a dependent integer chain, a float dot
/// product in L1, and a small discrete-event loop that keeps std::function
/// callbacks in a binary heap, as sim::EventQueue does. Returns its wall
/// time in seconds.
double reference_kernel();

struct Timing {
  double raw_s = 0.0;     ///< wall time of the interval
  double scaled_s = 0.0;  ///< the same at the reference host speed
};

/// Times \p fn between two runs of the reference kernel.
Timing timed(const std::function<void()>& fn);

}  // namespace perfbench
