#pragma once

/// \file scene.hpp
/// Scene-density model for the detection workload. Where the classification
/// serving layer only varies the frame ARRIVAL rate, a detection pipeline
/// also varies per-frame COST: the NMS postprocess is O(n^2) in the number
/// of candidate boxes, which tracks how crowded the scene is. SceneTrace is
/// the piecewise-constant object-density signal both effects are driven
/// from — workload_from_scene() couples it to the arrival rate
/// (event-triggered cameras upload more when more is moving), and the
/// per-frame service model (pipeline.hpp) draws each frame's ground-truth
/// object count from the density at service time.

#include <cstdint>
#include <vector>

#include "adaflow/edge/workload.hpp"

namespace adaflow::detect {

/// Piecewise-constant expected-objects-per-frame trace (the detection
/// counterpart of edge::WorkloadTrace). Segment i spans
/// [times[i], times[i+1]) at densities[i]; the last segment runs to
/// duration_s.
class SceneTrace {
 public:
  /// Throws ConfigError on empty/mismatched vectors, a first boundary != 0,
  /// unsorted times, negative densities, or a duration before the last
  /// boundary.
  SceneTrace(std::vector<double> times, std::vector<double> densities, double duration_s);

  /// Expected ground-truth objects per frame at time \p t.
  double density_at(double t) const;

  const std::vector<double>& change_times() const { return times_; }
  const std::vector<double>& segment_densities() const { return densities_; }
  double duration() const { return duration_; }

  /// The same trace with every density multiplied by \p factor — the
  /// scene-density sweep axis of `bench_adaflow detect`.
  SceneTrace scaled(double factor) const;

 private:
  std::vector<double> times_;
  std::vector<double> densities_;
  double duration_ = 0.0;
};

/// Rush hour: \p base_density until \p onset_s, a linear ramp to
/// \p peak_density over \p ramp_s, a hold of \p hold_s, then a symmetric
/// ramp back down — sampled every \p step_s with multiplicative noise
/// U(1-jitter, 1+jitter) drawn from \p seed. The canonical trace where a
/// static accelerator either wastes area (sized for the peak) or sheds
/// frames (sized for the base).
SceneTrace rush_hour_scene(double base_density, double peak_density, double onset_s,
                           double ramp_s, double hold_s, double duration_s, double step_s,
                           double jitter, std::uint64_t seed);

/// Couples scene density to the frame arrival rate: event-triggered cameras
/// stream \p base_fps when the scene is empty and add \p fps_per_object per
/// expected object. Segment boundaries are the scene's, so the workload and
/// the per-frame cost shift together — the double squeeze the adaptive
/// manager has to absorb.
edge::WorkloadTrace workload_from_scene(const SceneTrace& scene, double base_fps,
                                        double fps_per_object);

}  // namespace adaflow::detect
