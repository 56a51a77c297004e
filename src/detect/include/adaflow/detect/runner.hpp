#pragma once

/// \file runner.hpp
/// End-to-end detection serving: attaches the per-frame detection service
/// model (scene density -> NMS cost + mAP-proxy quality) to edge/fleet
/// devices and drives single-device runs. With the service model installed,
/// RunMetrics::qoe() IS the detection QoE — mean per-frame mAP proxy times
/// the processed-frame fraction (lost frames score zero, exactly like the
/// paper's accuracy-based QoE).

#include <cstdint>
#include <memory>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/detect/pipeline.hpp"
#include "adaflow/detect/scene.hpp"
#include "adaflow/edge/device_sim.hpp"
#include "adaflow/edge/policy.hpp"
#include "adaflow/edge/server_types.hpp"

namespace adaflow::detect {

/// Binds one SceneTrace + DetectorModel to any number of devices. attach()
/// installs a per-device service model with its own deterministic Rng stream
/// (derived from seed and the device's salt), so fleet runs replay
/// bit-identically regardless of device count. The workload must outlive
/// every simulation it is attached to.
class DetectionWorkload {
 public:
  /// Throws ConfigError on an invalid \p model.
  DetectionWorkload(SceneTrace scene, DetectorModel model, std::uint64_t seed);

  /// Installs the detection service model on \p device. \p salt
  /// distinguishes per-device streams (fleet: the device index). Frame
  /// outcomes are folded into device.metrics().detection.
  void attach(edge::DeviceSim& device, std::uint64_t salt = 0);

  const SceneTrace& scene() const { return scene_; }
  const DetectorModel& model() const { return model_; }

 private:
  SceneTrace scene_;
  DetectorModel model_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Rng>> streams_;  ///< stable addresses for the hooks
};

/// Runs one single-device detection simulation: Poisson arrivals from
/// workload_from_scene(scene), the default DetectorModel attached as the
/// service model, a default ServerConfig. Same (scene, policy state, seed)
/// -> bit-identical RunMetrics.
edge::RunMetrics run_detection(const SceneTrace& scene, edge::ServingPolicy& policy,
                               std::uint64_t seed);

/// Baseline: the shared Flexible-Pruning accelerator statically serving one
/// version (default: unpruned) — sub-ms switches available but never used.
/// `bench_adaflow detect`'s static counterpart to StaticFinnPolicy on the Fixed side.
class StaticFlexiblePolicy final : public edge::ServingPolicy {
 public:
  explicit StaticFlexiblePolicy(const core::AcceleratorLibrary& library,
                                std::size_t version = 0);
  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  const core::AcceleratorLibrary& library_;
  std::size_t version_;
};

}  // namespace adaflow::detect
