#include "adaflow/fleet/fleet.hpp"

#include <utility>

#include "adaflow/common/error.hpp"
#include "adaflow/fleet/engine.hpp"

namespace adaflow::fleet {

bool conserves_flow(const FleetMetrics& m) {
  std::int64_t device_arrived = 0;
  for (const FleetDeviceResult& d : m.devices) {
    device_arrived += d.metrics.arrived;
  }
  return m.arrived + m.redispatched == m.dispatched + m.ingress_lost + m.ingress_backlog &&
         device_arrived == m.dispatched;
}

void FleetConfig::validate() const {
  if (devices.empty()) {
    throw ConfigError("FleetConfig.devices must not be empty");
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const FleetDevice& d = devices[i];
    const std::string who = "fleet device " + std::to_string(i) + " ('" + d.name + "')";
    if (d.name.empty()) {
      throw ConfigError("fleet device " + std::to_string(i) + " has an empty name");
    }
    if (!d.make_policy) {
      throw ConfigError(who + " has no make_policy factory");
    }
    d.server.validate(who + ": server");
    if (d.library != nullptr && d.library->versions.empty()) {
      throw ConfigError(who + ": library has no versions");
    }
  }
  if (ingress_capacity < 0) {
    throw ConfigError("FleetConfig.ingress_capacity must be >= 0");
  }
  if (!(sample_interval_s > 0.0)) {
    throw ConfigError("FleetConfig.sample_interval_s must be positive");
  }
  if (coordinator.enabled) {
    if (!(coordinator.poll_interval_s > 0.0)) {
      throw ConfigError("FleetCoordinatorConfig.poll_interval_s must be positive");
    }
    if (!(coordinator.estimate_window_s > 0.0)) {
      throw ConfigError("FleetCoordinatorConfig.estimate_window_s must be positive");
    }
    if (coordinator.drain_timeout_s < 0.0) {
      throw ConfigError("FleetCoordinatorConfig.drain_timeout_s must be >= 0");
    }
    if (coordinator.switch_interval_factor < 0.0) {
      throw ConfigError("FleetCoordinatorConfig.switch_interval_factor must be >= 0");
    }
    if (coordinator.fps_hysteresis < 0.0) {
      throw ConfigError("FleetCoordinatorConfig.fps_hysteresis must be >= 0");
    }
  }
  if (health.enabled) {
    health.validate();
  }
  if (integrity.enabled) {
    integrity.validate();
    if (integrity.quarantine_on_detect && !health.enabled) {
      throw ConfigError(
          "FleetIntegrityConfig.quarantine_on_detect requires health.enabled (the "
          "quarantine/probe/rejoin machinery lives in the health monitor)");
    }
  }
}

PinnedPolicy::PinnedPolicy(const core::AcceleratorLibrary& library, std::size_t version)
    : library_(library), version_(version) {
  require(version < library.versions.size(),
          "pinned version index " + std::to_string(version) + " out of range (library has " +
              std::to_string(library.versions.size()) + " versions)");
}

edge::ServingMode PinnedPolicy::initial_mode() {
  return core::serving_mode(library_, version_, hls::AcceleratorVariant::kFixed);
}

FleetDevice managed_device(std::string name, const core::AcceleratorLibrary& library,
                           const core::RuntimeManagerConfig& manager, core::PolicyKind kind) {
  FleetDevice d;
  d.name = std::move(name);
  d.library = &library;
  d.make_policy = [&library, manager, kind] {
    return core::make_serving_policy(kind, library, manager);
  };
  return d;
}

FleetDevice pinned_device(std::string name, const core::AcceleratorLibrary& library,
                          std::size_t version) {
  FleetDevice d;
  d.name = std::move(name);
  d.library = &library;
  d.coordinated = true;
  d.make_policy = [&library, version]() -> std::unique_ptr<edge::ServingPolicy> {
    return std::make_unique<PinnedPolicy>(library, version);
  };
  return d;
}

std::vector<FleetDevice> homogeneous_devices(const core::AcceleratorLibrary& library,
                                             const core::RuntimeManagerConfig& manager, int count,
                                             core::PolicyKind kind) {
  require(count > 0, "homogeneous_devices needs a positive device count");
  std::vector<FleetDevice> devices;
  devices.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    devices.push_back(managed_device("dev" + std::to_string(i), library, manager, kind));
  }
  return devices;
}

}  // namespace adaflow::fleet
