#pragma once

/// \file runner.hpp
/// End-to-end single-device integrity run: a workload trace served through
/// one DeviceSim whose serving policy is wrapped by the IntegrityManager,
/// with a CanaryProber feeding the drift detector and a FaultInjector
/// delivering the pre-resolved config-upset schedule. The composition the
/// `adaflow integrity` CLI subcommand and `bench_adaflow integrity` drive; the fleet
/// layer wires the same pieces per device itself (src/fleet).
///
/// Replay contract: identical (trace, configs, schedule, seed) inputs replay
/// bit-identically — the only randomness is the arrival process and the
/// injector's construction-time draws.

#include <cstdint>

#include "adaflow/edge/server_types.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/faults/fault_injector.hpp"
#include "adaflow/integrity/canary.hpp"
#include "adaflow/integrity/manager.hpp"

namespace adaflow::core {
struct AcceleratorLibrary;
}

namespace adaflow::edge {
class ServingPolicy;
}

namespace adaflow::integrity {

struct IntegrityRunConfig {
  /// canary.canary_interval_s = 0 disables probing (and detection).
  CanaryProberConfig canary;
  /// policy.scrub_period_s = 0 disables blind scrubbing. With both channels
  /// off the run degenerates to the unprotected baseline (zero overhead).
  IntegrityPolicyConfig policy;

  /// Throws common::ConfigError naming the offending field.
  void validate() const;
};

/// Runs \p trace on one device with a default edge::ServerConfig against
/// \p inner (takes ownership; wrapped in an IntegrityManager over \p library)
/// under \p schedule. The detection wiring:
/// canary results feed the drift detector; a trip scores the verdict against
/// device ground truth and requests a repair reload; scrub/repair reloads
/// ride the supervised-switch path and clear the corruption on completion.
edge::RunMetrics run_integrity(const edge::WorkloadTrace& trace,
                               std::unique_ptr<edge::ServingPolicy> inner,
                               const core::AcceleratorLibrary& library,
                               const IntegrityRunConfig& config,
                               const faults::FaultSchedule& schedule, std::uint64_t seed);

}  // namespace adaflow::integrity
