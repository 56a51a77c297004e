#include "adaflow/integrity/runner.hpp"

#include <memory>
#include <utility>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/server.hpp"

namespace adaflow::integrity {

void IntegrityRunConfig::validate() const {
  canary.validate();
  policy.validate();
}

edge::RunMetrics run_integrity(const edge::WorkloadTrace& trace,
                               std::unique_ptr<edge::ServingPolicy> inner,
                               const core::AcceleratorLibrary& library,
                               const IntegrityRunConfig& config,
                               const faults::FaultSchedule& schedule, std::uint64_t seed) {
  require(inner != nullptr, "run_integrity needs a serving policy");
  config.validate();
  // Decorrelate the injector's thinning draws from the arrival stream the
  // same way the fleet layer decorrelates per-device seeds.
  faults::FaultInjector injector(schedule, seed ^ 0x9e3779b97f4a7c15ULL);
  IntegrityManager manager(std::move(inner), library, config.policy);
  const edge::ServerConfig server;  // the driver and its device keep a reference
  edge::SingleDeviceDriver driver(trace, manager, server, seed, &injector);
  edge::DeviceSim& device = driver.device();
  CanaryProber prober(driver.queue(), device, config.canary, [&](double now_s) {
    // Score the verdict against ground truth (detection vs false alarm),
    // then ask the policy layer for a repair reload at its next poll.
    device.note_integrity_detection();
    manager.request_repair(now_s);
  });
  manager.set_reload_hook([&device](double, bool scrub) {
    if (scrub) {
      device.note_scrub();
    }
  });
  driver.start();
  prober.start(trace.duration());
  return driver.finish();
}

}  // namespace adaflow::integrity
