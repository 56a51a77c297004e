#include "adaflow/detect/runner.hpp"

#include "adaflow/common/error.hpp"
#include "adaflow/edge/server.hpp"

namespace adaflow::detect {

namespace {

// Arrival coupling of a detection run (workload_from_scene).
constexpr double kBaseFps = 200.0;       ///< camera floor rate (empty scene)
constexpr double kFpsPerObject = 120.0;  ///< extra uploads per unit scene density

}  // namespace

DetectionWorkload::DetectionWorkload(SceneTrace scene, DetectorModel model, std::uint64_t seed)
    : scene_(std::move(scene)), model_(model), seed_(seed) {
  model_.validate();
}

void DetectionWorkload::attach(edge::DeviceSim& device, std::uint64_t salt) {
  // splitmix-style stream separation: adjacent salts give uncorrelated seeds.
  streams_.push_back(std::make_unique<Rng>(seed_ ^ ((salt + 1) * 0x9e3779b97f4a7c15ULL)));
  Rng* rng = streams_.back().get();
  edge::DeviceSim* dev = &device;
  device.set_service_model([this, rng, dev](double now_s, const edge::ServingMode& mode) {
    const FrameOutcome f = simulate_frame(*rng, scene_.density_at(now_s), mode.accuracy, model_);
    sim::DetectionStats& d = dev->metrics().detection;
    d.frames_scored += 1;
    d.objects_total += f.objects;
    d.candidates_total += f.candidates;
    d.suppressed_total += f.suppressed;
    d.nms_pairs_total += f.nms_pairs;
    d.true_positives += f.true_positives;
    d.false_positives += f.false_positives;
    d.missed_objects += f.missed;
    d.postprocess_s += f.postprocess_s;
    d.map_proxy_sum += f.map_proxy;
    return edge::DeviceSim::FrameService{f.postprocess_s, f.map_proxy};
  });
}

edge::RunMetrics run_detection(const SceneTrace& scene, edge::ServingPolicy& policy,
                               std::uint64_t seed) {
  // The workload trace is derived from the scene, so arrival rate and
  // per-frame cost move together.
  const edge::WorkloadTrace trace = workload_from_scene(scene, kBaseFps, kFpsPerObject);
  const edge::ServerConfig server;  // the driver and its device keep a reference
  edge::SingleDeviceDriver driver(trace, policy, server, seed);
  // An independent stream for the frame outcomes: the arrival process must
  // not shift when the detector model draws a different number of variates.
  DetectionWorkload workload(scene, DetectorModel{}, seed ^ 0xd37ec7a9b1f05c3dULL);
  workload.attach(driver.device());
  driver.start();
  return driver.finish();
}

StaticFlexiblePolicy::StaticFlexiblePolicy(const core::AcceleratorLibrary& library,
                                           std::size_t version)
    : library_(library), version_(version) {
  require(version_ < library_.versions.size(),
          "StaticFlexiblePolicy version index out of range");
}

edge::ServingMode StaticFlexiblePolicy::initial_mode() {
  return core::serving_mode(library_, version_, hls::AcceleratorVariant::kFlexible);
}

}  // namespace adaflow::detect
