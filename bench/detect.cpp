/// `bench_adaflow detect`: adaptive serving of a YOLO-style detection pipeline across
/// a scene-density sweep.
///
/// The detection workload squeezes the server from both sides as scenes get
/// crowded: event-triggered cameras upload more frames (arrival rate up) AND
/// every frame costs more to postprocess (the NMS pair count is quadratic in
/// the candidate boxes, which track scene density). A static accelerator has
/// no good answer — sized for quiet scenes it sheds the rush hour, sized for
/// the rush it wastes accuracy all day. The adaptive Runtime Manager walks
/// the pruned-detector ladder of the geometry-only detection library
/// (src/detect/yolo.hpp) instead.
///
/// Part A sweeps the rush-hour scene at several density scales and compares
///   adaflow   — RuntimeManager over the detection library
///   finn      — the unpruned detector on its static Fixed accelerator
///   flexible  — the unpruned detector pinned on the Flexible accelerator
/// on detection QoE (mean per-frame mAP proxy x processed fraction — lost
/// frames score zero). Expected shape: all three agree on quiet scenes; from
/// the nominal scale up the adaptive manager beats both statics, and the
/// detection ledger conserves (tp + missed == objects on every run).
///
/// Part B replays one configuration twice with the same seed; the detection
/// counters, QoE sums, and NMS pair counts must agree bit for bit.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/detect/runner.hpp"
#include "adaflow/detect/scene.hpp"
#include "adaflow/detect/yolo.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/sim/fields.hpp"
#include "common.hpp"

namespace adaflow::bench {

void detect_bench(Report& report) {
  auto& [check, json] = report;
  bench::print_banner("Detection workload adaptation",
                      "YOLO-style pipeline: adaptive manager vs static accelerators "
                      "across a scene-density sweep");

  const fpga::FpgaDevice device = fpga::zcu104();
  const detect::YoloTopology topology = detect::yolo_tiny();
  const core::AcceleratorLibrary lib = detect::detection_library(device, topology);
  std::printf("%s\n", core::render_library_table(lib).c_str());

  core::RuntimeManagerConfig manager;
  manager.accuracy_threshold = 0.15;  // admit the full pruned-detector ladder

  // --- Part A: scene-density sweep ----------------------------------------
  std::printf("Part A: rush-hour scene at increasing density scales\n\n");
  const double duration = 40.0;
  const double onset = 10.0;
  const double ramp = 8.0;
  const double hold = 12.0;
  const std::vector<double> scales = {0.6, 1.0, 1.6};

  const auto make_policy = [&](const std::string& name) -> std::unique_ptr<edge::ServingPolicy> {
    if (name == "adaflow") {
      return std::make_unique<core::RuntimeManager>(lib, manager);
    }
    if (name == "finn") {
      return std::make_unique<core::StaticFinnPolicy>(lib);
    }
    return std::make_unique<detect::StaticFlexiblePolicy>(lib);
  };
  TextTable table({"scale", "policy", "QoE", "loss", "mAP proxy", "switches", "nms pairs"});
  std::vector<std::vector<double>> qoe;  // [scale][policy: adaflow, finn, flexible]

  for (double scale : scales) {
    const detect::SceneTrace scene =
        detect::rush_hour_scene(2.0, 10.0, onset, ramp, hold, duration, 0.5, 0.05, 7)
            .scaled(scale);
    const std::string scen = "rush_x" + std::to_string(static_cast<int>(scale * 100));
    qoe.emplace_back();

    for (const std::string name : {"adaflow", "finn", "flexible"}) {
      const edge::RunMetrics m = detect::run_detection(scene, *make_policy(name), 42);
      qoe.back().push_back(m.qoe());
      table.add_row({format_double(scale, 1), name, format_percent(m.qoe(), 1),
                     format_percent(m.frame_loss(), 1),
                     format_percent(m.detection.mean_map_proxy(), 1),
                     std::to_string(m.model_switches),
                     std::to_string(m.detection.nms_pairs_total)});
      json.set(scen, name + "_qoe", m.qoe(), Better::kHigher);
      json.set(scen, name + "_frame_loss", m.frame_loss(), Better::kLower);
      json.set(scen, name + "_map_mean", m.detection.mean_map_proxy(), Better::kHigher);

      check(m.detection.true_positives + m.detection.missed_objects ==
                m.detection.objects_total,
            "detection ledger conserves (tp + missed == objects)");
      // The frame still in service when the trace ends is scored at service
      // entry but never finishes, so scored may lead processed by one.
      const std::int64_t scored_lead =
          m.detection.frames_scored - static_cast<std::int64_t>(m.processed);
      check(scored_lead >= 0 && scored_lead <= 1, "every processed frame ran the detection head");
    }
  }
  std::printf("\n%s\n", table.render().c_str());

  for (std::size_t s = 0; s < scales.size(); ++s) {
    if (scales[s] < 1.0) {
      continue;  // quiet scenes: everyone keeps up, no win expected
    }
    check(qoe[s][0] > qoe[s][1],
          "adaptive beats the static Fixed (FINN) detector at this density");
    check(qoe[s][0] > qoe[s][2],
          "adaptive beats the static Flexible detector at this density");
  }

  // --- Part B: bit-identical replay ----------------------------------------
  std::printf("\nPart B: same-seed replay\n\n");
  {
    const detect::SceneTrace scene =
        detect::rush_hour_scene(2.0, 10.0, onset, ramp, hold, duration, 0.5, 0.05, 7);
    core::RuntimeManager first_policy(lib, manager);
    core::RuntimeManager second_policy(lib, manager);
    const edge::RunMetrics first = detect::run_detection(scene, first_policy, 42);
    const edge::RunMetrics second = detect::run_detection(scene, second_policy, 42);
    check(sim::identical(first, second), "same seed replays the detection run bit-identically");
  }
}

}  // namespace adaflow::bench
