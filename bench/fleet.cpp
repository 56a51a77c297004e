/// `bench_adaflow fleet`: the fleet serving layer (src/fleet) against single-device
/// baselines, at equal aggregate FPS.
///
/// Part A sweeps the routing policies over a heterogeneous three-device
/// fleet under a bursty near-capacity trace. Expected shape: the load-aware
/// routers lose strictly fewer frames than blind round robin, because round
/// robin enters every burst with the slow device's queue already pegged.
///
/// Part B compares a coordinated fleet (three Fixed devices, the cluster
/// generalization of the paper's switch-interval rule: drain one device,
/// reconfigure it, let the others absorb the traffic) against the paper's
/// single-device baselines (static FINN, reconfiguration-only, AdaFlow)
/// given the same aggregate FPS in one box, plus oracle-pinned references
/// and three independent uncoordinated servers. Expected shape: fleet QoE
/// >= the best deployable single-device baseline — coordinated Fixed-only
/// reconfiguration never stalls the whole cluster, so it keeps up with even
/// the Flexible-equipped single box.
///
/// Part C replays one fleet configuration twice with the same seed and
/// requires bit-identical metrics (the fleet layer inherits the simulator's
/// determinism guarantee).

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/sim/fields.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

void emit_fleet(bench::BenchJson& json, const std::string& scenario,
                const fleet::FleetMetrics& m) {
  json.set(scenario, "frame_loss", m.frame_loss(), Better::kLower);
  json.set(scenario, "qoe", m.qoe(), Better::kHigher);
  json.set(scenario, "p95_ms", m.tail_latency_p95_s * 1e3, Better::kLower);
  json.set(scenario, "power_w", m.average_power_w(), Better::kLower);
  json.set(scenario, "reconfigurations", m.reconfigurations, Better::kInfo);
}

void emit_single(bench::BenchJson& json, const std::string& scenario,
                 const edge::RunMetrics& m) {
  json.set(scenario, "frame_loss", m.frame_loss(), Better::kLower);
  json.set(scenario, "qoe", m.qoe(), Better::kHigher);
  json.set(scenario, "power_w", m.average_power_w(), Better::kLower);
  json.set(scenario, "reconfigurations", m.reconfigurations, Better::kInfo);
}

void add_fleet_row(TextTable& table, const std::string& name, const fleet::FleetMetrics& m) {
  table.add_row({name, format_percent(m.frame_loss(), 2), format_percent(m.qoe(), 2),
                 format_double(m.tail_latency_p95_s * 1e3, 0),
                 format_double(m.average_power_w(), 1), std::to_string(m.model_switches),
                 std::to_string(m.reconfigurations), std::to_string(m.repartitions)});
}

void add_single_row(TextTable& table, const std::string& name, const edge::RunMetrics& m) {
  table.add_row({name, format_percent(m.frame_loss(), 2), format_percent(m.qoe(), 2), "-",
                 format_double(m.average_power_w(), 1), std::to_string(m.model_switches),
                 std::to_string(m.reconfigurations), "-"});
}

}  // namespace

void fleet_bench(Report& report) {
  auto& [check, json] = report;
  const double duration = 30.0;
  bench::print_banner("Fleet serving",
                      "multi-FPGA cluster vs single-device baselines at equal aggregate FPS");

  const core::AcceleratorLibrary lib = core::synthetic_library();

  // --- Part A: router sweep on a heterogeneous fleet ----------------------
  const core::AcceleratorLibrary slow = core::scale_library_fps(lib, 0.5);
  const core::AcceleratorLibrary fast = core::scale_library_fps(lib, 2.0);
  fleet::FleetConfig hetero;
  hetero.devices = {fleet::pinned_device("slow-0.5x", slow, 0),
                    fleet::pinned_device("mid-1.0x", lib, 0),
                    fleet::pinned_device("fast-2.0x", fast, 0)};
  const edge::WorkloadTrace burst_trace(bench::stream(1600.0, 0.7, 0.5, duration), 17);

  TextTable sweep({"router", "frame_loss", "QoE", "p95[ms]", "power[W]", "switches", "reconfigs",
                   "repartitions"});
  std::map<std::string, double> loss;  // by router name
  for (const std::string& name : fleet::router_names()) {
    const fleet::FleetMetrics m =
        shard::run_sharded_fleet(burst_trace, lib, hetero, {}, name, 99).fleet;
    add_fleet_row(sweep, name, m);
    emit_fleet(json, "router_" + name, m);
    loss[name] = m.frame_loss();
  }
  std::printf("heterogeneous fleet (250 + 500 + 1000 FPS), bursty %.0f-FPS trace:\n%s\n", 1600.0,
              sweep.render().c_str());
  check(loss["least-loaded"] < loss["round-robin"],
        "least-loaded loses fewer frames than round robin");
  check(loss["accuracy-aware"] <= loss["round-robin"],
        "accuracy-aware never loses more than round robin");

  // --- Part B: coordinated fleet vs single devices at equal aggregate FPS -
  // Wide +-50% shifts every 5 s: no single static operating point stays
  // right — over-provisioning costs accuracy, under-provisioning loses
  // frames — which is exactly the regime adaptation is for.
  const double shift_duration = 40.0;
  const edge::WorkloadTrace shift_trace(bench::stream(2100.0, 0.5, 5.0, shift_duration), 21);
  // Every contender starts correctly provisioned for the 2100-FPS mean
  // (version 1, ~725 FPS per device / ~2175 aggregate); what is measured is
  // how each copes once the rate starts shifting.
  fleet::FleetConfig coordinated;
  coordinated.devices = {fleet::pinned_device("a", lib, 1), fleet::pinned_device("b", lib, 1),
                         fleet::pinned_device("c", lib, 1)};
  coordinated.coordinator.enabled = true;
  // The paper's 10x switch-interval rule amortizes a whole-device stall; a
  // fleet repartition idles only one of three devices, so the cluster-wide
  // spacing shrinks by the same factor. Shorter warmup/window because the
  // single-device baselines react at their own 0.4 s estimation window.
  coordinated.coordinator.switch_interval_factor = 10.0 / 3.0;
  coordinated.coordinator.warmup_s = 0.5;
  coordinated.coordinator.estimate_window_s = 0.5;
  coordinated.coordinator.poll_interval_s = 0.25;
  coordinated.coordinator.drain_timeout_s = 0.5;
  const fleet::FleetMetrics fleet_m =
      shard::run_sharded_fleet(shift_trace, lib, coordinated, {}, "least-loaded", 7).fleet;

  // Baselines run one device with 3x the FPS of every version — the same
  // aggregate capacity in one box.
  const core::AcceleratorLibrary big = core::scale_library_fps(lib, 3.0);
  edge::ServerConfig server;
  TextTable table({"config", "frame_loss", "QoE", "p95[ms]", "power[W]", "switches", "reconfigs",
                   "repartitions"});
  add_fleet_row(table, "fleet-coordinated (3x 1.0x)", fleet_m);
  emit_fleet(json, "fleet_coordinated", fleet_m);

  // The paper's single-device baselines (static FINN, reconfiguration-only,
  // the AdaFlow Runtime Manager), each given the whole 3x budget. These are
  // the bar the fleet has to clear.
  core::RuntimeManagerConfig rmc;
  double best_single_qoe = 0.0;
  for (core::PolicyKind kind :
       {core::PolicyKind::kStaticFinn, core::PolicyKind::kReconfOnly, core::PolicyKind::kAdaFlow}) {
    auto policy = core::make_serving_policy(kind, big, rmc);
    const edge::RunMetrics m = edge::run_simulation(shift_trace, *policy, server, 7);
    add_single_row(table, std::string("single-") + core::policy_kind_name(kind) + "-3.0x", m);
    emit_single(json, std::string("single_") + core::policy_kind_name(kind), m);
    best_single_qoe = std::max(best_single_qoe, m.qoe());
  }

  // Oracle references: a device statically pinned to the version that
  // happens to fit this particular trace. Needs knowledge no deployable
  // baseline has — shown for context, not enforced against.
  for (std::size_t v = 0; v < big.versions.size(); ++v) {
    fleet::PinnedPolicy pinned(big, v);
    const edge::RunMetrics m = edge::run_simulation(shift_trace, pinned, server, 7);
    add_single_row(table, "oracle-pinned-" + big.versions[v].version, m);
  }

  // Three independent AdaFlow servers, each facing a third of the traffic
  // with no load balancing between them.
  edge::RunMetrics indep_total;
  for (int i = 0; i < 3; ++i) {
    const edge::WorkloadTrace third(bench::stream(700.0, 0.5, 5.0, shift_duration), 100 + i);
    core::RuntimeManager m3(lib, rmc);
    sim::merge(indep_total, edge::run_simulation(third, m3, server, 200 + i));
  }
  add_single_row(table, "independent-3x (no balancing)", indep_total);

  std::printf("coordinated fleet vs single devices, shifting %.0f-FPS trace:\n%s\n", 2100.0,
              table.render().c_str());
  check(fleet_m.qoe() >= best_single_qoe,
        "fleet QoE >= best single-device baseline at equal aggregate FPS");
  check(fleet_m.repartitions > 0, "the coordinator actually repartitioned");

  // --- Part C: determinism ------------------------------------------------
  auto replay = [&] {
    return shard::run_sharded_fleet(burst_trace, lib, hetero, {}, "least-loaded", 12345).fleet;
  };
  const fleet::FleetMetrics d1 = replay();
  const fleet::FleetMetrics d2 = replay();
  check(sim::identical(d1, d2), "same seed replays the fleet bit-identically");
}

}  // namespace adaflow::bench
