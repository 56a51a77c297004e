/// `bench_adaflow tenant`: three tenants fighting over eight devices.
///
/// The contention scenario: a steady tenant (constant 800 FPS, tight 87%
/// accuracy floor), a diurnal tenant (sinusoid between 300 and 1200 FPS),
/// and a flash-crowd tenant (300 FPS base spiking to 4500 FPS, token-bucket
/// capped at 4000) share one eight-device fleet serving the synthetic
/// library. The same offered load runs under four serving stacks:
///
///   fifo_peak  shared FIFO ingress + static peak-FPS partition (hard,
///              demand-blind equal shares) — the baseline. The flash crowd
///              overruns its two devices, its stuck head-of-line frames
///              block the shared FIFO, and every tenant's SLO burns.
///   wfq_rate   per-tenant weighted-fair ingress + data-rate-aware
///              partitioning with borrowing — the treatment. WFQ isolates
///              the victims at ingress while the coordinator re-plans the
///              device split and library versions against each tenant's
///              forecast-floored admitted rate.
///   wfq_peak / fifo_rate — the two single-axis ablations, emitted to the
///              JSON artefact so PR-over-PR tracking sees which axis moved.
///
/// Enforced checks: the baseline actually suffers (worst-tenant
/// SLO-violation time > 0), the treatment strictly reduces worst-tenant and
/// total violation time, no treatment tenant's in-budget delivered accuracy
/// dips below its accuracy floor, rate-aware serving raises delivered
/// accuracy over peak-FPS serving, per-run flow conservation, and
/// bit-identical same-seed replay. Records its headline numbers in
/// BENCH_tenant.json.

#include <cstdio>
#include <string>

#include "adaflow/common/error.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/tenant/serving.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

constexpr std::uint64_t kSeed = 42;

/// The three-tenant contention scenario over \p duration_s seconds.
tenant::MultiTenantConfig contention_config(double duration_s,
                                            tenant::SchedulerPolicy scheduler,
                                            tenant::PartitionPolicy partition,
                                            bool allow_borrow) {
  tenant::MultiTenantConfig config;
  config.devices = 8;
  config.duration_s = duration_s;
  config.scheduler = scheduler;
  config.partition = partition;
  config.allow_borrow = allow_borrow;

  tenant::TenantSpec steady;
  steady.name = "steady";
  steady.accuracy_threshold = 0.03;  // floor 0.87: the two most accurate versions
  steady.slo.max_latency_s = 0.04;
  steady.slo.min_deliver_fraction = 0.8;
  steady.admission.rate_fps = 1000.0;
  steady.admission.burst_frames = 64.0;
  steady.trace = edge::WorkloadTrace({0.0}, {800.0}, duration_s);

  tenant::TenantSpec diurnal;
  diurnal.name = "diurnal";
  diurnal.accuracy_threshold = 0.07;  // floor 0.83
  diurnal.slo.max_latency_s = 0.05;
  diurnal.slo.min_deliver_fraction = 0.8;
  diurnal.admission.rate_fps = 1400.0;
  diurnal.admission.burst_frames = 64.0;
  diurnal.trace = edge::diurnal_trace(300.0, 1200.0, duration_s * 0.5, duration_s,
                                      /*step_s=*/1.0, /*jitter=*/0.05, kSeed + 1);

  tenant::TenantSpec flash;
  flash.name = "flash";
  flash.accuracy_threshold = 0.12;  // floor 0.78: the whole library
  flash.slo.max_latency_s = 0.08;
  flash.slo.min_deliver_fraction = 0.75;
  flash.admission.rate_fps = 4000.0;  // the 4500-FPS spike tip is throttled
  flash.admission.burst_frames = 128.0;
  flash.ingress_capacity = 96;
  flash.trace = edge::flash_crowd_trace(300.0, 4500.0, /*onset_s=*/duration_s * 0.35,
                                        /*ramp_s=*/duration_s * 0.1,
                                        /*hold_s=*/duration_s * 0.2, duration_s,
                                        /*step_s=*/0.5, /*jitter=*/0.05, kSeed + 2);

  config.tenants = {steady, diurnal, flash};
  return config;
}

tenant::MultiTenantMetrics run(double duration_s, tenant::SchedulerPolicy scheduler,
                               tenant::PartitionPolicy partition, bool allow_borrow,
                               const core::AcceleratorLibrary& lib) {
  return tenant::run_tenants(contention_config(duration_s, scheduler, partition, allow_borrow),
                             lib, kSeed);
}

/// Delivered-frame-weighted mean accuracy across all tenants.
double fleet_accuracy(const tenant::MultiTenantMetrics& m) {
  double quality = 0.0;
  std::int64_t delivered = 0;
  for (const tenant::TenantResult& t : m.tenants) {
    quality += t.usage.qoe_accuracy_sum;
    delivered += t.usage.delivered;
  }
  return delivered > 0 ? quality / static_cast<double>(delivered) : 0.0;
}

void emit(bench::BenchJson& json, const std::string& scenario,
          const tenant::MultiTenantMetrics& m) {
  json.set(scenario, "worst_violation_s", m.worst_violation_s, Better::kLower);
  json.set(scenario, "total_violation_s", m.total_violation_s, Better::kLower);
  json.set(scenario, "mean_accuracy", fleet_accuracy(m), Better::kHigher);
  json.set(scenario, "device_moves", m.device_moves, Better::kInfo);
  json.set(scenario, "version_switches", m.version_switches, Better::kInfo);
  for (const tenant::TenantResult& t : m.tenants) {
    const std::string& name = t.usage.name;
    json.set(scenario, name + "_violation_s", t.usage.slo_violation_s, Better::kLower);
    json.set(scenario, name + "_delivered", t.usage.delivered, Better::kHigher);
    json.set(scenario, name + "_throttled", t.usage.throttled, Better::kLower);
    json.set(scenario, name + "_p99_ms", t.latency_p99_s * 1e3, Better::kLower);
    json.set(scenario, name + "_accuracy", t.mean_accuracy, Better::kHigher);
  }
}

void print_result(const char* name, const tenant::MultiTenantMetrics& m) {
  TextTable table({"tenant", "offered", "admitted", "delivered", "shed+lost", "viol[s]",
                   "p99[ms]", "accuracy", "in-budget", "floor"});
  for (const tenant::TenantResult& t : m.tenants) {
    table.add_row({t.usage.name, std::to_string(t.usage.offered),
                   std::to_string(t.usage.admitted), std::to_string(t.usage.delivered),
                   std::to_string(t.usage.shed + t.usage.lost),
                   format_double(t.usage.slo_violation_s, 1),
                   format_double(t.latency_p99_s * 1e3, 1), format_percent(t.mean_accuracy, 1),
                   format_percent(t.in_budget_accuracy, 1),
                   format_percent(t.accuracy_floor, 1)});
  }
  std::printf("--- %s ---\n%s", name, table.render().c_str());
  std::printf("worst violation %.1fs, total %.1fs, %lld device moves, %lld version switches\n",
              m.worst_violation_s, m.total_violation_s,
              static_cast<long long>(m.device_moves),
              static_cast<long long>(m.version_switches));
}

}  // namespace

void tenant_bench(Report& report) {
  auto& [check, json] = report;
  const double duration_s = 48.0;
  bench::print_banner("tenant",
                      "multi-tenant contention: WFQ + rate-aware partitioning vs FIFO + peak-FPS");

  const core::AcceleratorLibrary lib = core::synthetic_library();

  const tenant::MultiTenantMetrics baseline =
      run(duration_s, tenant::SchedulerPolicy::kFifo, tenant::PartitionPolicy::kPeakFps,
          /*allow_borrow=*/false, lib);
  const tenant::MultiTenantMetrics treatment =
      run(duration_s, tenant::SchedulerPolicy::kWfq, tenant::PartitionPolicy::kRateAware,
          /*allow_borrow=*/true, lib);
  const tenant::MultiTenantMetrics wfq_only =
      run(duration_s, tenant::SchedulerPolicy::kWfq, tenant::PartitionPolicy::kPeakFps,
          /*allow_borrow=*/false, lib);
  const tenant::MultiTenantMetrics rate_only =
      run(duration_s, tenant::SchedulerPolicy::kFifo, tenant::PartitionPolicy::kRateAware,
          /*allow_borrow=*/true, lib);

  print_result("fifo_peak (baseline)", baseline);
  print_result("wfq_rate (treatment)", treatment);
  print_result("wfq_peak (ablation)", wfq_only);
  print_result("fifo_rate (ablation)", rate_only);

  for (const auto* m : {&baseline, &treatment, &wfq_only, &rate_only}) {
    check(fleet::conserves_flow(m->fleet), "flow conservation (fleet::conserves_flow)");
  }

  // The headline: contention has to hurt the baseline, and the treatment has
  // to strictly reduce the worst tenant's pain.
  check(baseline.worst_violation_s > 0.0, "baseline suffers SLO violations under contention");
  check(treatment.worst_violation_s < baseline.worst_violation_s,
        "WFQ + rate-aware strictly reduces worst-tenant SLO-violation time");
  check(treatment.total_violation_s < baseline.total_violation_s,
        "WFQ + rate-aware strictly reduces total SLO-violation time");

  // QoE floors: while a tenant stays inside its admitted budget, the
  // treatment must serve it at or above its accuracy floor.
  for (const tenant::TenantResult& t : treatment.tenants) {
    check(t.in_budget_delivered > 0, t.usage.name + " delivers frames while in budget");
    check(t.in_budget_accuracy >= t.accuracy_floor - 1e-9,
          t.usage.name + " in-budget accuracy stays above its floor");
  }

  // Rate-aware serving trades spare throughput back into accuracy.
  check(fleet_accuracy(treatment) > fleet_accuracy(baseline),
        "rate-aware serving delivers higher mean accuracy than peak-FPS");
  check(treatment.device_moves > 0, "the coordinator actually re-partitions devices");
  check(treatment.fleet.tenants.size() == 3, "per-tenant usage rows reach FleetMetrics");

  // Admission control: the flash tenant's 4500-FPS spike tip must be
  // throttled at the door, not converted into cluster-wide queueing.
  check(treatment.tenants[2].usage.throttled > 0,
        "token-bucket admission throttles the flash crowd's spike tip");

  // Bit-identical same-seed replay.
  const tenant::MultiTenantMetrics replay =
      run(duration_s, tenant::SchedulerPolicy::kWfq, tenant::PartitionPolicy::kRateAware,
          /*allow_borrow=*/true, lib);
  check(sim::identical(treatment, replay), "same-seed replay is bit-identical");

  emit(json, "fifo_peak", baseline);
  emit(json, "wfq_rate", treatment);
  emit(json, "wfq_peak", wfq_only);
  emit(json, "fifo_rate", rate_only);
}

}  // namespace adaflow::bench
