/// `bench_adaflow forecast`: predictive workload modeling vs the reactive baseline.
///
/// Part A rates the online forecasters (naive / EWMA / Holt-Winters) on
/// deterministic sampled traces — a smooth diurnal cycle and the paper's
/// bursty Scenario 2 — reporting horizon-ahead MAPE and prediction-interval
/// coverage from the same ForecastTracker the proactive manager runs. The
/// trend model must beat last-value carry-forward on the trending trace.
///
/// Part B is the headline comparison: the reactive AdaFlow Runtime Manager
/// vs the ProactiveRuntimeManager (same reactive core, forecast-driven
/// demand + accelerator pinning) over repeated seeded runs of the paper's
/// Scenario 1+2 and a flash-crowd trace. Acceptance: the proactive policy
/// strictly reduces threshold-violation time and switch-stall time at
/// equal-or-better accuracy-seconds, with forecast MAPE surfaced in
/// RunMetrics.
///
/// Part C replays one proactive flash-crowd run twice with the same seed and
/// requires bit-identical RunMetrics including the forecast series — the
/// forecast state is a pure function of the observation sequence, so the
/// predictive layer inherits the simulator's determinism guarantee.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/core/proactive_manager.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/forecast/tracker.hpp"
#include "adaflow/sim/fields.hpp"
#include "common.hpp"

namespace adaflow::bench {
namespace {

/// Runs one forecaster over a trace sampled at a fixed window cadence —
/// exactly the observation stream the proactive manager would see from a
/// perfect rate monitor.
forecast::ForecastTracker track_trace(const edge::WorkloadTrace& trace,
                                      forecast::ForecasterKind kind, double window_s) {
  forecast::ForecastTrackerConfig config;
  config.forecaster.kind = kind;
  config.window_s = window_s;
  forecast::ForecastTracker tracker(config);
  for (double t = window_s; t <= trace.duration() + 1e-9; t += window_s) {
    tracker.observe(trace.rate_at(t - window_s / 2.0));
  }
  return tracker;
}

core::ProactiveConfig proactive_config(const core::RuntimeManagerConfig& manager,
                                       const edge::ServerConfig& server) {
  core::ProactiveConfig config;
  config.manager = manager;
  // The tracker sees one observation per monitor poll.
  config.forecast.window_s = server.poll_interval_s;
  return config;
}

struct Contest {
  edge::RepeatedRunResult reactive;
  edge::RepeatedRunResult proactive;
};

template <typename TraceFactory>
Contest contest(TraceFactory&& traces, const core::AcceleratorLibrary& lib,
                const core::RuntimeManagerConfig& manager, const edge::ServerConfig& server,
                int runs, std::uint64_t seed_base) {
  Contest out;
  out.reactive = edge::run_repeated(
      traces, [&] { return core::make_serving_policy(core::PolicyKind::kAdaFlow, lib, manager); },
      server, runs, seed_base);
  out.proactive = edge::run_repeated(
      traces,
      [&] {
        return std::make_unique<core::ProactiveRuntimeManager>(lib,
                                                               proactive_config(manager, server));
      },
      server, runs, seed_base);
  return out;
}

void add_row(TextTable& table, const std::string& workload, const std::string& policy,
             const edge::RepeatedRunResult& r) {
  const edge::RunMetrics& m = r.mean;
  table.add_row({workload, policy, format_percent(r.pooled_frame_loss, 2),
                 format_double(r.pooled_qoe, 4), format_double(m.violation_s, 3),
                 format_double(m.switch_stall_s, 3), std::to_string(m.reconfigurations),
                 format_double(m.qoe_accuracy_sum, 1),
                 m.forecast.forecasts > 0 ? format_percent(m.forecast.mape(), 1) : "-"});
}

}  // namespace

void forecast_bench(Report& report) {
  auto& [check, json] = report;
  bench::print_banner("Workload forecasting",
                      "online forecasters + proactive vs reactive runtime adaptation");

  const core::AcceleratorLibrary lib = core::synthetic_library();
  const core::RuntimeManagerConfig manager;
  const edge::ServerConfig server;
  const int runs = bench::bench_runs();

  // --- Part A: forecaster quality on deterministic traces -----------------
  std::printf("Part A: horizon-ahead forecast quality (window 0.5 s, horizon 3)\n\n");
  const double quality_duration = 180.0;
  const edge::WorkloadTrace diurnal = edge::diurnal_trace(
      300.0, 900.0, /*period_s=*/40.0, quality_duration, /*step_s=*/0.5, /*jitter=*/0.05, 7);
  const edge::WorkloadTrace bursty(edge::scenario2(60.0), 7);
  const std::vector<std::pair<std::string, const edge::WorkloadTrace*>> quality_traces = {
      {"diurnal", &diurnal}, {"scenario2", &bursty}};
  const std::vector<forecast::ForecasterKind> kinds = {forecast::ForecasterKind::kNaive,
                                                       forecast::ForecasterKind::kEwma,
                                                       forecast::ForecasterKind::kHoltWinters};

  TextTable quality({"trace", "forecaster", "windows", "MAPE", "coverage", "changepoints"});
  std::map<std::string, double> mape;
  for (const auto& [trace_name, trace] : quality_traces) {
    for (forecast::ForecasterKind kind : kinds) {
      const forecast::ForecastTracker tracker = track_trace(*trace, kind, 0.5);
      const sim::ForecastStats& s = tracker.stats();
      quality.add_row({trace_name, forecast::forecaster_kind_name(kind),
                       std::to_string(s.forecasts), format_percent(s.mape(), 1),
                       format_percent(s.coverage(), 1), std::to_string(s.changepoints)});
      mape[trace_name + "/" + forecast::forecaster_kind_name(kind)] = s.mape();
      const std::string kind_name = forecast::forecaster_kind_name(kind);
      json.set(trace_name, kind_name + "_mape", s.mape(), Better::kLower);
      json.set(trace_name, kind_name + "_coverage", s.coverage(), Better::kHigher);
    }
  }
  std::printf("%s\n", quality.render().c_str());
  check(mape["diurnal/holt-winters"] < mape["diurnal/naive"],
        "trend model beats last-value carry-forward on the diurnal trace");
  check(mape["diurnal/ewma"] < 0.5 && mape["scenario2/ewma"] < 1.0,
        "forecast error stays in a sane range on both traces");

  // Determinism of the tracker itself: same trace, same config, same stats.
  {
    const forecast::ForecastTracker a =
        track_trace(diurnal, forecast::ForecasterKind::kHoltWinters, 0.5);
    const forecast::ForecastTracker b =
        track_trace(diurnal, forecast::ForecasterKind::kHoltWinters, 0.5);
    check(sim::identical(a.stats(), b.stats()),
          "forecast tracking is bit-identical across replays");
  }

  // --- Part B: reactive vs proactive runtime adaptation -------------------
  std::printf("\nPart B: reactive vs proactive Runtime Manager (%d runs each)\n\n", runs);
  const edge::WorkloadConfig s12 = edge::scenario1_plus_2(15.0, 25.0);
  auto flash = [](std::uint64_t seed) {
    return edge::flash_crowd_trace(/*base_fps=*/250.0, /*peak_fps=*/1250.0, /*onset_s=*/8.0,
                                   /*ramp_s=*/3.0, /*hold_s=*/8.0, /*duration_s=*/30.0,
                                   /*step_s=*/0.5, /*jitter=*/0.05, seed);
  };

  const Contest on_s12 = contest(
      [&s12](std::uint64_t seed) { return edge::WorkloadTrace(s12, seed); }, lib, manager, server,
      runs, 2000);
  const Contest on_flash = contest(flash, lib, manager, server, runs, 3000);

  TextTable table({"workload", "policy", "loss", "QoE", "violation_s", "stall_s", "reconfigs",
                   "acc_seconds", "MAPE"});
  add_row(table, "scenario 1+2", "reactive", on_s12.reactive);
  add_row(table, "scenario 1+2", "proactive", on_s12.proactive);
  add_row(table, "flash crowd", "reactive", on_flash.reactive);
  add_row(table, "flash crowd", "proactive", on_flash.proactive);
  std::printf("%s\n", table.render().c_str());

  for (const auto& [name, c] : {std::pair<const char*, const Contest*>{"scenario_1_2", &on_s12},
                                {"flash_crowd", &on_flash}}) {
    const edge::RunMetrics& rea = c->reactive.mean;
    const edge::RunMetrics& pro = c->proactive.mean;
    for (const auto& [policy, r] :
         {std::pair<const char*, const edge::RepeatedRunResult*>{"reactive", &c->reactive},
          {"proactive", &c->proactive}}) {
      json.set(name, std::string(policy) + "_qoe", r->pooled_qoe, Better::kHigher);
      json.set(name, std::string(policy) + "_frame_loss", r->pooled_frame_loss, Better::kLower);
      json.set(name, std::string(policy) + "_violation_s", r->mean.violation_s, Better::kLower);
      json.set(name, std::string(policy) + "_stall_s", r->mean.switch_stall_s, Better::kLower);
    }
    std::printf("%s:\n", name);
    check(pro.violation_s < rea.violation_s, "proactive strictly reduces threshold-violation time");
    check(pro.switch_stall_s < rea.switch_stall_s, "proactive strictly reduces switch-stall time");
    check(pro.qoe_accuracy_sum >= rea.qoe_accuracy_sum,
          "proactive serves equal-or-better accuracy-seconds");
    check(pro.forecast.forecasts > 0, "forecast MAPE is surfaced in RunMetrics");
  }

  // --- Part C: bit-identical replay of a proactive run --------------------
  std::printf("\nPart C: determinism\n\n");
  const edge::WorkloadTrace replay_trace = flash(42);
  auto proactive_once = [&] {
    core::ProactiveRuntimeManager policy(lib, proactive_config(manager, server));
    return edge::run_simulation(replay_trace, policy, server, 777);
  };
  const edge::RunMetrics first = proactive_once();
  const edge::RunMetrics second = proactive_once();
  check(sim::identical(first, second),
        "same seed replays the proactive run bit-identically, forecasts included");

  bench::export_figure(
      "fig_forecast_flash_crowd", "Forecast vs actual arrival rate (flash crowd)", "FPS",
      {{"actual", first.forecast_actual_series}, {"predicted", first.forecast_pred_series}});
}

}  // namespace adaflow::bench
