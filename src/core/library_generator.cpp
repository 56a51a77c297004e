#include "adaflow/core/library_generator.hpp"

#include <cmath>

#include "adaflow/common/logging.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/dse/explorer.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/trainer.hpp"
#include "adaflow/pruning/prune.hpp"

namespace adaflow::core {

std::vector<double> LibraryConfig::default_rates() {
  std::vector<double> rates;
  for (int p = 0; p <= 85; p += 5) {
    rates.push_back(static_cast<double>(p) / 100.0);
  }
  return rates;
}

namespace {

/// Folding auto-tune: device share the shared worst-case folding may use.
constexpr double kTuneBudgetFraction = 0.8;
/// Folding auto-tune: cap on lcm(PE, SIMD_next) / ch_out, so the shipped
/// folding still admits the 5%-step rate sweep.
constexpr double kTunePruneGranularity = 0.25;
/// Folding auto-tune: beam width for large lattices.
constexpr int kTuneBeam = 8;

std::string version_name(const std::string& model, double rate) {
  return model + "@p" + std::to_string(static_cast<int>(std::llround(rate * 100)));
}

dse::ExplorerConfig base_tune_config(const LibraryConfig& config) {
  dse::ExplorerConfig ec;
  ec.objective = dse::Objective::kMinResources;
  ec.target_fps = config.target_base_fps;
  ec.budget_fraction = kTuneBudgetFraction;
  ec.variant = hls::AcceleratorVariant::kFixed;
  ec.constraints.max_prune_granularity = kTunePruneGranularity;
  ec.beam_width = kTuneBeam;
  ec.anneal_iters = config.tune_anneal_iters;
  ec.seed = config.seed;
  ec.resource_constants = config.resource_constants;
  return ec;
}

/// Shared worst-case folding: cheapest one sustaining target_base_fps, with
/// the pruning-granularity constraint so the shipped folding still admits the
/// 5%-step rate sweep. Falls back to the heuristic when infeasible.
hls::FoldingConfig tuned_base_folding(const graph::Graph& graph,
                                      const hls::CompiledModel& geometry,
                                      const fpga::FpgaDevice& device,
                                      const LibraryConfig& config) {
  const dse::ExplorationResult r = dse::explore(graph, device, base_tune_config(config));
  if (r.frontier.empty() || !r.objective_met) {
    log_warn("folding auto-tune found no feasible design meeting ", config.target_base_fps,
             " fps within ", kTuneBudgetFraction,
             " of the device; falling back to the heuristic folding");
    return hls::folding_for_target_fps(geometry, config.target_base_fps, device.clock_hz);
  }
  return r.best().folding;
}

}  // namespace

LibraryPricer::LibraryPricer(const fpga::FpgaDevice& device, int weight_bits, int act_bits,
                             const fpga::ResourceModelConstants& resource_constants,
                             const fpga::PowerModelConstants& power_constants,
                             double flexible_toggle_floor)
    : weight_bits_(weight_bits), act_bits_(act_bits), resource_constants_(resource_constants),
      idle_activity_(power_constants.idle_activity),
      flexible_toggle_floor_(flexible_toggle_floor), power_(device, power_constants),
      reconfig_(device) {}

void LibraryPricer::price_version(ModelVersion& v, const hls::CompiledModel& compiled,
                                  const hls::FoldingConfig& fixed_folding,
                                  const hls::FoldingConfig& flexible_folding,
                                  const hls::CompiledModel& switch_geometry) const {
  const double clock_hz = power_.device().clock_hz;
  const perf::PerfReport fixed_perf =
      perf::analyze(compiled, fixed_folding, hls::AcceleratorVariant::kFixed, clock_hz);
  const perf::PerfReport flex_perf =
      perf::analyze(compiled, flexible_folding, hls::AcceleratorVariant::kFlexible, clock_hz);
  v.fps_fixed = fixed_perf.fps;
  v.fps_flexible = flex_perf.fps;
  v.latency_fixed_s = fixed_perf.latency_s;
  v.latency_flexible_s = flex_perf.latency_s;

  v.folding_fixed = fixed_folding;
  v.resources_fixed =
      fpga::accelerator_resources(compiled, fixed_folding, hls::AcceleratorVariant::kFixed,
                                  weight_bits_, act_bits_, resource_constants_);
  v.power_busy_fixed_w = power_.watts(v.resources_fixed, 1.0);
  v.power_idle_fixed_w = power_.watts(v.resources_fixed, 0.0);
  v.flexible_switch_time_s = reconfig_.flexible_switch_seconds(switch_geometry);
}

void LibraryPricer::price_shared(AcceleratorLibrary& library,
                                 const hls::CompiledModel& worstcase,
                                 const hls::FoldingConfig& folding) const {
  const fpga::FpgaDevice& device = power_.device();
  library.clock_hz = device.clock_hz;
  library.reconfig_time_s = reconfig_.full_reconfig_seconds();
  library.folding_flexible = folding;
  library.resources_finn =
      fpga::accelerator_resources(worstcase, folding, hls::AcceleratorVariant::kFixed,
                                  weight_bits_, act_bits_, resource_constants_);
  library.resources_flexible =
      fpga::accelerator_resources(worstcase, folding, hls::AcceleratorVariant::kFlexible,
                                  weight_bits_, act_bits_, resource_constants_);
  library.finn_power_busy_w = power_.watts(library.resources_finn, 1.0);
  library.finn_power_idle_w = power_.watts(library.resources_finn, 0.0);

  const double full_dyn = power_.dynamic_watts(library.resources_flexible);
  for (ModelVersion& v : library.versions) {
    const double active = 1.0 - v.achieved_rate;
    const double frac = v.requested_rate == 0.0
                            ? 1.0
                            : flexible_toggle_floor_ +
                                  (1.0 - flexible_toggle_floor_) * active * active;
    const double dyn = full_dyn * frac;
    v.power_busy_flexible_w = device.static_power_w + dyn;
    v.power_idle_flexible_w = device.static_power_w + dyn * idle_activity_;
  }
}

GeneratedLibrary LibraryGenerator::generate(const nn::CnvTopology& topology,
                                            const datasets::SyntheticDataset& dataset) const {
  return generate_graph(graph::from_cnv(topology), dataset);
}

GeneratedLibrary LibraryGenerator::generate_graph(
    const graph::Graph& graph, const datasets::SyntheticDataset& dataset) const {
  require(!config_.rates.empty(), "library needs at least one pruning rate");
  require(config_.rates.front() == 0.0, "the first library rate must be 0 (the unpruned model)");

  // 1. Train the initial model (quantization-aware, Brevitas substitute).
  nn::Model base = graph::lower_model(graph, config_.seed);
  {
    nn::TrainConfig tc;
    tc.epochs = config_.base_epochs;
    tc.lr = config_.base_lr;
    tc.batch_size = config_.batch_size;
    tc.lr_decay_epochs = {config_.base_epochs * 3 / 4};
    tc.seed = config_.seed;
    nn::Trainer(tc).fit(base, dataset.train);
  }

  // Accuracy is evaluated on images snapped to the accelerator's input grid,
  // i.e. exactly what the FPGA sees.
  const nn::LabeledData snapped_test{
      hls::snap_to_input_grid(dataset.test.images, config_.input_quant), dataset.test.labels};

  // 2. Folding for the worst case (unpruned) model at the target throughput —
  //    heuristic by default, design-space-explored when tuning is on — on the
  //    graph's weights-free stage list.
  const hls::CompiledModel geometry = graph::lower_geometry(graph);
  const int weight_bits = graph.quant().weight_bits;
  const int act_bits = graph.quant().act_bits;
  const hls::FoldingConfig folding =
      config_.tune_folding
          ? tuned_base_folding(graph, geometry, device_, config_)
          : hls::folding_for_target_fps(geometry, config_.target_base_fps, device_.clock_hz);
  hls::validate_folding(geometry, folding);

  // Equal-area cap for per-version retuning: whatever the unpruned Fixed
  // accelerator costs under the shared folding, no tuned version may exceed.
  const fpga::ResourceUsage base_fixed_area =
      fpga::accelerator_resources(geometry, folding, hls::AcceleratorVariant::kFixed,
                                  weight_bits, act_bits, config_.resource_constants);

  GeneratedLibrary out;
  out.folding = folding;
  out.table.model_name = base.name();
  out.table.topology_hash = graph.topology_hash();
  out.table.dataset_name = dataset.spec.name;
  const LibraryPricer pricer(device_, weight_bits, act_bits, config_.resource_constants,
                             config_.power_constants, config_.flexible_toggle_floor);

  // 3. Sweep pruning rates: prune -> retrain -> evaluate -> compile -> model
  //    performance/resources/power for both accelerator types.
  for (double rate : config_.rates) {
    // Pruning at 0% yields a structural copy of the base model.
    pruning::PruneResult pr = pruning::dataflow_aware_prune(base, folding, rate, config_.prune_options);
    const double achieved = pr.achieved_rate;
    nn::Model version_model = std::move(pr.model);
    if (rate > 0.0) {
      nn::TrainConfig tc;
      tc.epochs = config_.retrain_epochs;
      tc.lr = config_.retrain_lr;
      tc.batch_size = config_.batch_size;
      if (config_.retrain_epochs > 1) {
        tc.lr_decay_epochs = {config_.retrain_epochs - 1};
      }
      tc.seed = config_.seed + static_cast<std::uint64_t>(std::llround(rate * 100));
      nn::Trainer(tc).fit(version_model, dataset.train);
    }
    version_model.set_name(version_name(out.table.model_name, rate));

    ModelVersion v;
    v.version = version_model.name();
    v.requested_rate = rate;
    v.achieved_rate = achieved;
    v.accuracy = nn::Trainer::evaluate(version_model, snapped_test);

    hls::CompiledModel compiled =
        hls::compile_model(version_model, rate, config_.input_quant);
    compiled.accuracy = v.accuracy;

    // Per-version Fixed folding: retuned to the pruned channel counts when
    // the auto-tuner is on (max fps within the unpruned accelerator's area),
    // the shared worst-case folding otherwise.
    hls::FoldingConfig fixed_folding = folding;
    if (config_.tune_folding) {
      dse::ExplorerConfig ec = base_tune_config(config_);
      ec.objective = dse::Objective::kMaxFps;
      ec.target_fps = 0.0;
      ec.budget = base_fixed_area;
      ec.constraints.max_prune_granularity = 0.0;  // version accelerators are final
      ec.seed = config_.seed + static_cast<std::uint64_t>(std::llround(rate * 100));
      const dse::ExplorationResult tuned =
          dse::explore_geometry(compiled, weight_bits, act_bits, device_, ec);
      if (tuned.frontier.empty()) {
        log_warn("folding auto-tune infeasible for ", v.version,
                 "; keeping the shared folding");
      } else {
        fixed_folding = tuned.best().folding;
      }
    }
    // Flexible always runs the shared worst-case folding (the accelerator
    // actually on the fabric); its fast switch streams this version's weights.
    pricer.price_version(v, compiled, fixed_folding, folding, compiled);

    out.compiled.push_back(std::move(compiled));
    out.table.versions.push_back(std::move(v));

    log_info("library ", out.table.model_name, "/", out.table.dataset_name, " ",
             out.table.versions.back().version, ": acc=",
             format_percent(out.table.versions.back().accuracy, 1),
             " fps_fixed=", format_double(out.table.versions.back().fps_fixed, 0));
  }

  // 4. Shared accelerators: original FINN (baseline) and the Flexible one,
  //    both sized for the worst case (the unpruned rate-0 version), and the
  //    Flexible operating point of every version.
  pricer.price_shared(out.table, out.compiled.front(), folding);
  out.table.base_accuracy = out.table.versions.front().accuracy;

  out.base_model = std::move(base);
  return out;
}

AcceleratorLibrary load_or_generate_library(const std::string& cache_path,
                                            const fpga::FpgaDevice& device,
                                            const LibraryConfig& config,
                                            const nn::CnvTopology& topology,
                                            const datasets::DatasetSpec& dataset_spec) {
  const std::uint64_t expected_hash = graph::from_cnv(topology).topology_hash();
  if (library_cache_exists(cache_path)) {
    try {
      log_info("loading cached library ", cache_path);
      AcceleratorLibrary cached = load_library(cache_path);
      if (cached.topology_hash != expected_hash) {
        throw ConfigError("library cache " + cache_path +
                          " was generated for a different topology (cache hash " +
                          std::to_string(cached.topology_hash) + ", expected " +
                          std::to_string(expected_hash) + ")");
      }
      return cached;
    } catch (const ConfigError& e) {
      // Stale schema, topology mismatch or corrupt file: regenerate rather
      // than fail the run.
      log_warn("discarding library cache: ", e.what());
    }
  }
  log_info("generating library ", topology.name, "/", dataset_spec.name,
           " (cache miss: ", cache_path, ")");
  const datasets::SyntheticDataset dataset = datasets::generate(dataset_spec);
  LibraryGenerator generator(device, config);
  GeneratedLibrary generated = generator.generate(topology, dataset);
  save_library(generated.table, cache_path);
  return generated.table;
}

}  // namespace adaflow::core
