/// adaflow — command-line front end to the library.
///
/// `adaflow` alone lists the subcommands (the kCommands table below);
/// `adaflow <command> --bogus` prints a subcommand's options. Each option
/// declares its type, default and range, so ArgParser checks every value
/// before a subcommand runs; only rules that relate two flags are code here.
///
/// Models: cnv-w2a2, cnv-w1a2, tfc-w1a2 (plus yolo-tiny for graph/detect).
/// Datasets: cifar, gtsrb, mnist.

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>

#include "adaflow/common/argparse.hpp"
#include "adaflow/common/logging.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/core/library_generator.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/detect/runner.hpp"
#include "adaflow/detect/yolo.hpp"
#include "adaflow/dse/explorer.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/edge/workload.hpp"
#include "adaflow/fleet/fleet.hpp"
#include "adaflow/forecast/tracker.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/ingest/pipeline.hpp"
#include "adaflow/integrity/runner.hpp"
#include "adaflow/nn/mlp.hpp"
#include "adaflow/nn/serialize.hpp"
#include "adaflow/nn/trainer.hpp"
#include "adaflow/shard/sharded_engine.hpp"
#include "adaflow/tenant/serving.hpp"

namespace {

using namespace adaflow;
using Args = std::vector<std::string>;

/// printf's %lld takes long long; std::int64_t is long on LP64 hosts.
long long ll(std::int64_t v) { return v; }

/// A flag's default as text, taken from the config field the flag sets so
/// the value is stated once: the shortest text that parses back to \p v.
template <typename T>
std::string default_of(T v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    std::array<char, 32> buf{};
    return std::string(buf.data(), std::to_chars(buf.data(), buf.data() + buf.size(), v).ptr);
  }
}

std::uint64_t seed_option(const ArgParser& parser) {
  return static_cast<std::uint64_t>(parser.integer("seed"));
}

void add_dataset_option(ArgParser& parser, const std::string& help = "cifar | gtsrb | mnist") {
  parser.add_choice("dataset", help, "cifar", {"cifar", "gtsrb", "mnist"});
}

datasets::DatasetSpec dataset_option(const ArgParser& parser) {
  const std::string& name = parser.option("dataset");
  return name == "cifar"   ? datasets::synth_cifar10_spec()
         : name == "gtsrb" ? datasets::synth_gtsrb_spec()
                           : datasets::synth_mnist_spec();
}

/// Every --model name as a graph-IR description: `graph` prints it, train
/// and library lower it with graph::lower_model, tune with
/// graph::lower_geometry. \p rate prunes yolo-tiny's channels.
graph::Graph model_graph(const std::string& name, std::int64_t classes, double rate = 0.0) {
  struct NamedModel {
    const char* name;
    graph::Graph (*build)(std::int64_t classes, double rate);
  };
  static const NamedModel kModels[] = {
      {"cnv-w2a2", [](std::int64_t c, double) { return graph::from_cnv(nn::cnv_w2a2(c)); }},
      {"cnv-w1a2", [](std::int64_t c, double) { return graph::from_cnv(nn::cnv_w1a2(c)); }},
      {"tfc-w1a2", [](std::int64_t c, double) { return graph::from_mlp(nn::tfc_w1a2(c)); }},
      {"yolo-tiny",
       [](std::int64_t, double r) { return detect::yolo_graph(detect::yolo_tiny(), r); }},
  };
  for (const NamedModel& m : kModels) {
    if (name == m.name) {
      return m.build(classes, rate);
    }
  }
  throw NotFoundError("unknown model '" + name + "' (cnv-w2a2, cnv-w1a2, tfc-w1a2, yolo-tiny)");
}

/// --model of train / library / tune: a linear chain lower_model can train.
graph::Graph trainable_graph(const ArgParser& parser, std::int64_t classes) {
  const std::string& name = parser.option("model");
  require(name != "yolo-tiny", "--model yolo-tiny is a detection topology (graph and detect only)");
  return model_graph(name, classes);
}

void add_library_option(ArgParser& parser) {
  parser.add_option("library", "library file (empty = built-in synthetic library)", "");
}

core::AcceleratorLibrary library_option(const ArgParser& parser) {
  const std::string& path = parser.option("library");
  return path.empty() ? core::synthetic_library() : core::load_library(path);
}

void add_router_option(ArgParser& parser) {
  parser.add_choice("router", "round-robin | least-loaded | accuracy-aware", "least-loaded",
                    fleet::router_names());
}

/// --fps / --duration / --seed of the runs over one Poisson trace (fleet,
/// shard, integrity): arrivals at --fps, by default 70% of \p capacity_fps,
/// redrawn within +-50% every 2 s (once, for runs shorter than that).
void add_trace_options(ArgParser& parser, const std::string& fps_help,
                       const std::string& duration, const std::string& seed_help = "rng seed") {
  parser.add_real("fps", fps_help, "", Range::above(0.0));
  parser.add_real("duration", "trace duration [s]", duration, Range::above(0.0));
  parser.add_int("seed", seed_help, "42");
}

struct CapacityTrace {
  double rate;
  edge::WorkloadTrace trace;
};

CapacityTrace capacity_trace(const ArgParser& parser, double capacity_fps) {
  const double rate = parser.option("fps").empty() ? capacity_fps * 0.7 : parser.real("fps");
  const double duration = parser.real("duration");
  edge::WorkloadConfig workload;
  workload.devices = 1;
  workload.fps_per_device = rate;
  workload.phases = {edge::WorkloadPhase{0.5, std::min(2.0, duration), duration}};
  return {rate, edge::WorkloadTrace(workload, seed_option(parser))};
}

/// The loss / QoE / backlog lines `fleet` and `shard` share.
void print_fleet_summary(const fleet::FleetMetrics& m) {
  std::printf("frame loss   %s (ingress %lld, device %lld)\n",
              format_percent(m.frame_loss(), 2).c_str(), ll(m.ingress_lost), ll(m.device_lost));
  std::printf("QoE          %s\n", format_percent(m.qoe(), 2).c_str());
  std::printf("p95 backlog  %.0f ms\n", m.tail_latency_p95_s * 1e3);
}

int cmd_devices(ArgParser& parser, const Args& args) {
  parser.parse(args);
  TextTable table({"device", "LUT", "FF", "BRAM18", "DSP", "reconfig[ms]", "static[W]"});
  for (const char* name : {"zcu104", "zcu102", "pynq-z1"}) {
    const fpga::FpgaDevice d = fpga::device_by_name(name);
    table.add_row({d.name, std::to_string(d.luts), std::to_string(d.flip_flops),
                   std::to_string(d.bram18), std::to_string(d.dsp),
                   format_double(d.bitstream_bytes / d.config_bandwidth_bps * 1e3, 0),
                   format_double(d.static_power_w, 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_train(ArgParser& parser, const Args& args) {
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2", "cnv-w2a2");
  add_dataset_option(parser);
  parser.add_int("epochs", "training epochs", "8", Range::at_least(1));
  parser.add_int("seed", "rng seed", "7");
  parser.add_option("out", "output model file", "model.bin");
  parser.parse(args);

  const datasets::DatasetSpec spec = dataset_option(parser);
  const datasets::SyntheticDataset data = datasets::generate(spec);
  nn::Model model = graph::lower_model(trainable_graph(parser, spec.classes), seed_option(parser));
  require(model.input_shape()[0] == spec.channels && model.input_shape()[1] == spec.image_size,
          "model '" + parser.option("model") + "' does not fit dataset '" +
              parser.option("dataset") + "'");

  nn::TrainConfig tc;
  tc.epochs = parser.integer<int>("epochs");
  tc.lr = 0.02f;
  tc.lr_decay_epochs = {tc.epochs * 3 / 4};
  std::printf("training %s on %s (%d epochs)...\n", model.name().c_str(), spec.name.c_str(),
              tc.epochs);
  const auto stats = nn::Trainer(tc).fit(model, data.train);
  const double acc = nn::Trainer::evaluate(model, data.test);
  std::printf("final train loss %.3f, test accuracy %s\n", stats.back().train_loss,
              format_percent(acc, 2).c_str());
  nn::save_model_file(model, parser.option("out"));
  std::printf("saved %s\n", parser.option("out").c_str());
  return 0;
}

int cmd_prune(ArgParser& parser, const Args& args) {
  parser.add_option("in", "input model file", "model.bin");
  parser.add_real("rate", "pruning rate (0..1)", "0.5", Range::closed_open(0.0, 1.0));
  parser.add_real("target-fps", "folding target for the base dataflow", "450", Range::above(0.0));
  parser.add_option("out", "output model file", "pruned.bin");
  parser.add_flag("fc-neurons", "also prune hidden fully-connected neurons");
  parser.parse(args);

  nn::Model base = nn::load_model_file(parser.option("in"));
  const hls::FoldingConfig folding =
      hls::folding_for_target_fps(base, parser.real("target-fps"), 100e6);
  pruning::PruneOptions options;
  options.prune_fc_neurons = parser.flag("fc-neurons");
  pruning::PruneResult pr =
      pruning::dataflow_aware_prune(base, folding, parser.real("rate"), options);

  std::printf("requested rate %s, achieved %s (after PE/SIMD adjustment)\n",
              format_percent(pr.requested_rate, 0).c_str(),
              format_percent(pr.achieved_rate, 1).c_str());
  for (const pruning::LayerPruneInfo& info : pr.layers) {
    std::printf("  layer %zu: %lld -> %lld channels\n", info.conv_index,
                ll(info.original_channels), ll(info.kept_channels));
  }
  nn::save_model_file(pr.model, parser.option("out"));
  std::printf("saved %s (retrain it with `adaflow train`-like settings before deploying)\n",
              parser.option("out").c_str());
  return 0;
}

int cmd_eval(ArgParser& parser, const Args& args) {
  parser.add_option("in", "model file", "model.bin");
  add_dataset_option(parser);
  parser.parse(args);

  nn::Model model = nn::load_model_file(parser.option("in"));
  const datasets::SyntheticDataset data = datasets::generate(dataset_option(parser));
  const double acc = nn::Trainer::evaluate(model, data.test);
  std::printf("%s on %s: top-1 accuracy %s\n", model.name().c_str(),
              data.spec.name.c_str(), format_percent(acc, 2).c_str());
  return 0;
}

int cmd_library(ArgParser& parser, const Args& args) {
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2", "cnv-w2a2");
  add_dataset_option(parser);
  parser.add_reals("rates", "comma list of pruning rates", "0,0.25,0.5,0.75",
                   Range::closed_open(0.0, 1.0));
  parser.add_option("device", "zcu104 | zcu102 | pynq-z1", "zcu104");
  core::LibraryConfig config;
  parser.add_int("epochs", "base training epochs", default_of(config.base_epochs),
                 Range::at_least(0));
  parser.add_int("retrain-epochs", "per-version retraining epochs",
                 default_of(config.retrain_epochs), Range::at_least(0));
  parser.add_option("out", "output library file", "library.tsv");
  parser.add_flag("fc-neurons", "also prune hidden fully-connected neurons");
  parser.parse(args);

  config.rates = parser.reals("rates");
  config.base_epochs = parser.integer<int>("epochs");
  config.retrain_epochs = parser.integer<int>("retrain-epochs");
  config.prune_options.prune_fc_neurons = parser.flag("fc-neurons");
  const datasets::DatasetSpec spec = dataset_option(parser);
  const core::LibraryGenerator generator(fpga::device_by_name(parser.option("device")), config);
  const core::GeneratedLibrary generated = generator.generate_graph(
      trainable_graph(parser, spec.classes), datasets::generate(spec));
  core::save_library(generated.table, parser.option("out"));
  std::printf("%s\nsaved %s\n", core::render_library_table(generated.table).c_str(),
              parser.option("out").c_str());
  return 0;
}

int cmd_show(ArgParser& parser, const Args& args) {
  parser.add_option("library", "library file", "library.tsv");
  parser.parse(args);
  std::printf("%s",
              core::render_library_table(core::load_library(parser.option("library"))).c_str());
  return 0;
}

int cmd_simulate(ArgParser& parser, const Args& args) {
  parser.add_option("library", "library file", "library.tsv");
  parser.add_choice("scenario", "1 | 2 | 1+2", "1+2", {"1", "2", "1+2"});
  parser.add_int("runs", "repetitions", "20", Range::at_least(1));
  parser.add_choice("policy", "adaflow | finn | reconf", "adaflow", {"adaflow", "finn", "reconf"});
  core::RuntimeManagerConfig rmc;
  parser.add_real("threshold", "accuracy threshold (fraction)",
                  default_of(rmc.accuracy_threshold), Range::closed(0.0, 1.0));
  parser.parse(args);

  const core::AcceleratorLibrary lib = core::load_library(parser.option("library"));
  const std::string& scenario = parser.option("scenario");
  const edge::WorkloadConfig workload = scenario == "1"   ? edge::scenario1()
                                        : scenario == "2" ? edge::scenario2()
                                                          : edge::scenario1_plus_2();
  rmc.accuracy_threshold = parser.real("threshold");
  const std::string& policy = parser.option("policy");
  const core::PolicyKind kind = core::policy_kind_from_name(policy);
  const int runs = parser.integer<int>("runs");
  const edge::RepeatedRunResult r = edge::run_repeated(
      workload, [&] { return core::make_serving_policy(kind, lib, rmc); }, edge::ServerConfig{},
      runs);

  std::printf("policy=%s scenario=%s runs=%d\n", policy.c_str(), scenario.c_str(), runs);
  std::printf("frame loss   %s (stddev %s)\n", format_percent(r.mean.frame_loss(), 2).c_str(),
              format_percent(r.frame_loss.stddev(), 2).c_str());
  std::printf("QoE          %s\n", format_percent(r.mean.qoe(), 2).c_str());
  std::printf("avg power    %s W\n", format_double(r.mean.average_power_w(), 3).c_str());
  std::printf("efficiency   %s inferences/J\n",
              format_double(r.mean.power_efficiency(), 1).c_str());
  std::printf("switches     %.1f per run (%.1f reconfigurations)\n",
              static_cast<double>(r.mean.model_switches),
              static_cast<double>(r.mean.reconfigurations));
  return 0;
}

int cmd_fleet(ArgParser& parser, const Args& args) {
  add_library_option(parser);
  parser.add_int("devices", "number of devices (1..64)", "3", Range::closed(1, 64));
  add_router_option(parser);
  add_trace_options(parser, "aggregate arrival rate (empty = 70% of fleet capacity)", "20");
  parser.add_flag("coordinated",
                  "pin devices and let the fleet coordinator re-partition the library");
  parser.add_flag("health", "enable the dispatcher's circuit-breaker health monitor");
  parser.add_choice("chaos", "whole-device fault injected on dev0: none | crash | hang | degrade",
                    "none", {"none", "crash", "hang", "degrade"});
  parser.add_real("chaos-start", "chaos window start [s]", "5", Range::at_least(0.0));
  parser.add_real("chaos-duration", "chaos window length [s]", "5", Range::above(0.0));
  const fleet::HealthConfig health;
  parser.add_real("suspect-timeout", "no-progress time before a device is suspect [s]",
                  default_of(health.suspect_timeout_s), Range::above(0.0));
  parser.add_real("quarantine-timeout", "suspect time before quarantine [s]",
                  default_of(health.quarantine_timeout_s), Range::above(0.0));
  parser.add_real("probe-interval", "spacing of half-open recovery probes [s]",
                  default_of(health.probe_interval_s), Range::above(0.0));
  parser.add_real("probe-timeout", "probe completion deadline [s]",
                  default_of(health.probe_timeout_s), Range::above(0.0));
  parser.add_real("hedge-budget", "re-dispatch frames queued longer than this [s]; 0 = off",
                  default_of(health.hedge_budget_s), Range::at_least(0.0));
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_option(parser);
  const int devices = parser.integer<int>("devices");
  const std::string& chaos = parser.option("chaos");
  fleet::FleetConfig config;
  if (parser.flag("coordinated")) {
    for (int i = 0; i < devices; ++i) {
      config.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
    }
    config.coordinator.enabled = true;
  } else {
    config.devices = fleet::homogeneous_devices(lib, {}, devices);
  }
  if (parser.flag("health")) {
    config.health.enabled = true;
    config.health.suspect_timeout_s = parser.real("suspect-timeout");
    config.health.quarantine_timeout_s = parser.real("quarantine-timeout");
    config.health.probe_interval_s = parser.real("probe-interval");
    config.health.probe_timeout_s = parser.real("probe-timeout");
    config.health.hedge_budget_s = parser.real("hedge-budget");
  }
  if (chaos != "none") {
    const double start = parser.real("chaos-start");
    const double end = start + parser.real("chaos-duration");
    config.devices[0].fault_schedule =
        chaos == "crash"  ? faults::device_crash_window(start, end)
        : chaos == "hang" ? faults::device_hang_window(start, end)
                          : faults::device_degrade_window(start, end, /*latency_factor=*/4.0,
                                                          /*accuracy_penalty=*/0.1);
  }

  const auto [rate, trace] =
      capacity_trace(parser, static_cast<double>(devices) * lib.versions.front().fps_fixed);
  const fleet::FleetMetrics m =
      shard::run_sharded_fleet(trace, lib, config, {}, parser.option("router"), seed_option(parser))
          .fleet;

  std::printf("fleet=%lld devices router=%s rate=%.0f FPS duration=%.0fs %s\n", ll(devices),
              parser.option("router").c_str(), rate, parser.real("duration"),
              parser.flag("coordinated") ? "coordinated" : "self-managed");
  print_fleet_summary(m);
  std::printf("avg power    %s W\n", format_double(m.average_power_w(), 3).c_str());
  std::printf("switches     %d (%d reconfigurations, %d repartitions)\n", m.model_switches,
              m.reconfigurations, m.repartitions);
  if (parser.flag("health") || chaos != "none") {
    std::printf("resilience   %lld quarantines, %lld rejoins, %lld re-dispatched (%lld hedged)\n",
                ll(m.quarantines), ll(m.rejoins), ll(m.redispatched), ll(m.hedged));
  }
  TextTable table({"device", "processed", "lost", "loss", "switches", "power[W]", "health"});
  for (const fleet::FleetDeviceResult& d : m.devices) {
    table.add_row({d.name, std::to_string(d.metrics.processed), std::to_string(d.metrics.lost),
                   format_percent(d.metrics.frame_loss(), 2),
                   std::to_string(d.metrics.model_switches),
                   format_double(d.metrics.average_power_w(), 1),
                   fleet::health_state_name(d.final_health)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_shard(ArgParser& parser, const Args& args) {
  add_library_option(parser);
  parser.add_int("devices", "number of devices (1..4096)", "16", Range::closed(1, 4096));
  parser.add_int("shards", "number of shards (1..devices)", "4", Range::at_least(1));
  shard::ShardConfig shard_config;
  parser.add_int("threads", "worker threads; 0 = keep the process default",
                 default_of(shard_config.threads), Range::at_least(0));
  parser.add_real("window", "conservative sync window [s]", default_of(shard_config.window_s),
                  Range::above(0.0));
  parser.add_int("max-hops", "overflow handoff hop budget; 0 disables forwarding",
                 default_of(shard_config.max_hops), Range::at_least(0));
  add_router_option(parser);
  add_trace_options(parser, "aggregate arrival rate (empty = 70% of fleet capacity)", "10");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_option(parser);
  const int devices = parser.integer<int>("devices");
  shard_config.shards = parser.integer<int>("shards");
  require(shard_config.shards <= devices,
          "--shards must be in [1, --devices], got '" + parser.option("shards") + "'");
  shard_config.threads = parser.integer<int>("threads");
  shard_config.window_s = parser.real("window");
  shard_config.max_hops = parser.integer<int>("max-hops");

  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, {}, devices);
  config.ingress_capacity = 16 * devices;
  const auto [rate, trace] =
      capacity_trace(parser, static_cast<double>(devices) * lib.versions.front().fps_fixed);
  const shard::ShardedMetrics m = shard::run_sharded_fleet(
      trace, lib, config, shard_config, parser.option("router"), seed_option(parser));

  std::printf("shard=%d shards x %d threads, %lld devices router=%s rate=%.0f FPS "
              "duration=%.0fs window=%.3fs\n",
              shard_config.shards, shard_config.threads, ll(devices),
              parser.option("router").c_str(), rate, parser.real("duration"),
              shard_config.window_s);
  print_fleet_summary(m.fleet);
  std::printf("wall clock   %s s over %lld windows (%lld handoffs, %lld dropped at hop cap)\n",
              format_double(m.stats.wall_seconds, 3).c_str(), ll(m.stats.windows),
              ll(m.stats.handoffs), ll(m.stats.handoff_lost));
  std::printf("fingerprint  %s\n", shard::metrics_fingerprint(m.fleet).c_str());
  return 0;
}

int cmd_ingest(ArgParser& parser, const Args& args) {
  add_library_option(parser);
  ingest::IngestConfig config;
  parser.add_int("cameras", "number of camera sessions (1..64)", default_of(config.cameras),
                 Range::closed(1, 64));
  parser.add_int("devices", "number of fleet devices (1..64)", "2", Range::closed(1, 64));
  parser.add_real("fps", "capture rate per camera [frames/s]", default_of(config.camera.fps),
                  Range::above(0.0));
  parser.add_real("duration", "simulated time [s]", default_of(config.duration_s),
                  Range::above(0.0));
  parser.add_int("seed", "rng seed", "42");
  parser.add_real("churn", "session drop rate [1/s]; 0 = sessions never drop", "0.05",
                  Range::at_least(0.0));
  parser.add_real("loss", "i.i.d. network loss probability [0, 1)",
                  default_of(config.network.loss_p), Range::closed_open(0.0, 1.0));
  parser.add_real("jitter-ms", "one-way network jitter sigma [ms]",
                  default_of(config.network.jitter_s * 1e3), Range::at_least(0.0));
  parser.add_choice("brownout", "off | ladder | drop-all", "ladder", {"off", "ladder", "drop-all"});
  parser.add_real("decode-ms", "decode cost per frame [ms]", default_of(config.decode.cost_s * 1e3),
                  Range::at_least(0.0));
  parser.add_int("decode-workers", "parallel decode slots", default_of(config.decode.workers),
                 Range::at_least(1));
  add_router_option(parser);
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_option(parser);
  const double churn = parser.real("churn");
  const std::string& brownout = parser.option("brownout");
  config.cameras = parser.integer<int>("cameras");
  config.duration_s = parser.real("duration");
  config.camera.fps = parser.real("fps");
  config.camera.mean_uptime_s = churn > 0.0 ? 1.0 / churn : 0.0;
  config.network.loss_p = parser.real("loss");
  config.network.jitter_s = parser.real("jitter-ms") * 1e-3;
  config.decode.cost_s = parser.real("decode-ms") * 1e-3;
  config.decode.workers = parser.integer<int>("decode-workers");
  if (brownout != "ladder") {
    config.brownout.mode =
        brownout == "off" ? ingest::BrownoutMode::kOff : ingest::BrownoutMode::kDropAll;
  }
  // Pinned devices start at the most-accurate version; the brownout tier-2
  // downgrade drives them through the existing switch path.
  for (int i = 0, n = parser.integer<int>("devices"); i < n; ++i) {
    config.fleet.devices.push_back(fleet::pinned_device("dev" + std::to_string(i), lib, 0));
  }
  auto router = fleet::make_router(parser.option("router"));
  const ingest::IngestMetrics m = ingest::run_ingest(config, lib, *router, seed_option(parser));

  std::printf("ingest=%d cameras x %.0f FPS -> %zu devices, brownout=%s, %.0fs\n",
              config.cameras, config.camera.fps, config.fleet.devices.size(), brownout.c_str(),
              config.duration_s);
  std::printf("captured     %lld frames (+%lld network duplicates)\n", ll(m.captured),
              ll(m.duplicates));
  std::printf("delivered    %lld (%s of captured), %s degraded\n", ll(m.delivered),
              format_percent(m.delivered_fraction(), 2).c_str(),
              format_percent(m.degraded_fraction(), 2).c_str());
  std::printf("dropped      net %lld, stale %lld, thinned %lld, shed %lld, queue %lld, "
              "decode %lld, fleet %lld\n",
              ll(m.network_lost), ll(m.stale_dropped), ll(m.thinned), ll(m.dropall_shed),
              ll(m.queue_drops), ll(m.decode_failed), ll(m.fleet_shed + m.lost_in_fleet));
  if (m.e2e_latency.count() > 0) {
    std::printf("e2e latency  p50 %.1f ms, p99 %.1f ms, p999 %.1f ms\n",
                m.e2e_latency.percentile(0.5) * 1e3, m.e2e_latency.percentile(0.99) * 1e3,
                m.e2e_latency.percentile(0.999) * 1e3);
  }
  std::printf("QoE          %s\n", format_percent(m.qoe(), 2).c_str());
  std::printf("brownout     %lld tier-1 / %lld tier-2 engagements, "
              "%.1fs thinning, %.1fs downgraded, %.1fs shedding, final tier %d\n",
              ll(m.brownout.tier1_engagements), ll(m.brownout.tier2_engagements),
              m.brownout.time_tier1_s, m.brownout.time_tier2_s, m.brownout.time_shedding_s,
              m.final_tier);
  TextTable table({"session", "state", "connects", "captured", "net lost", "stale", "reordered"});
  for (const ingest::IngestSessionResult& s : m.sessions) {
    table.add_row({s.name, ingest::session_state_name(s.final_state),
                   std::to_string(s.session.connects), std::to_string(s.session.frames_captured),
                   std::to_string(s.network.lost()), std::to_string(s.filter.dropped_stale),
                   std::to_string(s.filter.reordered)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_forecast(ArgParser& parser, const Args& args) {
  parser.add_option("trace",
                    "scenario1 | scenario2 | 1+2 | diurnal | flash-crowd | path to a t,rate CSV",
                    "diurnal");
  forecast::ForecastTrackerConfig config;
  parser.add_option("forecaster", "naive | ewma | holt-winters",
                    forecast::forecaster_kind_name(config.forecaster));
  parser.add_int("horizon", "forecast horizon in windows (>= 1)",
                 default_of(config.horizon_windows), Range::at_least(1));
  parser.add_real("window", "observation window [s]", default_of(config.window_s),
                  Range::above(0.0));
  parser.add_real("duration", "trace duration [s] (generated traces)", "120", Range::above(0.0));
  parser.add_int("seed", "rng seed for the trace's jitter", "7");
  parser.add_int("tail", "forecast-vs-actual rows to print (0 = none)", "8", Range::at_least(0));
  parser.parse(args);

  const double window = parser.real("window");
  const double duration = parser.real("duration");
  const std::uint64_t seed = seed_option(parser);
  // Resolves the flag up front so a typo names --forecaster, not a deep error.
  const forecast::ForecasterKind kind = forecast::forecaster_kind_from_name(
      parser.option("forecaster"));
  // One tracker observation per window, and one trace segment per window of
  // the generated diurnal / flash-crowd shapes: bound the window count.
  const auto require_windows = [&](double span) {
    require(span / window <= 1e6, "--window must be >= the trace duration / 1e6 (" +
                                      format_double(span, 3) + " s / 1e6), got '" +
                                      parser.option("window") + "'");
  };
  const std::string& name = parser.option("trace");
  if (name == "diurnal" || name == "flash-crowd") {
    require_windows(duration);
  }
  const edge::WorkloadTrace trace = [&]() -> edge::WorkloadTrace {
    if (name == "scenario1" || name == "scenario2") {
      return {name == "scenario1" ? edge::scenario1(duration) : edge::scenario2(duration), seed};
    }
    if (name == "1+2") {
      return {edge::scenario1_plus_2(duration * 0.6, duration), seed};
    }
    if (name == "diurnal") {
      return edge::diurnal_trace(300.0, 900.0, duration / 3.0, duration, window, 0.05, seed);
    }
    if (name == "flash-crowd") {
      return edge::flash_crowd_trace(250.0, 1250.0, duration * 0.25, duration * 0.1,
                                     duration * 0.25, duration, window, 0.05, seed);
    }
    // Anything else is a CSV path; from_csv names the offending line itself.
    return edge::WorkloadTrace::from_csv(name);
  }();
  require_windows(trace.duration());

  config.forecaster = kind;
  config.horizon_windows = parser.integer<int>("horizon");
  config.window_s = window;
  forecast::ForecastTracker tracker(config);
  for (double t = window; t <= trace.duration() + 1e-9; t += window) {
    tracker.observe(trace.rate_at(t - window / 2.0));
  }

  const sim::ForecastStats& s = tracker.stats();
  std::printf("trace=%s forecaster=%s horizon=%d windows window=%.3gs duration=%.3gs\n",
              name.c_str(), forecast::forecaster_kind_name(kind), config.horizon_windows, window,
              trace.duration());
  std::printf("scored forecasts   %lld\n", ll(s.forecasts));
  std::printf("MAPE               %s\n", format_percent(s.mape(), 2).c_str());
  std::printf("interval coverage  %s\n", format_percent(s.coverage(), 2).c_str());
  std::printf("changepoints       %lld (%lld burst windows)\n", ll(s.changepoints),
              ll(s.burst_windows));
  const sim::TimeSeries& actual = tracker.actual_series();
  const sim::TimeSeries& predicted = tracker.forecast_series();
  const std::size_t tail = static_cast<std::size_t>(parser.integer("tail"));
  if (tail > 0 && !actual.values.empty()) {
    TextTable table({"t[s]", "actual FPS", "predicted FPS"});
    const std::size_t n = actual.values.size();
    const std::size_t first = n > tail ? n - tail : 0;
    for (std::size_t i = first; i < n; ++i) {
      table.add_row({format_double(actual.time_of(i), 2), format_double(actual.values[i], 1),
                     format_double(predicted.values[i], 1)});
    }
    std::printf("last %zu windows:\n%s", n - first, table.render().c_str());
  }
  return 0;
}

int cmd_tune(ArgParser& parser, const Args& args) {
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2", "cnv-w2a2");
  add_dataset_option(parser, "cifar | gtsrb | mnist (sets the class count)");
  parser.add_option("device", "zcu104 | zcu102 | pynq-z1", "zcu104");
  dse::ExplorerConfig ec;
  parser.add_choice("objective", "max-fps | min-resources | balanced",
                    dse::objective_name(ec.objective), dse::objective_names());
  parser.add_real("budget", "device resource fraction in (0, 1]", default_of(ec.budget_fraction),
                  Range::open_closed(0.0, 1.0));
  parser.add_real("target-fps", "required throughput (min-resources objective)",
                  default_of(ec.target_fps), Range::at_least(0.0));
  parser.add_int("beam", "beam width for large folding lattices (>= 1)",
                 default_of(ec.beam_width), Range::at_least(1));
  parser.add_int("anneal", "simulated-annealing refinement iterations",
                 default_of(ec.anneal_iters), Range::at_least(0));
  parser.add_int("seed", "search seed (same seed => bit-identical frontier)",
                 default_of(ec.seed));
  parser.add_flag("flexible", "tune the Flexible (runtime-pruned) accelerator variant");
  parser.parse(args);

  ec.objective = dse::objective_by_name(parser.option("objective"));
  ec.budget_fraction = parser.real("budget");
  ec.target_fps = parser.real("target-fps");
  require(ec.objective != dse::Objective::kMinResources || ec.target_fps > 0.0,
          "the min-resources objective needs --target-fps > 0");
  ec.beam_width = parser.integer<int>("beam");
  ec.anneal_iters = parser.integer<int>("anneal");
  ec.seed = seed_option(parser);
  if (parser.flag("flexible")) {
    ec.variant = hls::AcceleratorVariant::kFlexible;
  }

  const fpga::FpgaDevice device = fpga::device_by_name(parser.option("device"));
  const graph::Graph model = trainable_graph(parser, dataset_option(parser).classes);
  const hls::CompiledModel geometry = graph::lower_geometry(model);
  const int wb = model.quant().weight_bits;
  const int ab = model.quant().act_bits;
  const dse::ExplorationResult result = dse::explore_geometry(geometry, wb, ab, device, ec);

  std::printf("tune %s on %s: objective=%s lattice=%.3g foldings, %lld evaluated (%s)\n",
              model.name().c_str(), device.name.c_str(), dse::objective_name(ec.objective),
              result.space_size, ll(result.evaluated),
              result.exhaustive ? "exhaustive" : "beam+anneal");
  if (result.frontier.empty()) {
    std::printf("no folding fits the budget; raise --budget\n");
    return 1;
  }
  if (!result.objective_met) {
    std::printf("warning: --target-fps %.1f is unreachable; showing the fastest design\n",
                ec.target_fps);
  }

  TextTable frontier({"", "FPS", "latency[ms]", "II[cyc]", "LUT", "FF", "BRAM18"});
  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const dse::DesignPoint& p = result.frontier[i];
    frontier.add_row({i == result.best_index ? "best ->" : "",
                      format_double(p.fps, 1), format_double(p.latency_s * 1e3, 3),
                      std::to_string(p.ii_cycles), format_double(p.resources.luts, 0),
                      format_double(p.resources.flip_flops, 0),
                      format_double(p.resources.bram18, 0)});
  }
  std::printf("Pareto frontier (budget %.0f LUTs):\n%s\n", result.budget.luts,
              frontier.render().c_str());

  const dse::SearchSpace space =
      dse::build_search_space(geometry, wb, ab, ec.variant, result.budget, ec.constraints,
                              ec.resource_constants, perf::default_perf_constants());
  TextTable breakdown({"layer", "PE", "SIMD", "cycles", "LUT", "BRAM18", "bottleneck"});
  for (const dse::LayerReport& r : dse::layer_breakdown(space, result.best())) {
    breakdown.add_row({r.name, std::to_string(r.pe), std::to_string(r.simd),
                       std::to_string(r.cycles), format_double(r.luts, 0),
                       format_double(r.bram18, 0), r.is_bottleneck ? "<--" : ""});
  }
  std::printf("best design, per layer:\n%s", breakdown.render().c_str());
  return 0;
}

int cmd_tenant(ArgParser& parser, const Args& args) {
  add_library_option(parser);
  parser.add_int("tenants", "number of tenants (2..8); traffic shapes cycle "
                 "steady / diurnal / flash-crowd", "3", Range::closed(2, 8));
  tenant::MultiTenantConfig config;
  parser.add_int("devices", "number of fleet devices (>= tenants, <= 64)",
                 default_of(config.devices), Range::closed(1, 64));
  parser.add_real("duration", "simulated time [s]", "30", Range::above(0.0));
  parser.add_real("rate", "steady-tenant offered rate [frames/s]; the diurnal "
                  "and flash shapes scale from it", "800", Range::above(0.0));
  parser.add_choice("scheduler", "wfq | fifo", "wfq", {"wfq", "fifo"});
  parser.add_choice("partition", "rate-aware | peak-fps", "rate-aware", {"rate-aware", "peak-fps"});
  parser.add_int("seed", "rng seed (same seed => bit-identical metrics)", "42");
  parser.add_flag("no-borrow", "hard partition: tenants never borrow idle foreign devices");
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_option(parser);
  const std::int64_t tenants = parser.integer("tenants");
  config.devices = parser.integer<int>("devices");
  require(config.devices >= tenants,
          "--devices must be in [tenants, 64], got '" + parser.option("devices") + "'");
  const double duration = parser.real("duration");
  const double rate = parser.real("rate");
  const std::uint64_t seed = seed_option(parser);
  config.duration_s = duration;
  config.scheduler = parser.option("scheduler") == "wfq" ? tenant::SchedulerPolicy::kWfq
                                                         : tenant::SchedulerPolicy::kFifo;
  config.partition = parser.option("partition") == "rate-aware"
                         ? tenant::PartitionPolicy::kRateAware
                         : tenant::PartitionPolicy::kPeakFps;
  config.allow_borrow = !parser.flag("no-borrow");
  for (std::int64_t i = 0; i < tenants; ++i) {
    tenant::TenantSpec spec;
    spec.admission.rate_fps = rate * 2.0;
    spec.admission.burst_frames = 64;
    if (i % 3 == 0) {
      spec.name = "steady-" + std::to_string(i);
      spec.accuracy_threshold = 0.03;
      spec.slo.max_latency_s = 0.04;
      spec.trace = edge::WorkloadTrace{{0.0}, {rate}, duration};
    } else if (i % 3 == 1) {
      spec.name = "diurnal-" + std::to_string(i);
      spec.weight = 1.5;
      spec.accuracy_threshold = 0.07;
      spec.slo.max_latency_s = 0.05;
      spec.trace = edge::diurnal_trace(rate * 0.4, rate * 1.5, duration * 0.5, duration, 1.0,
                                       0.05, seed + static_cast<std::uint64_t>(i));
    } else {
      spec.name = "flash-" + std::to_string(i);
      spec.weight = 2.0;
      spec.accuracy_threshold = 0.12;
      spec.slo.max_latency_s = 0.08;
      spec.slo.min_deliver_fraction = 0.75;
      spec.admission.rate_fps = rate * 5.0;
      spec.admission.burst_frames = 128;
      spec.ingress_capacity = 96;
      spec.trace = edge::flash_crowd_trace(rate * 0.4, rate * 5.0, duration * 0.35,
                                           duration * 0.1, duration * 0.2, duration, 0.5, 0.05,
                                           seed + static_cast<std::uint64_t>(i));
    }
    config.tenants.push_back(std::move(spec));
  }

  const tenant::MultiTenantMetrics m = tenant::run_tenants(config, lib, seed);

  std::printf("tenant=%lld tenants -> %d devices, scheduler=%s, partition=%s%s, %.0fs\n",
              ll(tenants), config.devices, parser.option("scheduler").c_str(),
              parser.option("partition").c_str(), config.allow_borrow ? "" : ", no-borrow",
              duration);
  TextTable table({"tenant", "offered", "throttled", "delivered", "shed", "QoE", "accuracy",
                   "p95[ms]", "violation[s]", "version"});
  for (const tenant::TenantResult& t : m.tenants) {
    table.add_row({t.usage.name, std::to_string(t.usage.offered),
                   std::to_string(t.usage.throttled), std::to_string(t.usage.delivered),
                   std::to_string(t.usage.shed), format_percent(t.usage.qoe(), 1),
                   format_percent(t.mean_accuracy, 1), format_double(t.latency_p95_s * 1e3, 1),
                   format_double(t.usage.slo_violation_s, 1),
                   "v" + std::to_string(t.final_version)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("worst-tenant SLO violation %.1fs, total %.1fs\n", m.worst_violation_s,
              m.total_violation_s);
  std::printf("coordinator: %lld device moves, %lld version switches, fleet QoE %s\n",
              ll(m.device_moves), ll(m.version_switches), format_percent(m.fleet.qoe(), 2).c_str());
  return 0;
}

int cmd_graph(ArgParser& parser, const Args& args) {
  parser.add_option("model", "cnv-w2a2 | cnv-w1a2 | tfc-w1a2 | yolo-tiny", "cnv-w2a2");
  parser.add_real("rate", "channel-pruning rate (yolo-tiny only)", "0",
                  Range::closed_open(0.0, 1.0));
  parser.add_int("classes", "classifier width of the cnv/tfc builders", "10",
                 Range::closed(2, 1024));
  parser.parse(args);

  const std::string& model = parser.option("model");
  const double rate = parser.real("rate");
  require(rate == 0.0 || model == "yolo-tiny",
          "--rate only applies to yolo-tiny (the classification builders are "
          "pruned by the library sweep, not the graph)");
  std::printf("%s", model_graph(model, parser.integer("classes"), rate).describe().c_str());
  return 0;
}

int cmd_detect(ArgParser& parser, const Args& args) {
  parser.add_option("policy", "adaflow | finn | flexible", "adaflow");
  parser.add_real("duration", "trace duration [s]", "30", Range::closed(4.0, 3600.0));
  parser.add_real("base-density", "quiet-scene objects per frame", "2", Range::at_least(0.0));
  parser.add_real("peak-density", "rush-hour objects per frame", "10");
  parser.add_real("threshold", "runtime-manager accuracy threshold (fraction)", "0.15",
                  Range::closed(0.0, 1.0));
  parser.add_option("device", "zcu104 | zcu102 | pynq-z1", "zcu104");
  parser.add_int("seed", "rng seed (same seed => bit-identical metrics)", "42");
  parser.parse(args);

  const double duration = parser.real("duration");
  const double base_density = parser.real("base-density");
  const double peak_density = parser.real("peak-density");
  require(peak_density >= base_density,
          "--peak-density must be >= --base-density, got '" + parser.option("peak-density") + "'");
  const core::AcceleratorLibrary lib =
      detect::detection_library(fpga::device_by_name(parser.option("device")));
  const detect::SceneTrace scene =
      detect::rush_hour_scene(base_density, peak_density, 0.25 * duration, 0.2 * duration,
                              0.3 * duration, duration, 0.5, 0.05, seed_option(parser));

  core::RuntimeManagerConfig rmc;
  rmc.accuracy_threshold = parser.real("threshold");
  const std::string& policy_name = parser.option("policy");
  if (policy_name != "adaflow" && policy_name != "finn" && policy_name != "flexible") {
    throw ConfigError("unknown policy '" + policy_name + "' (adaflow, finn, flexible)");
  }
  const std::unique_ptr<edge::ServingPolicy> policy =
      policy_name == "flexible"
          ? std::make_unique<detect::StaticFlexiblePolicy>(lib)
          : core::make_serving_policy(core::policy_kind_from_name(policy_name), lib, rmc);

  const edge::RunMetrics m = detect::run_detection(scene, *policy, seed_option(parser));
  std::printf("policy=%s duration=%.0fs density=%.1f..%.1f\n", policy_name.c_str(), duration,
              base_density, peak_density);
  std::printf("detection QoE  %s\n", format_percent(m.qoe(), 2).c_str());
  std::printf("frame loss     %s\n", format_percent(m.frame_loss(), 2).c_str());
  std::printf("mAP proxy      %s over %lld scored frames\n",
              format_percent(m.detection.mean_map_proxy(), 2).c_str(),
              ll(m.detection.frames_scored));
  std::printf("precision      %s  recall %s\n",
              format_percent(m.detection.precision(), 2).c_str(),
              format_percent(m.detection.recall(), 2).c_str());
  std::printf("NMS pairs      %lld (%.1f per frame)\n", ll(m.detection.nms_pairs_total),
              m.detection.frames_scored > 0
                  ? static_cast<double>(m.detection.nms_pairs_total) /
                        static_cast<double>(m.detection.frames_scored)
                  : 0.0);
  std::printf("switches       %d (%d reconfigurations)\n", m.model_switches,
              m.reconfigurations);
  return 0;
}

int cmd_integrity(ArgParser& parser, const Args& args) {
  add_library_option(parser);
  parser.add_option("policy", "adaflow | finn | reconf | proactive", "adaflow");
  add_trace_options(parser, "arrival rate (empty = 70% of the top version's FPS)", "30",
                    "rng seed (same seed => bit-identical metrics)");
  parser.add_real("upset-rate", "config-upset arrival rate [1/s]; 0 = clean fabric", "0.2",
                  Range::at_least(0.0));
  parser.add_real("upset-penalty", "accuracy penalty per landed upset (0, 1]", "0.08",
                  Range::open_closed(0.0, 1.0));
  parser.add_real("cross-section",
                  "Flexible-overlay exposure relative to a Fixed bitstream [0, 1]", "0.25",
                  Range::closed(0.0, 1.0));
  integrity::IntegrityRunConfig config;
  parser.add_real("canary-interval", "seconds between canary probes; 0 = no detection",
                  default_of(config.canary.canary_interval_s), Range::at_least(0.0));
  parser.add_real("scrub-period", "blind scrub reload period [s]; 0 = no scrubbing",
                  default_of(config.policy.scrub_period_s), Range::at_least(0.0));
  parser.add_real("detect-threshold", "drift-detector trip threshold (> 0)",
                  default_of(config.canary.detector.threshold), Range::above(0.0));
  parser.add_real("epsilon", "drift-detector per-sample error allowance (>= 0)",
                  default_of(config.canary.detector.epsilon), Range::at_least(0.0));
  parser.add_real("repair-cooldown", "minimum gap between integrity reloads [s]",
                  default_of(config.policy.repair_cooldown_s), Range::at_least(0.0));
  parser.parse(args);

  const core::AcceleratorLibrary lib = library_option(parser);
  // Resolves the policy up front so a typo names --policy, not a deep error.
  const core::PolicyKind kind = core::policy_kind_from_name(parser.option("policy"));
  const double duration = parser.real("duration");
  const double upset_rate = parser.real("upset-rate");
  // The fault injector draws every upset of the run up front: bound the count.
  require(upset_rate * duration <= 1e6, "--upset-rate must be <= 1e6 / --duration, got '" +
                                            parser.option("upset-rate") + "'");
  const auto [rate, trace] = capacity_trace(parser, lib.versions.front().fps_fixed);
  config.canary.canary_interval_s = parser.real("canary-interval");
  config.canary.detector.threshold = parser.real("detect-threshold");
  config.canary.detector.epsilon = parser.real("epsilon");
  config.policy.scrub_period_s = parser.real("scrub-period");
  config.policy.repair_cooldown_s = parser.real("repair-cooldown");
  const faults::FaultSchedule schedule =
      upset_rate > 0.0
          ? faults::config_upset_storm(0.0, duration, upset_rate, parser.real("upset-penalty"),
                                       parser.real("cross-section"))
          : faults::FaultSchedule{};
  const edge::RunMetrics m =
      integrity::run_integrity(trace, core::make_serving_policy(kind, lib, {}), lib, config,
                               schedule, seed_option(parser));

  const sim::IntegrityStats& s = m.integrity;
  std::printf("integrity policy=%s rate=%.0f FPS duration=%.0fs upsets=%.2f/s "
              "canary=%.2gs scrub=%.2gs\n",
              parser.option("policy").c_str(), rate, duration, upset_rate,
              config.canary.canary_interval_s, config.policy.scrub_period_s);
  std::printf("QoE            %s (frame loss %s)\n", format_percent(m.qoe(), 2).c_str(),
              format_percent(m.frame_loss(), 2).c_str());
  std::printf("upsets landed  %lld, corrupt for %.1fs (%s of the run)\n", ll(s.upsets_injected),
              s.corrupt_time_s, format_percent(s.corrupt_time_s / duration, 1).c_str());
  std::printf("wrong frames   %lld (%s of delivered)\n", ll(s.wrong_frames),
              format_percent(s.wrong_fraction(m.processed), 2).c_str());
  std::printf("canaries       %lld sent, %lld failed (%s throughput tax)\n", ll(s.canaries_sent),
              ll(s.canaries_failed), format_percent(s.canary_overhead(m.processed), 2).c_str());
  std::printf("detections     %lld (+%lld false alarms), mean latency %.2fs\n", ll(s.detections),
              ll(s.false_alarms), s.mean_detection_latency_s());
  std::printf("repairs        %lld (of which %lld blind scrubs issued), "
              "%d reconfigurations total\n",
              ll(s.repairs), ll(s.scrubs), m.reconfigurations);
  return 0;
}

/// The subcommand table: the usage text and the dispatch both come from it.
struct Command {
  const char* name;
  const char* summary;  ///< also the subcommand's help description
  int (*run)(ArgParser& parser, const Args& args);
};

constexpr Command kCommands[] = {
    {"devices", "list supported FPGA device budgets", cmd_devices},
    {"train", "train an initial quantized model", cmd_train},
    {"prune", "dataflow-aware pruning of a trained model", cmd_prune},
    {"eval", "top-1 test accuracy of a saved model", cmd_eval},
    {"library", "generate an AdaFlow library (design-time step)", cmd_library},
    {"show", "print a saved library table", cmd_show},
    {"simulate", "Edge-server simulation against a library", cmd_simulate},
    {"fleet", "multi-FPGA cluster simulation", cmd_fleet},
    {"ingest", "end-to-end ingest pipeline over a fleet", cmd_ingest},
    {"tune", "design-space exploration of the PE/SIMD folding", cmd_tune},
    {"forecast", "evaluate an online workload forecaster on a trace", cmd_forecast},
    {"tenant", "multi-tenant serving over a shared fleet", cmd_tenant},
    {"shard", "sharded parallel fleet simulation", cmd_shard},
    {"integrity", "silent-corruption integrity simulation (one device)", cmd_integrity},
    {"graph", "print a model's graph-IR topology and hash", cmd_graph},
    {"detect", "YOLO-style detection serving over a rush-hour scene (one device)", cmd_detect},
};

int dispatch(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  for (const Command& c : kCommands) {
    if (command == c.name) {
      ArgParser parser(std::string("adaflow ") + c.name, c.summary);
      return c.run(parser, Args(argv + 2, argv + argc));
    }
  }
  if (argc > 1) {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  }
  std::fprintf(stderr, "usage: adaflow <command> [options]\ncommands:\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  %-10s %s\n", c.name, c.summary);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  adaflow::set_log_level(adaflow::LogLevel::kWarn);
  try {
    return dispatch(argc, argv);
  } catch (const std::exception& e) {  // adaflow::Error and any standard exception
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
