#include "adaflow/core/runtime_manager.hpp"

#include <cmath>

#include "adaflow/common/error.hpp"
#include "adaflow/core/proactive_manager.hpp"

namespace adaflow::core {

namespace {

/// Ignore polls before the monitor's rate estimate has a full window.
constexpr double kWarmupS = 0.5;
/// Cooldown between decisions: after acting, wait for the estimate window
/// to refill before acting again (avoids double-switching on stale data).
constexpr double kMinActionGapS = 0.4;
/// Extra headroom required before moving to a SLOWER (more accurate)
/// model; asymmetric hysteresis that stops boundary flapping.
constexpr double kDownswitchMargin = 1.2;

}  // namespace

std::size_t select_library_version(const AcceleratorLibrary& library, double incoming_fps,
                                   double accuracy_threshold, double fps_margin,
                                   bool use_flexible_fps) {
  require(!library.versions.empty(), "empty library");
  const double accuracy_floor = library.base_accuracy - accuracy_threshold;
  const double demand = incoming_fps * fps_margin;

  auto fps_of = [&](const ModelVersion& v) {
    return use_flexible_fps ? v.fps_flexible : v.fps_fixed;
  };

  // Pass 1: among allowed versions that can match the demand, the most
  // accurate one (ties broken toward the lower pruning rate == earlier row).
  std::size_t best_matching = library.versions.size();
  double best_matching_acc = -1.0;
  // Pass 2 fallback: the fastest allowed version.
  std::size_t fastest = library.versions.size();
  double fastest_fps = -1.0;

  for (std::size_t i = 0; i < library.versions.size(); ++i) {
    const ModelVersion& v = library.versions[i];
    if (v.accuracy < accuracy_floor) {
      continue;
    }
    const double fps = fps_of(v);
    if (fps >= demand && v.accuracy > best_matching_acc) {
      best_matching_acc = v.accuracy;
      best_matching = i;
    }
    if (fps > fastest_fps) {
      fastest_fps = fps;
      fastest = i;
    }
  }
  if (best_matching != library.versions.size()) {
    return best_matching;
  }
  if (fastest != library.versions.size()) {
    return fastest;
  }
  // Nothing passes the accuracy threshold (degenerate config): fall back to
  // the unpruned model.
  return 0;
}

RuntimeManager::RuntimeManager(const AcceleratorLibrary& library, RuntimeManagerConfig config)
    : library_(library), config_(config) {
  require(config_.accuracy_threshold >= 0.0, "negative accuracy threshold");
  require(config_.switch_interval_factor >= 0.0, "negative switch interval factor");
  require(config_.reconfig_failure_hold_s >= 0.0, "negative reconfig failure hold");
  // Fail fast on broken library rows — a zero-FPS mode discovered mid-run
  // would otherwise surface as an inexplicable simulation error.
  require(!library_.versions.empty(), "empty library");
  for (const ModelVersion& v : library_.versions) {
    require(std::isfinite(v.fps_fixed) && v.fps_fixed > 0.0,
            "library version '" + v.version + "' has non-positive Fixed FPS");
    require(std::isfinite(v.fps_flexible) && v.fps_flexible > 0.0,
            "library version '" + v.version + "' has non-positive Flexible FPS");
  }
}

edge::ServingMode RuntimeManager::initial_mode() {
  // Deployment starts on the unpruned model's Fixed accelerator — the same
  // hardware the Original FINN baseline runs, before any adaptation. The
  // environment is presumed stable until proven otherwise, so the first
  // needed switch may use a Fixed accelerator.
  current_version_ = 0;
  current_variant_ = hls::AcceleratorVariant::kFixed;
  live_version_ = 0;
  live_variant_ = hls::AcceleratorVariant::kFixed;
  last_model_switch_s_ = -1e18;
  last_switch_failure_s_ = -1e18;
  return serving_mode(library_, current_version_, current_variant_);
}

std::size_t RuntimeManager::select_version(double incoming_fps) const {
  return select_library_version(library_, incoming_fps, config_.accuracy_threshold,
                                config_.fps_margin,
                                current_variant_ == hls::AcceleratorVariant::kFlexible);
}

hls::AcceleratorVariant RuntimeManager::select_variant(double now_s) const {
  // A recently failed reconfiguration pins the choice to the Flexible safety
  // net: the PR controller gets a cool-off before another bitstream load.
  if (now_s - last_switch_failure_s_ < config_.reconfig_failure_hold_s) {
    return hls::AcceleratorVariant::kFlexible;
  }
  if (variant_pin_.has_value()) {
    return *variant_pin_;  // proactive layer overrides the time-based rule
  }
  const double interval = config_.switch_interval_factor * library_.reconfig_time_s;
  return (now_s - last_model_switch_s_) >= interval ? hls::AcceleratorVariant::kFixed
                                                    : hls::AcceleratorVariant::kFlexible;
}

void RuntimeManager::set_accuracy_threshold(double threshold) {
  require(threshold >= 0.0, "negative accuracy threshold");
  config_.accuracy_threshold = threshold;
  threshold_dirty_ = true;
}

std::optional<edge::SwitchAction> RuntimeManager::on_poll(double now_s, double incoming_fps) {
  if (now_s < kWarmupS) {
    return std::nullopt;  // the monitor's estimate window is still filling
  }
  if (now_s - last_decision_s_ < kMinActionGapS) {
    return std::nullopt;  // estimate still contains pre-switch traffic
  }
  // The manager acts on workload changes (and threshold changes); small
  // estimate jitter is filtered out.
  if (!threshold_dirty_ && last_acted_fps_ > 0.0) {
    const double rel = std::fabs(incoming_fps - last_acted_fps_) / last_acted_fps_;
    if (rel < config_.fps_hysteresis) {
      return std::nullopt;
    }
  }
  threshold_dirty_ = false;

  const std::size_t target = select_version(incoming_fps);
  last_acted_fps_ = incoming_fps;
  if (target == current_version_) {
    return std::nullopt;
  }

  // Stickiness: if the current version still serves the demand within the
  // accuracy threshold, only move for a meaningful accuracy win — the
  // estimate noise of a Poisson arrival stream must not thrash the FPGA.
  const ModelVersion& cur = library_.versions.at(current_version_);
  const ModelVersion& tgt = library_.versions.at(target);
  const double cur_fps = current_variant_ == hls::AcceleratorVariant::kFlexible
                             ? cur.fps_flexible
                             : cur.fps_fixed;
  const bool current_adequate =
      cur_fps >= incoming_fps * config_.fps_margin &&
      cur.accuracy >= library_.base_accuracy - config_.accuracy_threshold;
  if (current_adequate && tgt.accuracy <= cur.accuracy + 0.005) {
    return std::nullopt;
  }
  // Asymmetric hysteresis: moving to a slower-but-more-accurate model needs
  // extra headroom, or boundary noise flip-flops between adjacent versions.
  if (current_adequate && tgt.fps_fixed < cur.fps_fixed &&
      tgt.fps_fixed < incoming_fps * config_.fps_margin * kDownswitchMargin) {
    return std::nullopt;
  }

  const hls::AcceleratorVariant variant = select_variant(now_s);
  const edge::SwitchAction action = switch_to(library_, target, variant, current_variant_);
  current_version_ = target;
  current_variant_ = variant;
  last_decision_s_ = now_s;
  return action;
}

void RuntimeManager::on_switch_applied(double now_s, const edge::ServingMode& mode) {
  last_model_switch_s_ = now_s;
  live_variant_ = variant_of(mode);
  live_version_ = library_.index_of(mode.model_version);
}

std::optional<edge::SwitchAction> RuntimeManager::on_switch_failed(
    double now_s, const edge::SwitchAction& action) {
  // The advertised mode never went live: roll the bookkeeping back so future
  // decisions reason from the hardware's actual state instead of silently
  // assuming the failed target.
  current_version_ = live_version_;
  current_variant_ = live_variant_;
  last_acted_fps_ = -1.0;  // force a re-evaluation on the next poll
  if (!action.is_reconfiguration) {
    return std::nullopt;  // a fast switch failed; nothing cheaper exists
  }
  last_switch_failure_s_ = now_s;
  if (variant_of(action.target) == hls::AcceleratorVariant::kFlexible) {
    return std::nullopt;  // the safety net itself failed to load; stay put
  }
  // Fixed-Pruning reconfiguration failed: fall back to the same model version
  // on the Flexible accelerator — fast if Flexible is already loaded, one
  // "Change of Dataflow" reconfiguration otherwise.
  const std::size_t version = library_.index_of(action.target.model_version);
  const edge::SwitchAction fallback =
      switch_to(library_, version, hls::AcceleratorVariant::kFlexible, live_variant_);
  current_version_ = version;
  current_variant_ = hls::AcceleratorVariant::kFlexible;
  last_decision_s_ = now_s;
  return fallback;
}

std::optional<edge::SwitchAction> RuntimeManager::on_overload(double now_s, double incoming_fps) {
  if (now_s - last_decision_s_ < kMinActionGapS) {
    return std::nullopt;  // an action is already in flight or just applied
  }
  // The queue is saturating: find the fastest version inside the accuracy
  // threshold and shed load onto it, regardless of the accuracy preference
  // the normal selection rule would apply.
  const double accuracy_floor = library_.base_accuracy - config_.accuracy_threshold;
  std::size_t fastest = current_version_;
  double fastest_fps = -1.0;
  for (std::size_t i = 0; i < library_.versions.size(); ++i) {
    const ModelVersion& v = library_.versions[i];
    if (v.accuracy < accuracy_floor) {
      continue;
    }
    if (v.fps_flexible > fastest_fps) {
      fastest_fps = v.fps_flexible;
      fastest = i;
    }
  }
  if (fastest == current_version_ &&
      current_variant_ == hls::AcceleratorVariant::kFlexible) {
    return std::nullopt;  // already draining as fast as the library allows
  }
  if (fastest == current_version_ && current_variant_ == hls::AcceleratorVariant::kFixed &&
      library_.versions.at(fastest).fps_fixed >= fastest_fps) {
    return std::nullopt;  // the Fixed variant of the same version is no slower
  }
  const edge::SwitchAction action =
      switch_to(library_, fastest, hls::AcceleratorVariant::kFlexible, current_variant_);
  current_version_ = fastest;
  current_variant_ = hls::AcceleratorVariant::kFlexible;
  last_decision_s_ = now_s;
  last_acted_fps_ = incoming_fps;
  return action;
}

edge::ServingMode StaticFinnPolicy::initial_mode() {
  const ModelVersion& v = library_.unpruned();
  edge::ServingMode mode;
  mode.model_version = v.version;
  mode.accelerator = "OriginalFINN";
  mode.fps = v.fps_fixed;
  mode.accuracy = v.accuracy;
  mode.power_busy_w = library_.finn_power_busy_w;
  mode.power_idle_w = library_.finn_power_idle_w;
  return mode;
}

ReconfPruningPolicy::ReconfPruningPolicy(const AcceleratorLibrary& library,
                                         RuntimeManagerConfig config, double reconfig_time_s)
    : library_(library), config_(config), reconfig_time_s_(reconfig_time_s) {}

edge::ServingMode ReconfPruningPolicy::initial_mode() {
  current_version_ = 0;
  return serving_mode(library_, current_version_, hls::AcceleratorVariant::kFixed);
}

std::optional<edge::SwitchAction> ReconfPruningPolicy::on_poll(double now_s,
                                                               double incoming_fps) {
  if (now_s < kWarmupS) {
    return std::nullopt;
  }
  if (last_acted_fps_ > 0.0) {
    const double rel = std::fabs(incoming_fps - last_acted_fps_) / last_acted_fps_;
    if (rel < config_.fps_hysteresis) {
      return std::nullopt;
    }
  }
  const std::size_t target = select_library_version(
      library_, incoming_fps, config_.accuracy_threshold, config_.fps_margin,
      /*use_flexible_fps=*/false);
  last_acted_fps_ = incoming_fps;
  if (target == current_version_) {
    return std::nullopt;
  }
  const ModelVersion& cur = library_.versions.at(current_version_);
  const bool current_adequate =
      cur.fps_fixed >= incoming_fps * config_.fps_margin &&
      cur.accuracy >= library_.base_accuracy - config_.accuracy_threshold;
  if (current_adequate &&
      library_.versions.at(target).accuracy <= cur.accuracy + 0.005) {
    return std::nullopt;
  }
  current_version_ = target;
  // Not switch_to: Figure 1(b) sweeps this policy's own reconfiguration time.
  edge::SwitchAction action;
  action.target = serving_mode(library_, target, hls::AcceleratorVariant::kFixed);
  action.switch_time_s = reconfig_time_s_;
  action.is_reconfiguration = reconfig_time_s_ > 0.0;
  return action;
}

void ReconfPruningPolicy::on_switch_applied(double, const edge::ServingMode&) {}

const char* policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kAdaFlow:
      return "adaflow";
    case PolicyKind::kStaticFinn:
      return "finn";
    case PolicyKind::kReconfOnly:
      return "reconf";
    case PolicyKind::kProactive:
      return "proactive";
  }
  return "?";
}

PolicyKind policy_kind_from_name(const std::string& name) {
  if (name == "adaflow") {
    return PolicyKind::kAdaFlow;
  }
  if (name == "finn") {
    return PolicyKind::kStaticFinn;
  }
  if (name == "reconf") {
    return PolicyKind::kReconfOnly;
  }
  if (name == "proactive") {
    return PolicyKind::kProactive;
  }
  throw NotFoundError("unknown policy '" + name + "' (adaflow, finn, reconf, proactive)");
}

std::unique_ptr<edge::ServingPolicy> make_serving_policy(PolicyKind kind,
                                                         const AcceleratorLibrary& library,
                                                         const RuntimeManagerConfig& config) {
  switch (kind) {
    case PolicyKind::kAdaFlow:
      return std::make_unique<RuntimeManager>(library, config);
    case PolicyKind::kStaticFinn:
      return std::make_unique<StaticFinnPolicy>(library);
    case PolicyKind::kReconfOnly:
      return std::make_unique<ReconfPruningPolicy>(library, config, library.reconfig_time_s);
    case PolicyKind::kProactive: {
      ProactiveConfig proactive;
      proactive.manager = config;
      return std::make_unique<ProactiveRuntimeManager>(library, proactive);
    }
  }
  throw ConfigError("unhandled PolicyKind");
}

}  // namespace adaflow::core
