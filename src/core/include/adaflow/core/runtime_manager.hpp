#pragma once

/// \file runtime_manager.hpp
/// AdaFlow's Runtime Manager (paper Section IV-B2) plus the baselines it is
/// evaluated against.
///
/// Model selection: among the library versions whose accuracy stays within
/// the user's accuracy threshold of the unpruned model, pick the one with
/// the highest throughput; if several versions can match the incoming FPS,
/// pick the most accurate of those.
///
/// Accelerator-type selection (rule-based criteria): Fixed-Pruning is chosen
/// only when the time since the last model switch exceeds a predefined
/// multiple of the FPGA reconfiguration time (the paper uses 10x);
/// otherwise the Flexible-Pruning accelerator is used so the switch is fast.

#include <memory>
#include <optional>

#include "adaflow/core/library.hpp"
#include "adaflow/edge/policy.hpp"
#include "adaflow/hls/modules.hpp"

namespace adaflow::core {

struct RuntimeManagerConfig {
  /// Maximum tolerated absolute accuracy drop vs the unpruned model
  /// (paper: 10%).
  double accuracy_threshold = 0.10;
  /// Fixed-Pruning allowed only when the last model switch is older than
  /// factor * reconfig_time (paper: 10x).
  double switch_interval_factor = 10.0;
};

/// Headroom applied to the incoming-FPS estimate when matching models — by
/// the Runtime Manager, its oracle and reconfiguration baselines, the fleet
/// coordinator and the tenant partition planner alike.
inline constexpr double kFpsMargin = 1.10;

/// The AdaFlow Runtime Manager, exposed as an edge serving policy.
class RuntimeManager final : public edge::ServingPolicy {
 public:
  RuntimeManager(const AcceleratorLibrary& library, RuntimeManagerConfig config);

  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double now_s, double incoming_fps) override;
  void on_switch_applied(double now_s, const edge::ServingMode& mode) override;

  /// Self-healing: rolls the version/variant bookkeeping back to the mode
  /// that is actually live, and — when a Fixed-Pruning reconfiguration
  /// failed — answers with the paper's always-available safety net, the
  /// Flexible accelerator running the same target version. A failed fallback
  /// (or a failed fast switch) returns nullopt: stay on the live mode.
  std::optional<edge::SwitchAction> on_switch_failed(double now_s,
                                                     const edge::SwitchAction& action) override;

  /// Load shedding: when the server queue saturates, jump to the fastest
  /// version inside the accuracy threshold on the Flexible accelerator (a
  /// reconfiguration mid-overload would only deepen the backlog if avoidable).
  std::optional<edge::SwitchAction> on_overload(double now_s, double incoming_fps) override;

  /// The model-selection rule in isolation (unit-testable): returns the
  /// library index chosen for an incoming-FPS demand.
  std::size_t select_version(double incoming_fps) const;

  /// The type-selection rule in isolation.
  hls::AcceleratorVariant select_variant(double now_s) const;

  /// Lets the user change the accuracy threshold at runtime (paper: the
  /// manager re-acts on threshold changes).
  void set_accuracy_threshold(double threshold);

  /// Overrides the time-based accelerator-type rule: while set, every new
  /// switch targets \p pin (the reconfig-failure safety net still wins).
  /// nullopt restores the paper's switch-interval criterion. This is the
  /// hook the proactive layer drives from its changepoint/burst signal.
  void set_variant_pin(std::optional<hls::AcceleratorVariant> pin) { variant_pin_ = pin; }
  std::optional<hls::AcceleratorVariant> variant_pin() const { return variant_pin_; }

  std::size_t current_version() const { return current_version_; }
  hls::AcceleratorVariant current_variant() const { return current_variant_; }

 private:
  const AcceleratorLibrary& library_;
  RuntimeManagerConfig config_;

  std::size_t current_version_ = 0;
  hls::AcceleratorVariant current_variant_ = hls::AcceleratorVariant::kFixed;
  std::optional<hls::AcceleratorVariant> variant_pin_;
  // What the hardware actually runs (differs from current_* only while a
  // switch is in flight; on_switch_failed rolls current_* back to it).
  std::size_t live_version_ = 0;
  hls::AcceleratorVariant live_variant_ = hls::AcceleratorVariant::kFixed;
  double last_model_switch_s_ = -1e18;   ///< time of the last applied switch
  double last_decision_s_ = -1e18;       ///< time of the last issued action
  double last_switch_failure_s_ = -1e18; ///< time of the last abandoned reconfig
  double last_acted_fps_ = -1.0;
  bool threshold_dirty_ = false;
};

/// Baseline: the original FINN accelerator, statically deployed (never
/// switches). Uses the unpruned version on its fixed accelerator.
class StaticFinnPolicy final : public edge::ServingPolicy {
 public:
  explicit StaticFinnPolicy(const AcceleratorLibrary& library) : library_(library) {}
  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double, double) override { return std::nullopt; }

 private:
  const AcceleratorLibrary& library_;
};

/// Baseline for Fig. 1(b): model switching allowed, but every switch is an
/// FPGA reconfiguration of a Fixed-Pruning accelerator, with a configurable
/// reconfiguration time (0 models the ideal zero-cost switch).
class ReconfPruningPolicy final : public edge::ServingPolicy {
 public:
  ReconfPruningPolicy(const AcceleratorLibrary& library, RuntimeManagerConfig config,
                      double reconfig_time_s);
  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double now_s, double incoming_fps) override;
  void on_switch_applied(double now_s, const edge::ServingMode& mode) override;

 private:
  const AcceleratorLibrary& library_;
  RuntimeManagerConfig config_;
  double reconfig_time_s_;
  std::size_t current_version_ = 0;
  double last_acted_fps_ = -1.0;
};

/// Shared model-selection rule (used by RuntimeManager and the
/// reconfiguration baseline): highest-throughput version within the accuracy
/// threshold, preferring the most accurate one that meets the demand.
std::size_t select_library_version(const AcceleratorLibrary& library, double incoming_fps,
                                   double accuracy_threshold, double fps_margin,
                                   bool use_flexible_fps);

/// The serving policies constructible from one library — the construction
/// path shared by the CLI `simulate`/`fleet` subcommands and the fleet
/// layer's per-device manager setup.
enum class PolicyKind {
  kAdaFlow,     ///< RuntimeManager (model + accelerator-type selection)
  kStaticFinn,  ///< original FINN baseline, never switches
  kReconfOnly,  ///< model switching via full reconfiguration only
  kProactive,   ///< forecast-driven RuntimeManager (proactive_manager.hpp)
};

const char* policy_kind_name(PolicyKind kind);

/// Parses "adaflow" | "finn" | "reconf" | "proactive"; throws NotFoundError
/// naming the valid spellings otherwise.
PolicyKind policy_kind_from_name(const std::string& name);

/// Builds one serving policy over \p library. The library (and, for
/// kAdaFlow/kReconfOnly, nothing else) is borrowed by reference and must
/// outlive the returned policy — fleet configs keep their libraries alive
/// for the whole simulation.
std::unique_ptr<edge::ServingPolicy> make_serving_policy(PolicyKind kind,
                                                         const AcceleratorLibrary& library,
                                                         const RuntimeManagerConfig& config);

}  // namespace adaflow::core
