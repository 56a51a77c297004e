#include "adaflow/core/oracle_policy.hpp"

#include <algorithm>
#include <limits>

namespace adaflow::core {

OraclePolicy::OraclePolicy(const AcceleratorLibrary& library, RuntimeManagerConfig config,
                           const edge::WorkloadTrace& trace)
    : library_(library), config_(config), trace_(trace) {}

double OraclePolicy::time_to_next_change(double now_s) const {
  const std::vector<double>& times = trace_.change_times();
  auto it = std::upper_bound(times.begin(), times.end(), now_s);
  if (it == times.end()) {
    return std::numeric_limits<double>::infinity();
  }
  return *it - now_s;
}

edge::ServingMode OraclePolicy::initial_mode() {
  // The oracle deploys the ideal version for the true initial rate directly.
  current_version_ = select_library_version(library_, trace_.rate_at(0.0),
                                            config_.accuracy_threshold, config_.fps_margin,
                                            /*use_flexible_fps=*/false);
  current_variant_ = hls::AcceleratorVariant::kFixed;
  return serving_mode(library_, current_version_, current_variant_);
}

std::optional<edge::SwitchAction> OraclePolicy::on_poll(double now_s, double /*estimate*/) {
  const double true_rate = trace_.rate_at(now_s);
  const std::size_t target =
      select_library_version(library_, true_rate, config_.accuracy_threshold, config_.fps_margin,
                             current_variant_ == hls::AcceleratorVariant::kFlexible);
  if (target == current_version_) {
    return std::nullopt;
  }

  // Lookahead type rule: a Fixed reconfiguration only pays off when the
  // workload will hold still long enough.
  const double stable_for = time_to_next_change(now_s);
  const hls::AcceleratorVariant variant =
      stable_for >= config_.switch_interval_factor * library_.reconfig_time_s
          ? hls::AcceleratorVariant::kFixed
          : hls::AcceleratorVariant::kFlexible;

  const edge::SwitchAction action = switch_to(library_, target, variant, current_variant_);
  current_version_ = target;
  current_variant_ = variant;
  return action;
}

}  // namespace adaflow::core
