#pragma once

/// \file oracle_policy.hpp
/// Offline-optimal baseline (an extension beyond the paper): a policy that
/// sees the true workload trace — no estimation noise, no reaction lag — and
/// knows when the next rate change will occur, so its accelerator-type rule
/// uses real lookahead instead of the Runtime Manager's backward-looking
/// switch-interval heuristic. The gap between AdaFlow and this oracle is the
/// price of online operation.

#include "adaflow/core/library.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/policy.hpp"
#include "adaflow/edge/workload.hpp"

namespace adaflow::core {

class OraclePolicy final : public edge::ServingPolicy {
 public:
  /// \p trace must outlive the policy (the simulation owns it).
  OraclePolicy(const AcceleratorLibrary& library, RuntimeManagerConfig config,
               const edge::WorkloadTrace& trace);

  edge::ServingMode initial_mode() override;
  std::optional<edge::SwitchAction> on_poll(double now_s, double incoming_fps) override;

  /// Seconds until the workload rate next changes after \p now_s
  /// (+infinity after the last boundary). Exposed for tests.
  double time_to_next_change(double now_s) const;

 private:
  const AcceleratorLibrary& library_;
  RuntimeManagerConfig config_;
  const edge::WorkloadTrace& trace_;

  std::size_t current_version_ = 0;
  hls::AcceleratorVariant current_variant_ = hls::AcceleratorVariant::kFixed;
};

}  // namespace adaflow::core
