#pragma once

/// \file reconfig.hpp
/// Switching-cost model: full FPGA reconfiguration (Fixed-Pruning switches,
/// or changing the accelerator type) versus the fast in-place model switch of
/// a Flexible-Pruning accelerator (reload weight levels + set the runtime
/// channel ports — no bitstream involved).

#include "adaflow/fpga/device.hpp"
#include "adaflow/hls/compiled_model.hpp"

namespace adaflow::fpga {

class ReconfigModel {
 public:
  explicit ReconfigModel(FpgaDevice device) : device_(std::move(device)) {}

  /// Seconds to program a full bitstream (the paper's ~145 ms on ZCU104).
  double full_reconfig_seconds() const {
    return device_.bitstream_bytes / device_.config_bandwidth_bps;
  }

  /// Seconds for a Flexible fast model switch: stream the model's weight
  /// levels + thresholds over AXI (~1.6 GB/s) plus a fixed control cost.
  double flexible_switch_seconds(const hls::CompiledModel& model) const;

  const FpgaDevice& device() const { return device_; }

 private:
  static constexpr double kAxiBandwidthBps = 1.6e9;
  static constexpr double kControlOverheadS = 200e-6;

  FpgaDevice device_;
};

}  // namespace adaflow::fpga
