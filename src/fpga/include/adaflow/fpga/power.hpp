#pragma once

/// \file power.hpp
/// Board power model (the Vivado power-report substitute). Total power is the
/// board baseline (PS + PL static) plus a dynamic term proportional to the
/// instantiated resources, scaled by how busy the accelerator is. Constants
/// are calibrated so the stock FINN CNV accelerator at full load lands near
/// the paper's ~1.07 W operating point.

#include "adaflow/fpga/device.hpp"
#include "adaflow/fpga/resources.hpp"

namespace adaflow::fpga {

struct PowerModelConstants {
  double watts_per_lut = 26e-6;
  double watts_per_ff = 1.5e-6;
  double watts_per_bram18 = 3.0e-3;
  double watts_per_dsp = 0.6e-3;
  /// Fraction of dynamic power drawn even when idle (clock tree, control).
  double idle_activity = 0.30;
};

PowerModelConstants default_power_constants();

class PowerModel {
 public:
  explicit PowerModel(FpgaDevice device,
                      PowerModelConstants constants = default_power_constants())
      : device_(std::move(device)), k_(constants) {}

  /// Power in watts for a design occupying \p usage, with \p activity the
  /// fraction of time the pipeline is processing frames (0..1).
  double watts(const ResourceUsage& usage, double activity) const;

  /// Dynamic power at full activity (excludes the static baseline).
  double dynamic_watts(const ResourceUsage& usage) const;

  const FpgaDevice& device() const { return device_; }

 private:
  FpgaDevice device_;
  PowerModelConstants k_;
};

}  // namespace adaflow::fpga
