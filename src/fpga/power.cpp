#include "adaflow/fpga/power.hpp"

#include "adaflow/common/math.hpp"

namespace adaflow::fpga {

PowerModelConstants default_power_constants() { return PowerModelConstants{}; }

double PowerModel::dynamic_watts(const ResourceUsage& usage) const {
  return usage.luts * k_.watts_per_lut + usage.flip_flops * k_.watts_per_ff +
         usage.bram18 * k_.watts_per_bram18 + usage.dsp * k_.watts_per_dsp;
}

double PowerModel::watts(const ResourceUsage& usage, double activity) const {
  const double a = clamp(activity, 0.0, 1.0);
  const double effective = k_.idle_activity + (1.0 - k_.idle_activity) * a;
  return device_.static_power_w + dynamic_watts(usage) * effective;
}

}  // namespace adaflow::fpga
