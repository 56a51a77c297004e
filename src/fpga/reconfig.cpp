#include "adaflow/fpga/reconfig.hpp"

namespace adaflow::fpga {

double ReconfigModel::flexible_switch_seconds(const hls::CompiledModel& model) const {
  double bytes = 0.0;
  for (const hls::CompiledStage& stage : model.stages) {
    bytes += static_cast<double>(stage.weight_levels.size());
    for (const hls::ChannelThresholds& t : stage.thresholds.channels) {
      bytes += static_cast<double>(t.thresholds.size()) * 4.0;
    }
    bytes += 2.0;  // the 16-bit runtime `channels` port write
  }
  return kControlOverheadS + bytes / kAxiBandwidthBps;
}

}  // namespace adaflow::fpga
