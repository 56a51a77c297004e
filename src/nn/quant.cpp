#include "adaflow/nn/quant.hpp"

#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::nn {

QuantizedWeights quantize_weights(const Tensor& shadow, int bits) {
  require(bits == 1 || bits == 2, "weight quantization supports 1 or 2 bits");
  double abs_sum = 0.0;
  for (std::int64_t i = 0; i < shadow.size(); ++i) {
    abs_sum += std::fabs(static_cast<double>(shadow[i]));
  }
  const float scale =
      shadow.size() > 0 ? static_cast<float>(abs_sum / static_cast<double>(shadow.size())) : 1.0f;
  QuantizedWeights out;
  out.scale = scale > 0.0f ? scale : 1.0f;
  out.levels = Tensor(shadow.shape());
  for (std::int64_t i = 0; i < shadow.size(); ++i) {
    out.levels[i] = quantize_weight_level(shadow[i], out.scale, bits);
  }
  return out;
}

float quantize_weight_level(float value, float scale, int bits) {
  if (bits == 1) {
    return value >= 0.0f ? 1.0f : -1.0f;
  }
  // 2-bit narrow range: {-1, 0, +1}.
  const float r = std::nearbyint(value / scale);
  if (r <= -1.0f) {
    return -1.0f;
  }
  if (r >= 1.0f) {
    return 1.0f;
  }
  return 0.0f;
}

}  // namespace adaflow::nn
