#include "adaflow/nn/cnv.hpp"

#include <algorithm>

#include "adaflow/common/math.hpp"

namespace adaflow::nn {

namespace {
std::vector<std::int64_t> scaled_channels(std::int64_t scale_div) {
  require(scale_div >= 1, "cnv scale_div must be >= 1");
  const std::vector<std::int64_t> base{64, 64, 128, 128, 256, 256};
  std::vector<std::int64_t> out;
  out.reserve(base.size());
  for (std::int64_t c : base) {
    out.push_back(std::max<std::int64_t>(4, c / scale_div));
  }
  return out;
}
}  // namespace

CnvTopology cnv_w2a2(std::int64_t classes, std::int64_t scale_div) {
  CnvTopology t;
  t.name = "CNVW2A2";
  t.conv_channels = scaled_channels(scale_div);
  t.pool_after = {false, true, false, true, false, false};
  t.fc_features = {std::max<std::int64_t>(16, 512 / scale_div)};
  t.classes = classes;
  t.quant = QuantSpec{/*weight_bits=*/2, /*act_bits=*/2, /*act_scale=*/0.5f};
  return t;
}

CnvTopology cnv_w1a2(std::int64_t classes, std::int64_t scale_div) {
  CnvTopology t = cnv_w2a2(classes, scale_div);
  t.name = "CNVW1A2";
  t.quant.weight_bits = 1;
  return t;
}

}  // namespace adaflow::nn
