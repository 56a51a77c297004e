#include "adaflow/nn/mlp.hpp"

#include <algorithm>

#include "adaflow/common/math.hpp"

namespace adaflow::nn {

namespace {
std::vector<std::int64_t> scaled(std::vector<std::int64_t> widths, std::int64_t scale_div) {
  require(scale_div >= 1, "mlp scale_div must be >= 1");
  for (auto& w : widths) {
    w = std::max<std::int64_t>(16, w / scale_div);
  }
  return widths;
}
}  // namespace

MlpTopology tfc_w1a2(std::int64_t classes, std::int64_t scale_div) {
  MlpTopology t;
  t.name = "TFCW1A2";
  t.hidden = scaled({64, 64, 64}, scale_div);
  t.classes = classes;
  t.quant = QuantSpec{/*weight_bits=*/1, /*act_bits=*/2, /*act_scale=*/0.5f};
  return t;
}

}  // namespace adaflow::nn
