// Bit-exact oracle for Conv2d: the layer runs its forward and input-gradient
// GEMMs over multi-sample column panels and in parallel, and its weight
// gradient is one batched NT over the input images read in place (no
// im2col), split into column chunks that run as parallel tasks; the result
// must equal a per-sample naive im2col + GEMM reference bit for bit, at
// every worker count, for strided, padded, non-square and pruned geometries.
// Also pins Model::backward's first-layer skip to the full backward.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adaflow/common/parallel.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/conv2d.hpp"
#include "adaflow/nn/loss.hpp"
#include "adaflow/nn/mlp.hpp"
#include "adaflow/nn/model.hpp"
#include "nn/reference_kernels.hpp"

namespace adaflow::nn {
namespace {

using namespace reference;

struct ConvResult {
  std::vector<float> output;
  std::vector<float> grad_input;
  std::vector<float> grad_weight;
};

std::vector<float> values_of(const Tensor& t) { return {t.data(), t.data() + t.size()}; }

/// The layer's own forward + backward.
ConvResult run_layer(Conv2d& conv, const Tensor& input, const Tensor& grad_output) {
  ConvResult r;
  r.output = values_of(conv.forward(input, /*training=*/true));
  r.grad_input = values_of(conv.backward(grad_output));
  r.grad_weight = values_of(conv.params().front()->grad);
  return r;
}

/// One sample at a time with the naive loops: outputs and input gradients
/// from +0, weight-gradient partials from +0 added in ascending sample order.
ConvResult run_reference(const Conv2d& conv, const Tensor& input, const Tensor& grad_output) {
  const Conv2dConfig& cfg = conv.config();
  const Tensor w = conv.effective_weight();
  const std::int64_t batch = input.dim(0);
  const std::int64_t in_h = input.dim(2);
  const std::int64_t in_w = input.dim(3);
  const std::int64_t in_size = cfg.in_channels * in_h * in_w;
  const std::int64_t pixels = grad_output.dim(2) * grad_output.dim(3);
  const std::int64_t k_count = cfg.in_channels * cfg.kernel * cfg.kernel;
  const std::int64_t out_size = cfg.out_channels * pixels;

  ConvResult r;
  r.output.assign(static_cast<std::size_t>(batch * out_size), 0.0f);
  r.grad_input.assign(static_cast<std::size_t>(batch * in_size), 0.0f);
  r.grad_weight.assign(static_cast<std::size_t>(w.size()), 0.0f);
  for (std::int64_t n = 0; n < batch; ++n) {
    std::vector<float> col(static_cast<std::size_t>(k_count * pixels));
    ref_im2col(input.data() + n * in_size, cfg.in_channels, in_h, in_w, cfg.kernel, cfg.stride,
               cfg.pad, col.data());
    ref_gemm_nn(cfg.out_channels, pixels, k_count, w.data(), col.data(),
                r.output.data() + n * out_size);

    const float* dy = grad_output.data() + n * out_size;
    std::vector<float> dw(static_cast<std::size_t>(w.size()), 0.0f);
    ref_gemm_nt(cfg.out_channels, k_count, pixels, dy, col.data(), dw.data());
    for (std::size_t i = 0; i < dw.size(); ++i) {
      r.grad_weight[i] += dw[i];
    }

    std::vector<float> dcol(static_cast<std::size_t>(k_count * pixels), 0.0f);
    ref_gemm_tn(k_count, pixels, cfg.out_channels, w.data(), dy, dcol.data());
    ref_col2im(dcol.data(), cfg.in_channels, in_h, in_w, cfg.kernel, cfg.stride, cfg.pad,
               r.grad_input.data() + n * in_size);
  }
  return r;
}

Tensor random_tensor(const Shape& shape, Rng& rng, double zero_frac) {
  Tensor t(shape);
  const std::vector<float> v = random_values(t.size(), rng, zero_frac);
  std::copy(v.begin(), v.end(), t.data());
  return t;
}

TEST(Conv2dOracle, PanelsSpanSamplesForSmallOutputs) {
  // conv4 / conv5 of the scale-8 CNV at batch 32: one panel of 288 / 32 columns.
  EXPECT_EQ(Conv2d::panels(32, 9).samples, 32);
  EXPECT_EQ(Conv2d::panels(32, 9).count, 1);
  EXPECT_EQ(Conv2d::panels(32, 1).samples, 32);
  EXPECT_EQ(Conv2d::panels(32, 100).samples, 4);
  EXPECT_EQ(Conv2d::panels(33, 100).count, 9);
  EXPECT_EQ(Conv2d::panels(28, 9).samples, 28);
  EXPECT_EQ(Conv2d::panels(32, 784).samples, 1);
  EXPECT_EQ(Conv2d::panels(32, 784).count, 32);
  EXPECT_EQ(Conv2d::panels(32, Conv2d::kPanelColumns).samples, 1);
  EXPECT_EQ(Conv2d::panels(0, 9).count, 0);  // an empty batch has no panels
}

struct OracleGeometry {
  Conv2dConfig config;
  std::int64_t height;
  std::int64_t width;
};

// The CNV geometry (3x3 VALID) at 1, 9 and 100 output pixels; stride 2 with
// pad 1 on a non-square input; output rows 28 and 13 wide (not a lane
// multiple); a 1x1 output from a strided conv; 1x1 kernels; and odd channel
// counts as pruning leaves them (weight-gradient row tiles with padding
// rows, a second row tile from 17 rows on, column tails of 45, 63 and 27).
const std::vector<OracleGeometry> kOracleGeometries = {
    {{.in_channels = 3, .out_channels = 6, .kernel = 3}, 3, 3},
    {{.in_channels = 3, .out_channels = 6, .kernel = 3}, 5, 5},
    {{.in_channels = 3, .out_channels = 6, .kernel = 3}, 12, 12},
    {{.in_channels = 2, .out_channels = 4, .kernel = 3, .stride = 2, .pad = 1}, 9, 7},
    {{.in_channels = 2, .out_channels = 5, .kernel = 3}, 5, 30},
    {{.in_channels = 3, .out_channels = 4, .kernel = 3, .stride = 1, .pad = 1}, 4, 13},
    {{.in_channels = 3, .out_channels = 4, .kernel = 3, .stride = 2}, 4, 4},
    {{.in_channels = 4, .out_channels = 3, .kernel = 1}, 3, 5},
    {{.in_channels = 2, .out_channels = 3, .kernel = 1, .stride = 2, .pad = 1}, 5, 6},
    {{.in_channels = 5, .out_channels = 11, .kernel = 3}, 6, 6},
    {{.in_channels = 7, .out_channels = 17, .kernel = 3}, 5, 5},
    {{.in_channels = 3, .out_channels = 9, .kernel = 3, .stride = 1, .pad = 1}, 4, 4},
};

TEST(Conv2dOracle, PanelledConvMatchesPerSampleReferenceBitwise) {
  std::uint64_t seed = 1;
  for (const int workers : {1, 2, 4}) {
    set_worker_count(workers);
    for (const std::int64_t batch : {1, 5, 33}) {
      for (const OracleGeometry& g : kOracleGeometries) {
        Rng rng(seed++);
        QuantSpec quant;
        quant.weight_bits = 2;  // ternary levels: some weights are exactly 0
        Conv2d conv("conv", g.config, quant, rng);
        const Tensor input =
            random_tensor(Shape{batch, g.config.in_channels, g.height, g.width}, rng, 0.2);
        const Shape out_shape = conv.output_shape(input.shape());
        const Tensor grad_output = random_tensor(out_shape, rng, 0.3);

        const ConvResult want = run_reference(conv, input, grad_output);
        const ConvResult got = run_layer(conv, input, grad_output);
        const std::string where =
            "workers=" + std::to_string(workers) + " batch=" + std::to_string(batch) +
            " in=" + std::to_string(g.height) + "x" + std::to_string(g.width) +
            " k=" + std::to_string(g.config.kernel) + " s=" + std::to_string(g.config.stride) +
            " p=" + std::to_string(g.config.pad) + " out=" + std::to_string(out_shape[2]) + "x" +
            std::to_string(out_shape[3]);
        EXPECT_TRUE(bitwise_equal(want.output, got.output)) << "forward, " << where;
        EXPECT_TRUE(bitwise_equal(want.grad_input, got.grad_input)) << "input grad, " << where;
        EXPECT_TRUE(bitwise_equal(want.grad_weight, got.grad_weight))
            << "weight grad, " << where;
      }
    }
  }
  set_worker_count(0);
}

TEST(Conv2dOracle, BackwardParamsGivesTheSameWeightGradient) {
  Rng rng(3);
  Conv2d full("conv", {.in_channels = 3, .out_channels = 6, .kernel = 3}, QuantSpec{}, rng);
  Conv2d params_only("conv", full.config(), full.quant(), full.weight());
  const Tensor input = random_tensor(Shape{7, 3, 6, 6}, rng, 0.1);
  const Tensor grad_output = random_tensor(full.output_shape(input.shape()), rng, 0.1);
  full.forward(input, true);
  params_only.forward(input, true);
  EXPECT_FALSE(full.backward(grad_output).empty());
  params_only.backward_params(grad_output);
  EXPECT_TRUE(bitwise_equal(values_of(full.params().front()->grad),
                            values_of(params_only.params().front()->grad)));
}

/// Every parameter gradient after one forward (training) + backward, either
/// through Model::backward (first layer's input gradient skipped) or through
/// every layer's full backward().
std::vector<std::vector<float>> param_grads(Model& model, const Tensor& images,
                                            const std::vector<int>& labels, bool full_backward) {
  model.zero_grad();
  const Tensor logits = model.forward(images, /*training=*/true);
  const Tensor grad = softmax_cross_entropy(logits, labels).grad;
  if (full_backward) {
    Tensor g = grad;
    for (std::size_t i = model.size(); i-- > 0;) {
      g = model.layer(i).backward(g);
    }
    EXPECT_EQ(g.shape(), images.shape());
  } else {
    model.backward(grad);
  }
  std::vector<std::vector<float>> grads;
  for (Param* p : model.params()) {
    grads.push_back(values_of(p->grad));
  }
  return grads;
}

void expect_skip_keeps_param_grads(Model model, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<int> labels = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1};
  const Shape& in = model.input_shape();
  const Tensor images = Tensor::uniform(Shape{12, in[0], in[1], in[2]}, -1, 1, rng);
  const auto skipped = param_grads(model, images, labels, /*full_backward=*/false);
  const auto full = param_grads(model, images, labels, /*full_backward=*/true);
  ASSERT_EQ(skipped.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(skipped[i], full[i])) << model.name() << " param " << i;
  }
}

TEST(Model, SkippingFirstLayerInputGradientKeepsParamGradsBitIdentical) {
  // Conv2d first, then Linear first.
  expect_skip_keeps_param_grads(graph::lower_model(graph::from_cnv(cnv_w1a2(10, 16)), 4), 9);
  expect_skip_keeps_param_grads(graph::lower_model(graph::from_mlp(tfc_w1a2(10, 8)), 4), 10);
}

}  // namespace
}  // namespace adaflow::nn
