#include "adaflow/nn/linear.hpp"

#include "adaflow/nn/gemm.hpp"

namespace adaflow::nn {

namespace {
std::int64_t flat_features(const Shape& input) {
  std::int64_t f = 1;
  for (std::size_t i = 1; i < input.size(); ++i) {
    f *= input[i];
  }
  return f;
}
}  // namespace

Linear::Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
               QuantSpec quant, Rng& rng)
    : Layer(std::move(name)), in_features_(in_features), out_features_(out_features),
      quant_(quant) {
  require(in_features > 0 && out_features > 0, "linear features must be positive");
  weight_ = Param(Tensor::he_normal(Shape{out_features, in_features}, in_features, rng));
}

Linear::Linear(std::string name, std::int64_t in_features, std::int64_t out_features,
               QuantSpec quant, Tensor weight)
    : Layer(std::move(name)), in_features_(in_features), out_features_(out_features),
      quant_(quant) {
  if (weight.shape() != Shape{out_features, in_features}) {
    throw ShapeError("linear weight shape mismatch: " + weight.shape_string());
  }
  weight_ = Param(std::move(weight));
}

Shape Linear::output_shape(const Shape& input) const {
  if (input.empty() || flat_features(input) != in_features_) {
    throw ShapeError("linear " + name() + " expects " + std::to_string(in_features_) +
                     " flattened features");
  }
  return Shape{input[0], out_features_};
}

Tensor Linear::effective_weight() const {
  if (!quant_.quantized_weights()) {
    return weight_.value;
  }
  QuantizedWeights q = quantize_weights(weight_.value, quant_.weight_bits);
  Tensor w(q.levels.shape());
  for (std::int64_t i = 0; i < w.size(); ++i) {
    w[i] = q.levels[i] * q.scale;
  }
  return w;
}

QuantizedWeights Linear::export_quantized() const {
  require(quant_.quantized_weights(), "linear " + name() + " has float weights");
  return quantize_weights(weight_.value, quant_.weight_bits);
}

Tensor Linear::forward(Tensor input, bool training) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t batch = input.dim(0);
  Shape input_shape = input.shape();
  Tensor flat = std::move(input).reshaped(Shape{batch, in_features_});

  Tensor w = effective_weight();
  Tensor output = Tensor::uninitialized(out_shape);
  // out [N, out] = flat [N, in] * W^T [in, out]
  gemm_nt(batch, out_features_, in_features_, flat.data(), w.data(), output.data(),
          GemmOut::kWrite);

  if (training) {
    cached_input_shape_ = std::move(input_shape);
    cached_input_ = std::move(flat);
    cached_effective_weight_ = std::move(w);
  }
  return output;
}

void Linear::backward_params(const Tensor& grad_output) {
  require(!cached_input_.empty(), "linear backward without forward");
  check_grad_output(*this, Shape{cached_input_.dim(0), out_features_}, grad_output);
  // dW [out, in] += dY^T [out, N] * X [N, in]
  gemm_tn(out_features_, in_features_, cached_input_.dim(0), grad_output.data(),
          cached_input_.data(), weight_.grad.data());
}

Tensor Linear::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const std::int64_t batch = cached_input_.dim(0);

  // dX [N, in] = dY [N, out] * W [out, in]
  Tensor grad_flat = Tensor::uninitialized(Shape{batch, in_features_});
  gemm_nn(batch, in_features_, out_features_, grad_output.data(), cached_effective_weight_.data(),
          grad_flat.data(), GemmOut::kWrite);
  return std::move(grad_flat).reshaped(cached_input_shape_);
}

}  // namespace adaflow::nn
