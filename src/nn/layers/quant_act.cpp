#include "adaflow/nn/quant_act.hpp"

namespace adaflow::nn {

QuantAct::QuantAct(std::string name, QuantSpec quant) : Layer(std::move(name)), quant_(quant) {
  require(quant_.act_bits >= 0 && quant_.act_bits <= 8, "activation bits out of range");
  require(quant_.act_scale > 0.0f, "activation scale must be positive");
}

Tensor QuantAct::forward(Tensor input, bool training) {
  // Element-wise, so out may be in: eval mode writes over its input.
  Tensor output = training ? Tensor::uninitialized(input.shape()) : Tensor();
  const float* in = input.data();
  float* out = training ? output.data() : input.data();
  if (quant_.quantized_acts()) {
    const float scale = quant_.act_scale;
    const int bits = quant_.act_bits;
    for (std::int64_t i = 0; i < input.size(); ++i) {
      out[i] = quantize_act(in[i], scale, bits);
    }
  } else {
    for (std::int64_t i = 0; i < input.size(); ++i) {
      out[i] = in[i] > 0.0f ? in[i] : 0.0f;
    }
  }
  if (!training) {
    return input;
  }
  cached_input_ = std::move(input);
  return output;
}

Tensor QuantAct::backward(const Tensor& grad_output) {
  require(!cached_input_.empty(), "quant_act backward without forward");
  check_grad_output(*this, cached_input_.shape(), grad_output);
  Tensor grad_input = Tensor::uninitialized(grad_output.shape());
  const float* x = cached_input_.data();
  const float* dy = grad_output.data();
  float* dx = grad_input.data();
  if (quant_.quantized_acts()) {
    const float scale = quant_.act_scale;
    const int bits = quant_.act_bits;
    for (std::int64_t i = 0; i < grad_output.size(); ++i) {
      dx[i] = dy[i] * act_ste_mask(x[i], scale, bits);
    }
  } else {
    for (std::int64_t i = 0; i < grad_output.size(); ++i) {
      const float g = dy[i];
      dx[i] = x[i] > 0.0f ? g : 0.0f;
    }
  }
  return grad_input;
}

}  // namespace adaflow::nn
