#pragma once

/// \file layer.hpp
/// Layer interface for the sequential training graph. Layers own their
/// parameters (value + gradient pairs) and cache whatever the backward pass
/// needs during forward.

#include <memory>
#include <string>
#include <vector>

#include "adaflow/nn/tensor.hpp"

namespace adaflow::nn {

/// A trainable parameter: value and accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Param() = default;

  void zero_grad() { grad.fill(0.0f); }
};

/// Kind tags used by the compiler/pruner to walk the graph structurally.
enum class LayerKind {
  kConv2d,
  kLinear,
  kMaxPool2d,
  kBatchNorm,
  kQuantAct,
};

const char* layer_kind_name(LayerKind kind);

/// Abstract sequential layer.
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const { return name_; }
  virtual LayerKind kind() const = 0;

  /// Computes the layer output. When \p training is true the layer caches
  /// activations for backward and uses batch statistics where relevant.
  /// The layer owns \p input: it may keep it as its cache or write the
  /// output into its storage, so a caller that is done with its tensor
  /// moves it in.
  virtual Tensor forward(Tensor input, bool training) = 0;

  /// Propagates \p grad_output to the input, accumulating parameter grads.
  /// Must follow a forward(…, training=true) on the same batch; throws
  /// ShapeError when \p grad_output's shape is not that forward's output
  /// shape.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() without the input gradient, for a layer whose input is the
  /// model's data. Layers for which that gradient costs real work override
  /// this to skip it; the parameter gradients are the same bits either way.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Output shape for a given input shape (batch dim included).
  virtual Shape output_shape(const Shape& input) const = 0;

 private:
  std::string name_;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Throws ShapeError, naming \p layer and both shapes, unless \p grad_output
/// has the shape \p forward_output of the layer's last training forward.
void check_grad_output(const Layer& layer, const Shape& forward_output, const Tensor& grad_output);

}  // namespace adaflow::nn
