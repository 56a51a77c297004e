#pragma once

/// \file model.hpp
/// Sequential model container: owns layers, runs forward/backward across the
/// whole stack, and exposes the structural queries the pruner and the FINN
/// compiler need (conv/linear enumeration, shapes per layer).

#include <memory>
#include <string>
#include <vector>

#include "adaflow/nn/batchnorm.hpp"
#include "adaflow/nn/conv2d.hpp"
#include "adaflow/nn/layer.hpp"
#include "adaflow/nn/linear.hpp"
#include "adaflow/nn/maxpool2d.hpp"
#include "adaflow/nn/quant_act.hpp"

namespace adaflow::nn {

class Model {
 public:
  /// Empty model (the moved-from / not-yet-generated state); populate via
  /// move assignment before use.
  Model() = default;

  /// \p input_shape excludes the batch dimension: {C, H, W}.
  Model(std::string name, Shape input_shape);

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const Shape& input_shape() const { return input_shape_; }

  /// Appends a layer; shapes are validated lazily on first forward.
  void add(LayerPtr layer);

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Downcast accessor; throws NotFoundError on kind mismatch.
  template <typename T>
  T& layer_as(std::size_t i) {
    auto* p = dynamic_cast<T*>(layers_.at(i).get());
    if (p == nullptr) {
      throw NotFoundError("layer " + std::to_string(i) + " has unexpected kind");
    }
    return *p;
  }
  template <typename T>
  const T& layer_as(std::size_t i) const {
    const auto* p = dynamic_cast<const T*>(layers_.at(i).get());
    if (p == nullptr) {
      throw NotFoundError("layer " + std::to_string(i) + " has unexpected kind");
    }
    return *p;
  }

  /// Indices of all layers of the given kind, in graph order.
  std::vector<std::size_t> indices_of(LayerKind kind) const;

  /// Shape (with batch dim N) after each layer for a batch of size \p batch.
  std::vector<Shape> shapes_for_batch(std::int64_t batch) const;

  /// Runs the full stack. \p input is [N, C, H, W]; each activation is
  /// moved from layer to layer, so a caller done with its batch moves it in.
  Tensor forward(Tensor input, bool training);

  /// Backpropagates the loss gradient through every layer, accumulating the
  /// parameter gradients. The gradient w.r.t. the model input is not formed.
  void backward(const Tensor& grad_output);

  /// All trainable parameters in graph order.
  std::vector<Param*> params();

  void zero_grad();

  /// Number of scalar parameters.
  std::int64_t param_count() const;

 private:
  std::string name_;
  Shape input_shape_;
  std::vector<LayerPtr> layers_;
};

}  // namespace adaflow::nn
