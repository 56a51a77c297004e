#include "adaflow/nn/model.hpp"

namespace adaflow::nn {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d:
      return "Conv2d";
    case LayerKind::kLinear:
      return "Linear";
    case LayerKind::kMaxPool2d:
      return "MaxPool2d";
    case LayerKind::kBatchNorm:
      return "BatchNorm";
    case LayerKind::kQuantAct:
      return "QuantAct";
  }
  return "?";
}

void check_grad_output(const Layer& layer, const Shape& forward_output, const Tensor& grad_output) {
  if (grad_output.shape() != forward_output) {
    throw ShapeError(std::string(layer_kind_name(layer.kind())) + " " + layer.name() +
                     " backward: grad_output " + grad_output.shape_string() +
                     " does not match the forward output " + shape_string(forward_output));
  }
}

Model::Model(std::string name, Shape input_shape)
    : name_(std::move(name)), input_shape_(std::move(input_shape)) {
  require(input_shape_.size() == 3, "model input shape must be {C, H, W}");
}

void Model::add(LayerPtr layer) {
  require(layer != nullptr, "null layer");
  layers_.push_back(std::move(layer));
}

std::vector<std::size_t> Model::indices_of(LayerKind kind) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->kind() == kind) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<Shape> Model::shapes_for_batch(std::int64_t batch) const {
  std::vector<Shape> shapes;
  Shape s{batch, input_shape_[0], input_shape_[1], input_shape_[2]};
  shapes.push_back(s);
  for (const auto& layer : layers_) {
    s = layer->output_shape(s);
    shapes.push_back(s);
  }
  return shapes;
}

Tensor Model::forward(Tensor input, bool training) {
  for (auto& layer : layers_) {
    input = layer->forward(std::move(input), training);
  }
  return input;
}

void Model::backward(const Tensor& grad_output) {
  if (layers_.empty()) {
    return;
  }
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->backward(g);
  }
  // The first layer reads the input data, whose gradient nothing uses.
  layers_.front()->backward_params(g);
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) {
      out.push_back(p);
    }
  }
  return out;
}

void Model::zero_grad() {
  for (Param* p : params()) {
    p->zero_grad();
  }
}

std::int64_t Model::param_count() const {
  std::int64_t n = 0;
  for (const auto& layer : layers_) {
    for (Param* p : const_cast<Layer&>(*layer).params()) {
      n += p->value.size();
    }
  }
  return n;
}

}  // namespace adaflow::nn
