#include "adaflow/nn/tensor.hpp"

#include <cmath>
#include <sstream>

namespace adaflow::nn {

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(element_count(shape_)), 0.0f);
}

Tensor::Tensor(Shape shape, float value) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(element_count(shape_)), value);
}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.data_.resize(static_cast<std::size_t>(element_count(shape)));
  t.shape_ = std::move(shape);
  poison_uninitialized(t.data(), t.size());
  return t;
}

Tensor Tensor::he_normal(Shape shape, std::int64_t fan_in, Rng& rng) {
  require(fan_in > 0, "he_normal fan_in must be positive");
  Tensor t(std::move(shape));
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::uniform(Shape shape, float lo, float hi, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

void Tensor::fill(float value) {
  for (auto& v : data_) {
    v = value;
  }
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  return Tensor(*this).reshaped(std::move(new_shape));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  if (element_count(new_shape) != size()) {
    throw ShapeError("reshape from " + shape_string() + " changes element count");
  }
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = std::move(data_);
  shape_.clear();
  return t;
}

std::int64_t Tensor::element_count(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    if (d < 0) {
      throw ShapeError("negative dimension");
    }
    n *= d;
  }
  return n;
}

std::string shape_string(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    os << (i ? ", " : "") << shape[i];
  }
  os << "]";
  return os.str();
}

}  // namespace adaflow::nn
