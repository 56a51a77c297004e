#pragma once

// The backward shape contract of nn::Layer: a grad_output whose shape is not
// that of the last training forward's output throws ShapeError naming the
// layer and both shapes, before any element is read.

#include <gtest/gtest.h>

#include <string>

#include "adaflow/nn/layer.hpp"

namespace adaflow::nn {

inline void expect_grad_shape_error(Layer& layer, const Shape& forward_output,
                                    const Shape& wrong_grad) {
  try {
    layer.backward(Tensor(wrong_grad));
    ADD_FAILURE() << layer.name() << ": backward accepted " << shape_string(wrong_grad);
  } catch (const ShapeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(layer.name()), std::string::npos) << what;
    EXPECT_NE(what.find(shape_string(wrong_grad)), std::string::npos) << what;
    EXPECT_NE(what.find(shape_string(forward_output)), std::string::npos) << what;
  }
}

}  // namespace adaflow::nn
