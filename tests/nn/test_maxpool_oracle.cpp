// Bit-exact oracle for MaxPool2d: the 2x2 path (vector selects, one-byte
// winners, a backward that writes every input element) and the generic
// path for other kernels must both reproduce the original generic loop
// (reference_kernels.hpp) bit for bit, on the output and on the input
// gradient, including tied windows, signed zeros and NaNs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "adaflow/nn/maxpool2d.hpp"
#include "nn/reference_kernels.hpp"

namespace adaflow::nn {
namespace {

using namespace reference;

std::vector<float> values_of(const Tensor& t) { return {t.data(), t.data() + t.size()}; }

Tensor tensor_of(const Shape& shape, const std::vector<float>& values) {
  Tensor t(shape);
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

/// Inputs that stress the winner rule: few distinct values (many ties),
/// +0 next to -0, and NaNs in every window position.
std::vector<float> pool_values(std::int64_t count, Rng& rng) {
  std::vector<float> v = random_values(count, rng, 0.3);
  for (float& x : v) {
    const double u = rng.uniform();
    if (u < 0.15) {
      x = 0.5f;  // ties
    } else if (u < 0.2) {
      x = std::numeric_limits<float>::quiet_NaN();
    } else if (u < 0.25) {
      x = -std::numeric_limits<float>::infinity();
    }
  }
  return v;
}

/// The layer's forward and backward against the reference loops, bit for
/// bit (NaN payloads included, since memcmp compares bytes).
void expect_matches_reference(std::int64_t kernel, const Shape& in_shape, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t batch = in_shape[0];
  const std::int64_t channels = in_shape[1];
  const std::int64_t in_h = in_shape[2];
  const std::int64_t in_w = in_shape[3];
  const std::int64_t in_count = batch * channels * in_h * in_w;
  const std::int64_t out_count = in_count / (kernel * kernel);
  const std::vector<float> input = pool_values(in_count, rng);
  const std::vector<float> grad = random_values(out_count, rng, 0.4);  // -0 included

  std::vector<float> want_out(static_cast<std::size_t>(out_count));
  std::vector<std::int64_t> argmax(static_cast<std::size_t>(out_count));
  ref_maxpool_forward(input.data(), batch, channels, in_h, in_w, kernel, want_out.data(),
                      argmax.data());
  std::vector<float> want_grad(static_cast<std::size_t>(in_count));
  ref_maxpool_backward(grad.data(), argmax.data(), out_count, in_count, want_grad.data());

  MaxPool2d pool("pool", kernel);
  const Shape out_shape = pool.output_shape(in_shape);
  const std::string where = "kernel=" + std::to_string(kernel) + " in=" +
                            std::to_string(in_h) + "x" + std::to_string(in_w);
  EXPECT_TRUE(bitwise_equal(want_out, values_of(pool.forward(tensor_of(in_shape, input), false))))
      << "eval forward, " << where;
  EXPECT_TRUE(bitwise_equal(want_out, values_of(pool.forward(tensor_of(in_shape, input), true))))
      << "training forward, " << where;
  EXPECT_TRUE(bitwise_equal(want_grad, values_of(pool.backward(tensor_of(out_shape, grad)))))
      << "input gradient, " << where;
}

TEST(MaxPool2dOracle, TwoByTwoPathMatchesGenericLoopBitwise) {
  // CNV's pool1 and pool3 inputs, rows of 1-9 windows (vector tails), one
  // window per plane, and a non-square plane.
  const std::vector<Shape> shapes = {{4, 8, 28, 28}, {3, 16, 10, 10}, {2, 3, 2, 2},
                                     {2, 2, 6, 18},  {1, 5, 4, 16},   {2, 1, 8, 14}};
  std::uint64_t seed = 1;
  for (const Shape& shape : shapes) {
    expect_matches_reference(2, shape, seed++);
  }
}

TEST(MaxPool2dOracle, OtherKernelsTakeTheGenericPathBitwise) {
  expect_matches_reference(3, Shape{2, 4, 9, 12}, 11);
  expect_matches_reference(1, Shape{2, 3, 5, 4}, 12);
  expect_matches_reference(4, Shape{1, 2, 8, 8}, 13);
}

TEST(MaxPool2dOracle, TiesGoToTheFirstAndNaNOnlyFromTheFirstPosition) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // One 2x2 window per channel, elements in scan order (0,0) (0,1) (1,0) (1,1).
  const std::vector<std::vector<float>> windows = {
      {1.0f, 1.0f, 1.0f, 1.0f},    // all tied: the first wins
      {0.0f, -0.0f, 0.0f, -0.0f},  // +0 and -0 tie: +0 stays
      {-0.0f, 0.0f, 0.0f, 0.0f},   // -0 first: -0 stays
      {nan, 5.0f, 6.0f, 7.0f},     // a NaN first is never beaten
      {1.0f, nan, 2.0f, nan},      // later NaNs never win
  };
  std::vector<float> flat;
  for (const auto& w : windows) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  const auto channels = static_cast<std::int64_t>(windows.size());
  MaxPool2d pool("pool", 2);
  const Tensor out = pool.forward(tensor_of(Shape{1, channels, 2, 2}, flat), true);
  EXPECT_FALSE(std::signbit(out[1]));
  EXPECT_TRUE(std::signbit(out[2]));
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_EQ(out[4], 2.0f);
  const Tensor grad = pool.backward(Tensor::full(Shape{1, channels, 1, 1}, -0.0f));
  for (std::int64_t i = 0; i < grad.size(); ++i) {
    EXPECT_FALSE(std::signbit(grad[i])) << i;  // +0 + -0 is +0, as in a zeroed gradient
  }
}

TEST(MaxPool2dOracle, RejectsKernelsBeyondOneByteWinners) {
  EXPECT_THROW(MaxPool2d("pool", MaxPool2d::kMaxKernel + 1), ConfigError);
  EXPECT_NO_THROW(MaxPool2d("pool", MaxPool2d::kMaxKernel));
}

}  // namespace
}  // namespace adaflow::nn
