#pragma once

/// \file tensor.hpp
/// Dense float tensor in NCHW layout, the numeric workhorse of the training
/// substrate. Deliberately minimal: contiguous storage, shape bookkeeping,
/// and the indexing helpers the layers need — no views, no broadcasting.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/common/rng.hpp"

namespace adaflow::nn {

using Shape = std::vector<std::int64_t>;

/// Human-readable shape, e.g. "[64, 3, 32, 32]".
std::string shape_string(const Shape& shape);

/// Marks \p count floats at \p p as not yet written. Builds with
/// ADAFLOW_POISON_UNINITIALIZED (the ADAFLOW_SANITIZE ones) fill them with a
/// NaN pattern, so that an element read before it is written turns the
/// results NaN; other builds leave the memory as it is.
inline void poison_uninitialized([[maybe_unused]] float* p, [[maybe_unused]] std::int64_t count) {
#ifdef ADAFLOW_POISON_UNINITIALIZED
  const std::uint32_t bits = 0x7fc5a5a5u;  // a quiet NaN
  for (std::int64_t i = 0; i < count; ++i) {
    std::memcpy(p + i, &bits, sizeof bits);
  }
#endif
}

namespace detail {
/// std::allocator, except that resize() default-initialises new elements (a
/// float is left unwritten) instead of value-initialising (zeroing) them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};
}  // namespace detail

/// Contiguous float tensor with row-major (last index fastest) layout.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with \p value.
  Tensor(Shape shape, float value);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value) { return Tensor(std::move(shape), value); }

  /// Allocates without initialising the elements. Only for a tensor whose
  /// every element is written before any is read; an accumulation target
  /// must come from zeros().
  static Tensor uninitialized(Shape shape);

  /// He-normal initialization for a weight tensor with \p fan_in inputs.
  static Tensor he_normal(Shape shape, std::int64_t fan_in, Rng& rng);

  /// Uniform random values in [lo, hi).
  static Tensor uniform(Shape shape, float lo, float hi, Rng& rng);

  const Shape& shape() const { return shape_; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const { return shape_.at(static_cast<std::size_t>(i)); }
  std::int64_t size() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// 4-D accessor (n, c, h, w); the tensor must be rank 4.
  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>(index4(n, c, h, w))];
  }
  float at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    return data_[static_cast<std::size_t>(index4(n, c, h, w))];
  }

  /// 2-D accessor (r, c); the tensor must be rank 2.
  float& at2(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }
  float at2(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * shape_[1] + c)];
  }

  /// Linear index of (n, c, h, w).
  std::int64_t index4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }

  /// Sets every element to \p value.
  void fill(float value);

  /// Reinterprets the tensor with a new shape of identical element count:
  /// a copy, or, on an rvalue, the same storage moved.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  /// Element count sanity: product of dims.
  static std::int64_t element_count(const Shape& shape);

  /// Human-readable shape, e.g. "[64, 3, 32, 32]".
  std::string shape_string() const { return nn::shape_string(shape_); }

 private:
  Shape shape_;
  std::vector<float, detail::DefaultInitAllocator<float>> data_;
};

}  // namespace adaflow::nn
