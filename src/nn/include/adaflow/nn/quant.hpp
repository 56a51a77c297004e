#pragma once

/// \file quant.hpp
/// Quantization-aware-training primitives (the Brevitas substitute).
///
/// Weights keep a float "shadow" copy; the forward pass sees quantized values
/// and gradients flow to the shadow through a straight-through estimator
/// (STE). Supported weight precisions match the paper's models: 1-bit
/// (CNVW1A2) and 2-bit narrow-range (CNVW2A2). Activations use unsigned
/// uniform quantization (2-bit for both models).

#include <cfloat>
#include <cstdint>

#include "adaflow/nn/tensor.hpp"

namespace adaflow::nn {

/// Per-layer quantization configuration.
struct QuantSpec {
  /// Weight bit-width: 0 = float (no quantization), 1 = binary {-1,+1},
  /// 2 = narrow-range 2-bit {-1, 0, +1}.
  int weight_bits = 0;
  /// Activation bit-width for QuantAct layers: 0 = plain ReLU, else n-bit
  /// unsigned levels {0 .. 2^n - 1} * act_scale.
  int act_bits = 0;
  /// Step size of the activation quantizer.
  float act_scale = 0.5f;

  bool quantized_weights() const { return weight_bits > 0; }
  bool quantized_acts() const { return act_bits > 0; }
};

/// Result of quantizing a weight tensor: integer levels plus a common scale,
/// so that w_q = scale * level. The levels are what the HLS MVTU consumes.
struct QuantizedWeights {
  Tensor levels;  ///< integer-valued floats in {-1, 0, +1} (or {-1,+1} for 1-bit)
  float scale = 1.0f;
};

/// Quantizes \p shadow to \p bits (1 or 2). The scale is the mean absolute
/// value of the tensor (the ℓ1 heuristic used by BinaryConnect/Brevitas),
/// which keeps the quantizer zero-free for 1-bit and symmetric for 2-bit.
QuantizedWeights quantize_weights(const Tensor& shadow, int bits);

/// Integer level of a single value under the weight quantizer.
float quantize_weight_level(float value, float scale, int bits);

/// Maximum integer activation level for a bit-width (2 bits -> 3).
constexpr std::int64_t act_level_max(int bits) { return (std::int64_t{1} << bits) - 1; }

// The rounding below relies on float arithmetic in float precision.
static_assert(FLT_EVAL_METHOD == 0, "activation rounding needs float-precision evaluation");

/// clamp(round(x / scale), 0, max_level) as a float, rounding half to even
/// like std::nearbyint in the default rounding mode. Branch-free so that
/// QuantAct's loops vectorise: adding and subtracting 1.5 * 2^23 rounds any
/// |q| < 2^22 to an integer, ties to even. A larger |q| may round
/// differently, but it clamps to 0 or max_level either way.
inline float act_level(float x, float scale, float max_level) {
  constexpr float kRoundingShift = 12582912.0f;  // 1.5 * 2^23
  const float r = (x / scale + kRoundingShift) - kRoundingShift;
  const float lo = r > 0.0f ? r : 0.0f;
  return lo < max_level ? lo : max_level;
}

/// Forward value of the activation quantizer: clamp(round(x / s), 0, max) * s.
inline float quantize_act(float x, float scale, int bits) {
  return act_level(x, scale, static_cast<float>(act_level_max(bits))) * scale;
}

/// Integer level the activation quantizer assigns to \p x.
inline std::int64_t quantize_act_level(float x, float scale, int bits) {
  return static_cast<std::int64_t>(act_level(x, scale, static_cast<float>(act_level_max(bits))));
}

/// STE gradient mask for the activation quantizer: 1 inside the representable
/// range (pre-activation between 0 and (max + 0.5) * scale), else 0.
inline float act_ste_mask(float x, float scale, int bits) {
  const float hi = (static_cast<float>(act_level_max(bits)) + 0.5f) * scale;
  // Two selects rather than `&&`: no branch, so QuantAct's backward loop
  // vectorises.
  const float above = x > -0.5f * scale ? 1.0f : 0.0f;
  return x < hi ? above : 0.0f;
}

}  // namespace adaflow::nn
