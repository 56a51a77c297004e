#include "adaflow/hls/folding.hpp"

#include <algorithm>

#include "adaflow/common/math.hpp"

namespace adaflow::hls {

std::vector<MvtuLayerDesc> enumerate_mvtu_layers(const nn::Model& model) {
  std::vector<MvtuLayerDesc> out;
  const std::vector<nn::Shape> shapes = model.shapes_for_batch(1);
  for (std::size_t i = 0; i < model.size(); ++i) {
    const nn::Layer& layer = model.layer(i);
    if (layer.kind() == nn::LayerKind::kConv2d) {
      const auto& conv = model.layer_as<nn::Conv2d>(i);
      MvtuLayerDesc d;
      d.model_index = i;
      d.is_conv = true;
      d.name = conv.name();
      d.ch_in = conv.config().in_channels;
      d.ch_out = conv.config().out_channels;
      d.kernel = conv.config().kernel;
      d.in_dim = shapes[i][2];
      d.out_dim = shapes[i + 1][2];
      d.weight_bits = conv.quant().weight_bits;
      d.act_bits = conv.quant().act_bits;
      out.push_back(d);
    } else if (layer.kind() == nn::LayerKind::kLinear) {
      const auto& fc = model.layer_as<nn::Linear>(i);
      MvtuLayerDesc d;
      d.model_index = i;
      d.is_conv = false;
      d.name = fc.name();
      d.ch_in = fc.in_features();
      d.ch_out = fc.out_features();
      d.kernel = 1;
      d.in_dim = 1;
      d.out_dim = 1;
      d.weight_bits = fc.quant().weight_bits;
      d.act_bits = fc.quant().act_bits;
      out.push_back(d);
    }
  }
  return out;
}

std::vector<MvtuLayerDesc> enumerate_mvtu_layers(const CompiledModel& geometry) {
  std::vector<MvtuLayerDesc> out;
  for (std::size_t i = 0; i < geometry.stages.size(); ++i) {
    const StageDesc& desc = geometry.stages[i].desc;
    if (!is_mvtu_kind(desc.kind)) {
      continue;
    }
    MvtuLayerDesc d;
    d.model_index = i;
    d.is_conv = desc.kind == StageKind::kConv;
    d.name = desc.name;
    d.ch_in = desc.ch_in;
    d.ch_out = desc.ch_out;
    d.kernel = desc.kernel;
    d.in_dim = desc.in_dim;
    d.out_dim = desc.out_dim;
    out.push_back(d);
  }
  return out;
}

namespace {

void validate_folding_layers(const std::vector<MvtuLayerDesc>& layers,
                             const FoldingConfig& folding) {
  if (layers.size() != folding.layers.size()) {
    throw FoldingError("folding has " + std::to_string(folding.layers.size()) +
                       " entries for " + std::to_string(layers.size()) + " MVTU layers");
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const MvtuLayerDesc& d = layers[i];
    const LayerFolding& f = folding.layers[i];
    if (f.pe <= 0 || f.simd <= 0) {
      throw FoldingError(d.name + ": PE/SIMD must be positive");
    }
    if (!divisible(d.ch_out, f.pe)) {
      throw FoldingError(d.name + ": PE=" + std::to_string(f.pe) +
                         " does not divide ch_out=" + std::to_string(d.ch_out));
    }
    if (!divisible(d.ch_in, f.simd)) {
      throw FoldingError(d.name + ": SIMD=" + std::to_string(f.simd) +
                         " does not divide ch_in=" + std::to_string(d.ch_in));
    }
  }
}

}  // namespace

void validate_folding(const nn::Model& model, const FoldingConfig& folding) {
  validate_folding_layers(enumerate_mvtu_layers(model), folding);
}

void validate_folding(const CompiledModel& geometry, const FoldingConfig& folding) {
  validate_folding_layers(enumerate_mvtu_layers(geometry), folding);
}

std::int64_t next_divisor_above(std::int64_t value, std::int64_t current) {
  require(value > 0, "divisor search needs a positive value");
  for (std::int64_t d = current + 1; d <= value; ++d) {
    if (value % d == 0) {
      return d;
    }
  }
  return 0;
}

std::vector<std::int64_t> divisors_of(std::int64_t value) {
  require(value > 0, "divisor enumeration needs a positive value");
  std::vector<std::int64_t> small;
  std::vector<std::int64_t> large;
  for (std::int64_t d = 1; d * d <= value; ++d) {
    if (value % d == 0) {
      small.push_back(d);
      if (d != value / d) {
        large.push_back(value / d);
      }
    }
  }
  small.insert(small.end(), large.rbegin(), large.rend());
  return small;
}

std::int64_t mvtu_layer_cycles(const MvtuLayerDesc& layer, const LayerFolding& folding) {
  const std::int64_t out_pixels = layer.out_dim * layer.out_dim;
  const std::int64_t neuron_folds = ceil_div(layer.ch_out, folding.pe);
  const std::int64_t synapse_folds = ceil_div(layer.kernel * layer.kernel * layer.ch_in, folding.simd);
  return out_pixels * neuron_folds * synapse_folds;
}

namespace {

FoldingConfig folding_for_layers(const std::vector<MvtuLayerDesc>& layers,
                                 double target_fps, double clock_hz) {
  require(target_fps > 0 && clock_hz > 0, "target fps and clock must be positive");
  FoldingConfig folding;
  folding.layers.assign(layers.size(), LayerFolding{1, 1});

  const auto target_cycles = static_cast<std::int64_t>(clock_hz / target_fps);

  // Greedily raise the parallelism of the current bottleneck. Each step tries
  // the next-larger valid divisor for either PE or SIMD of that layer — every
  // channel divisor is a candidate (48 steps through 2,3,4,6,...), so
  // non-power-of-two channel counts never get skipped past.
  while (true) {
    std::size_t bottleneck = 0;
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const std::int64_t c = mvtu_layer_cycles(layers[i], folding.layers[i]);
      if (c > worst) {
        worst = c;
        bottleneck = i;
      }
    }
    if (worst <= target_cycles) {
      break;
    }

    const MvtuLayerDesc& d = layers[bottleneck];
    LayerFolding& f = folding.layers[bottleneck];

    // Candidate upgrades: next divisor of ch_out above pe, next divisor of
    // ch_in above simd. Pick the one with the smaller resulting parallelism
    // product (cheapest hardware step).
    const std::int64_t next_pe = next_divisor_above(d.ch_out, f.pe);
    const std::int64_t next_simd = next_divisor_above(d.ch_in, f.simd);
    if (next_pe == 0 && next_simd == 0) {
      break;  // fully unrolled; target unreachable
    }
    const std::int64_t cost_pe = next_pe == 0 ? INT64_MAX : next_pe * f.simd;
    const std::int64_t cost_simd = next_simd == 0 ? INT64_MAX : f.pe * next_simd;
    if (cost_pe <= cost_simd) {
      f.pe = next_pe;
    } else {
      f.simd = next_simd;
    }
  }
  return folding;
}

}  // namespace

FoldingConfig folding_for_target_fps(const nn::Model& model, double target_fps,
                                     double clock_hz) {
  return folding_for_layers(enumerate_mvtu_layers(model), target_fps, clock_hz);
}

FoldingConfig folding_for_target_fps(const CompiledModel& geometry, double target_fps,
                                     double clock_hz) {
  return folding_for_layers(enumerate_mvtu_layers(geometry), target_fps, clock_hz);
}

}  // namespace adaflow::hls
