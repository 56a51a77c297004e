#include "adaflow/hls/compiled_model.hpp"

#include <cmath>

#include "adaflow/common/error.hpp"

namespace adaflow::hls {

namespace {

std::vector<std::int8_t> to_levels(const nn::QuantizedWeights& q) {
  std::vector<std::int8_t> out(static_cast<std::size_t>(q.levels.size()));
  for (std::int64_t i = 0; i < q.levels.size(); ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(q.levels[i]);
  }
  return out;
}

/// Max |accumulator| of a layer: max over neurons of sum |level| times the
/// largest input magnitude.
std::int64_t acc_magnitude(const std::vector<std::int8_t>& levels, std::int64_t rows,
                           std::int64_t cols, std::int64_t max_input) {
  std::int64_t worst = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t sum = 0;
    for (std::int64_t c = 0; c < cols; ++c) {
      sum += std::abs(static_cast<std::int64_t>(levels[static_cast<std::size_t>(r * cols + c)]));
    }
    worst = std::max(worst, sum);
  }
  return worst * max_input;
}

}  // namespace

std::vector<std::size_t> CompiledModel::mvtu_stage_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (is_mvtu_kind(stages[i].desc.kind)) {
      out.push_back(i);
    }
  }
  return out;
}

CompiledModel compile_model(const nn::Model& model, double pruning_rate,
                            const InputQuantConfig& input_quant) {
  CompiledModel compiled;
  compiled.version = model.name();
  compiled.pruning_rate = pruning_rate;
  compiled.input_quant = input_quant;

  const std::vector<nn::Shape> shapes = model.shapes_for_batch(1);

  // Scale of the integer activations entering the next MVTU, and their max
  // magnitude (for threshold search ranges).
  float current_scale = input_quant.scale;
  std::int64_t current_max_level =
      std::max<std::int64_t>(std::abs(static_cast<std::int64_t>(input_quant.min_level)),
                             input_quant.max_level);

  for (std::size_t i = 0; i < model.size(); ++i) {
    const nn::Layer& layer = model.layer(i);
    switch (layer.kind()) {
      case nn::LayerKind::kConv2d:
      case nn::LayerKind::kLinear: {
        const bool is_conv = layer.kind() == nn::LayerKind::kConv2d;
        CompiledStage stage;
        nn::QuantizedWeights q;
        if (is_conv) {
          const auto& conv = model.layer_as<nn::Conv2d>(i);
          q = conv.export_quantized();
          stage.desc.kind = StageKind::kConv;
          stage.desc.kernel = conv.config().kernel;
          stage.desc.stride = conv.config().stride;
          stage.desc.pad = conv.config().pad;
          stage.desc.ch_in = conv.config().in_channels;
          stage.desc.ch_out = conv.config().out_channels;
          stage.desc.in_dim = shapes[i][2];
          stage.desc.out_dim = shapes[i + 1][2];
        } else {
          const auto& fc = model.layer_as<nn::Linear>(i);
          q = fc.export_quantized();
          stage.desc.kind = StageKind::kFc;
          stage.desc.kernel = 1;
          stage.desc.ch_in = fc.in_features();
          stage.desc.ch_out = fc.out_features();
          stage.desc.in_dim = 1;
          stage.desc.out_dim = 1;
        }
        stage.desc.name = layer.name();
        stage.weight_levels = to_levels(q);
        stage.weight_scale = q.scale;
        stage.acc_scale = current_scale * q.scale;

        // A BatchNorm + QuantAct pair right after an MVTU folds into
        // thresholds; a bare MVTU (classifier) emits raw accumulators.
        const bool has_bn_act = i + 2 < model.size() &&
                                model.layer(i + 1).kind() == nn::LayerKind::kBatchNorm &&
                                model.layer(i + 2).kind() == nn::LayerKind::kQuantAct;
        if (has_bn_act) {
          const auto& bn = model.layer_as<nn::BatchNorm>(i + 1);
          const auto& act = model.layer_as<nn::QuantAct>(i + 2);
          require(bn.channels() == stage.desc.ch_out, "BN/MVTU channel mismatch");
          const std::int64_t magnitude =
              acc_magnitude(stage.weight_levels, stage.desc.ch_out,
                            stage.desc.kernel * stage.desc.kernel * stage.desc.ch_in,
                            current_max_level);
          stage.thresholds =
              fold_thresholds(bn.inference_affine(), stage.acc_scale, act.quant(), magnitude);
          current_scale = act.quant().act_scale;
          current_max_level = nn::act_level_max(act.quant().act_bits);
          i += 2;  // consume the folded BN + QuantAct
        } else {
          compiled.classes = stage.desc.ch_out;
          current_scale = stage.acc_scale;
        }
        compiled.stages.push_back(std::move(stage));
        break;
      }
      case nn::LayerKind::kMaxPool2d: {
        const auto& pool = model.layer_as<nn::MaxPool2d>(i);
        CompiledStage stage;
        stage.desc.kind = StageKind::kPool;
        stage.desc.name = pool.name();
        stage.desc.kernel = pool.kernel();
        stage.desc.stride = pool.kernel();
        stage.desc.ch_in = shapes[i][1];
        stage.desc.ch_out = shapes[i][1];
        stage.desc.in_dim = shapes[i][2];
        stage.desc.out_dim = shapes[i + 1][2];
        compiled.stages.push_back(std::move(stage));
        break;
      }
      case nn::LayerKind::kBatchNorm:
      case nn::LayerKind::kQuantAct:
        throw ConfigError("unexpected bare " + std::string(nn::layer_kind_name(layer.kind())) +
                          " at layer " + std::to_string(i) +
                          " (must directly follow an MVTU layer)");
    }
  }
  require(compiled.classes > 0, "model has no classifier stage");
  return compiled;
}

}  // namespace adaflow::hls
