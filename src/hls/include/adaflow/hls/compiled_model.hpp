#pragma once

/// \file compiled_model.hpp
/// "CNN Compilation & HLS Synthesis" front half: lowers a trained nn::Model
/// into the integer artifacts a dataflow accelerator consumes — quantized
/// weight levels per MVTU, folded thresholds (BN + activation), and the
/// stage sequence of the streaming pipeline.

#include <string>
#include <vector>

#include "adaflow/hls/thresholds.hpp"
#include "adaflow/hls/types.hpp"
#include "adaflow/nn/model.hpp"

namespace adaflow::hls {

enum class StageKind { kConv, kPool, kFc, kConcat, kUpsample, kGlobalPool };

/// MVTU stages (conv + fc) carry weights and a folding; the streaming
/// stages (pool, concat, upsample, global-pool) are folding-free plumbing.
inline bool is_mvtu_kind(StageKind kind) {
  return kind == StageKind::kConv || kind == StageKind::kFc;
}

/// Geometry of one pipeline stage.
struct StageDesc {
  StageKind kind = StageKind::kConv;
  std::string name;
  std::int64_t kernel = 3;   ///< conv/pool kernel (1 for fc)
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t in_dim = 0;   ///< input spatial dim (1 for fc)
  std::int64_t out_dim = 0;  ///< output spatial dim
  std::int64_t ch_in = 0;
  std::int64_t ch_out = 0;
};

/// One compiled stage: geometry plus (for MVTU stages) weights/thresholds.
struct CompiledStage {
  StageDesc desc;
  std::vector<std::int8_t> weight_levels;  ///< [ch_out][kernel^2 * ch_in]
  float weight_scale = 1.0f;
  ThresholdBank thresholds;  ///< empty => raw accumulator output (classifier)
  float acc_scale = 1.0f;    ///< value of one accumulator unit
};

/// A CNN model lowered for the dataflow accelerator.
struct CompiledModel {
  std::string version;        ///< e.g. "CNVW2A2@p25"
  double pruning_rate = 0.0;  ///< requested library rate (bookkeeping)
  double accuracy = 0.0;      ///< attached by the library generator
  InputQuantConfig input_quant;
  std::int64_t classes = 0;
  std::vector<CompiledStage> stages;

  /// Indices of MVTU stages (conv + fc) in pipeline order.
  std::vector<std::size_t> mvtu_stage_indices() const;
};

/// Lowers \p model. The model must follow the CNV structure: every Conv2d
/// and every hidden Linear is followed by BatchNorm + QuantAct; the final
/// Linear is bare (raw logits).
CompiledModel compile_model(const nn::Model& model, double pruning_rate = 0.0,
                            const InputQuantConfig& input_quant = {});

}  // namespace adaflow::hls
