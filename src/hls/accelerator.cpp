#include "adaflow/hls/accelerator.hpp"

#include <algorithm>

#include "adaflow/common/error.hpp"
#include "adaflow/nn/data.hpp"

namespace adaflow::hls {

namespace {
/// Graph-lowered detection models carry concat, upsample and global-pool
/// stages; the functional simulator only streams a conv/pool/fc chain.
[[noreturn]] void reject_unsupported(const StageDesc& stage) {
  throw FoldingError("stage " + stage.name +
                     " is a concat/upsample/global-pool stage, which the functional dataflow "
                     "accelerator does not support");
}
}  // namespace

std::int64_t InferenceStats::total_pipeline_iterations() const {
  std::int64_t total = 0;
  for (const auto& s : mvtu_stages) {
    total += s.pipeline_iterations;
  }
  for (const auto& s : pool_stages) {
    total += s.pipeline_iterations;
  }
  return total;
}

std::int64_t InferenceStats::total_idle_unit_ops() const {
  std::int64_t total = 0;
  for (const auto& s : mvtu_stages) {
    total += s.idle_unit_ops;
  }
  for (const auto& s : pool_stages) {
    total += s.idle_unit_ops;
  }
  return total;
}

DataflowAccelerator::DataflowAccelerator(AcceleratorVariant variant,
                                         const CompiledModel& synthesis_model,
                                         FoldingConfig folding)
    : variant_(variant), synthesis_(synthesis_model), folding_(std::move(folding)) {
  const std::vector<std::size_t> mvtu_stages = synthesis_.mvtu_stage_indices();
  if (folding_.layers.size() != mvtu_stages.size()) {
    throw FoldingError("folding entries (" + std::to_string(folding_.layers.size()) +
                       ") != MVTU stages (" + std::to_string(mvtu_stages.size()) + ")");
  }

  std::size_t mvtu_ordinal = 0;
  for (const CompiledStage& stage : synthesis_.stages) {
    switch (stage.desc.kind) {
      case StageKind::kConv:
      case StageKind::kFc: {
        const LayerFolding& f = folding_.layers[mvtu_ordinal++];
        mvtus_.emplace_back(variant_, stage.desc.ch_in, stage.desc.ch_out, stage.desc.kernel,
                            f.pe, f.simd);
        break;
      }
      case StageKind::kPool:
        pools_.emplace_back(variant_, stage.desc.ch_in, stage.desc.kernel);
        break;
      case StageKind::kConcat:
      case StageKind::kUpsample:
      case StageKind::kGlobalPool:
        reject_unsupported(stage.desc);
    }
  }
  load_model(synthesis_);
}

void DataflowAccelerator::load_model(const CompiledModel& model) {
  require(model.stages.size() == synthesis_.stages.size(),
          "model " + model.version + " has a different pipeline depth");
  for (std::size_t i = 0; i < model.stages.size(); ++i) {
    const StageDesc& a = model.stages[i].desc;
    const StageDesc& b = synthesis_.stages[i].desc;
    if (a.kind != b.kind || a.kernel != b.kernel || a.in_dim != b.in_dim ||
        a.out_dim != b.out_dim) {
      throw FoldingError("model " + model.version + " stage " + a.name +
                         " is structurally incompatible with the synthesized dataflow");
    }
  }

  std::size_t m = 0;
  std::size_t p = 0;
  for (const CompiledStage& stage : model.stages) {
    if (stage.desc.kind == StageKind::kPool) {
      pools_[p++].set_channels(stage.desc.ch_in);
    } else {
      mvtus_[m++].load(stage.desc.ch_in, stage.desc.ch_out, stage.weight_levels,
                       stage.thresholds);
    }
  }
  loaded_ = model;
}

std::vector<float> DataflowAccelerator::infer_logits(const nn::Tensor& image) {
  require(!loaded_.stages.empty(), "no model loaded");
  stats_ = InferenceStats{};
  stats_.mvtu_stages.resize(mvtus_.size());
  stats_.pool_stages.resize(pools_.size());

  IntImage fmap = quantize_input(image, loaded_.input_quant);

  std::vector<float> logits;
  std::size_t m = 0;
  std::size_t p = 0;
  for (const CompiledStage& stage : loaded_.stages) {
    switch (stage.desc.kind) {
      case StageKind::kConv: {
        SlidingWindowUnit swu(stage.desc.kernel, stage.desc.stride, stage.desc.pad);
        WindowBuffer windows = swu.run(fmap, nullptr);
        fmap = mvtus_[m].run(windows, stage.desc.out_dim, stage.desc.out_dim,
                             &stats_.mvtu_stages[m]);
        ++m;
        break;
      }
      case StageKind::kPool: {
        fmap = pools_[p].run(fmap, &stats_.pool_stages[p]);
        ++p;
        break;
      }
      case StageKind::kFc: {
        // Flatten the CHW map into one window column.
        WindowBuffer windows;
        windows.rows = fmap.size();
        windows.cols = 1;
        windows.data.assign(fmap.data.begin(), fmap.data.end());
        require(windows.rows == stage.desc.ch_in, "fc input feature mismatch");
        fmap = mvtus_[m].run(windows, 1, 1, &stats_.mvtu_stages[m]);
        ++m;
        break;
      }
      case StageKind::kConcat:
      case StageKind::kUpsample:
      case StageKind::kGlobalPool:
        // Unreachable: the constructor rejects these kinds, and load_model
        // admits only models whose stage kinds match the synthesized ones.
        reject_unsupported(stage.desc);
    }
  }

  // The last stage emitted raw accumulators; scale them to float logits.
  const CompiledStage& last = loaded_.stages.back();
  require(last.thresholds.empty(), "pipeline must end in a raw-output classifier");
  logits.resize(static_cast<std::size_t>(fmap.size()));
  for (std::int64_t i = 0; i < fmap.size(); ++i) {
    logits[static_cast<std::size_t>(i)] =
        static_cast<float>(fmap.data[static_cast<std::size_t>(i)]) * last.acc_scale;
  }
  return logits;
}

int DataflowAccelerator::infer_class(const nn::Tensor& image) {
  const std::vector<float> logits = infer_logits(image);
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) - logits.begin());
}

double accelerator_accuracy(DataflowAccelerator& accelerator, const nn::LabeledData& data) {
  if (data.count() == 0) {
    return 0.0;
  }
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < data.count(); ++i) {
    if (accelerator.infer_class(data.sample(i)) == data.labels[static_cast<std::size_t>(i)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.count());
}

}  // namespace adaflow::hls
