#pragma once

/// \file trainer.hpp
/// Mini-batch training loop with the paper's augmentation (pad, random crop,
/// horizontal flip) and step LR decay, plus top-1 evaluation.

#include <cstdint>

#include "adaflow/common/rng.hpp"
#include "adaflow/nn/data.hpp"
#include "adaflow/nn/model.hpp"
#include "adaflow/nn/optimizer.hpp"

namespace adaflow::nn {

struct TrainConfig {
  int epochs = 10;
  std::int64_t batch_size = 32;
  float lr = 0.01f;
  /// The lr is multiplied by 0.1 at each epoch listed here.
  std::vector<int> lr_decay_epochs;
  /// Pad-crop-flip augmentation (the paper's "standard data augmentation").
  bool augment = true;
  std::int64_t augment_pad = 2;
  std::uint64_t seed = 1;
};

struct EpochStats {
  double train_loss = 0.0;
  double train_accuracy = 0.0;
};

class Trainer {
 public:
  /// Throws ConfigError for a non-positive batch_size or a negative
  /// augment_pad.
  explicit Trainer(TrainConfig config);

  /// Trains \p model in place; returns per-epoch stats (zeros when \p train
  /// is empty).
  std::vector<EpochStats> fit(Model& model, const LabeledData& train);

  /// Top-1 accuracy of \p model on \p data (inference mode), in [0, 1];
  /// 0 for empty data. Throws ConfigError for a non-positive batch_size.
  static double evaluate(Model& model, const LabeledData& data,
                         std::int64_t batch_size = 64);

 private:
  TrainConfig config_;
};

/// Pad-crop-flip augmentation of a batch (out-of-place). Throws ConfigError
/// for a negative \p pad.
Tensor augment_batch(const Tensor& images, std::int64_t pad, Rng& rng);

}  // namespace adaflow::nn
