#include "adaflow/nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "adaflow/nn/loss.hpp"

namespace adaflow::nn {

Tensor LabeledData::sample(std::int64_t i) const {
  const std::int64_t c = images.dim(1);
  const std::int64_t h = images.dim(2);
  const std::int64_t w = images.dim(3);
  Tensor out = Tensor::uninitialized(Shape{1, c, h, w});
  const float* src = images.data() + i * c * h * w;
  std::copy(src, src + c * h * w, out.data());
  return out;
}

LabeledData LabeledData::subset(const std::vector<std::int64_t>& indices) const {
  const std::int64_t c = images.dim(1);
  const std::int64_t h = images.dim(2);
  const std::int64_t w = images.dim(3);
  LabeledData out;
  out.images = Tensor::uninitialized(Shape{static_cast<std::int64_t>(indices.size()), c, h, w});
  out.labels.reserve(indices.size());
  const std::int64_t stride = c * h * w;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::int64_t i = indices[k];
    std::copy(images.data() + i * stride, images.data() + (i + 1) * stride,
              out.images.data() + static_cast<std::int64_t>(k) * stride);
    out.labels.push_back(labels[static_cast<std::size_t>(i)]);
  }
  return out;
}

namespace {

// SGD settings of every training run.
constexpr float kMomentum = 0.9f;
constexpr float kWeightDecay = 1e-4f;
/// lr multiplier at each epoch in TrainConfig::lr_decay_epochs.
constexpr float kLrDecay = 0.1f;

void require_positive_batch(std::int64_t batch_size, const char* what) {
  if (batch_size <= 0) {
    throw ConfigError(std::string(what) + " must be positive, got " +
                      std::to_string(batch_size));
  }
}

void require_non_negative_pad(std::int64_t pad, const char* what) {
  if (pad < 0) {
    throw ConfigError(std::string(what) + " must be >= 0, got " + std::to_string(pad));
  }
}

}  // namespace

Tensor augment_batch(const Tensor& images, std::int64_t pad, Rng& rng) {
  require_non_negative_pad(pad, "augment pad");
  const std::int64_t batch = images.dim(0);
  const std::int64_t c = images.dim(1);
  const std::int64_t h = images.dim(2);
  const std::int64_t w = images.dim(3);
  Tensor out = Tensor::uninitialized(images.shape());  // every pixel is written

  for (std::int64_t n = 0; n < batch; ++n) {
    // Random crop offset within [-pad, pad] after zero padding.
    const std::int64_t dy = rng.uniform_int(-pad, pad);
    const std::int64_t dx = rng.uniform_int(-pad, pad);
    const bool flip = rng.bernoulli(0.5);
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = images.data() + (n * c + ch) * h * w;
      float* dst = out.data() + (n * c + ch) * h * w;
      for (std::int64_t y = 0; y < h; ++y) {
        const std::int64_t sy = y + dy;
        for (std::int64_t x = 0; x < w; ++x) {
          std::int64_t sx = x + dx;
          if (flip) {
            sx = w - 1 - sx;
          }
          const bool inside = sy >= 0 && sy < h && sx >= 0 && sx < w;
          dst[y * w + x] = inside ? src[sy * w + sx] : 0.0f;
        }
      }
    }
  }
  return out;
}

Trainer::Trainer(TrainConfig config) : config_(std::move(config)) {
  require_positive_batch(config_.batch_size, "TrainConfig.batch_size");
  require_non_negative_pad(config_.augment_pad, "TrainConfig.augment_pad");
}

std::vector<EpochStats> Trainer::fit(Model& model, const LabeledData& train) {
  Rng rng(config_.seed);
  Sgd optimizer(SgdConfig{config_.lr, kMomentum, kWeightDecay});

  const std::int64_t count = train.count();
  std::vector<std::int64_t> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);

  std::vector<EpochStats> stats;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    if (std::find(config_.lr_decay_epochs.begin(), config_.lr_decay_epochs.end(), epoch) !=
        config_.lr_decay_epochs.end()) {
      optimizer.set_lr(optimizer.lr() * kLrDecay);
    }
    rng.shuffle(order);

    double loss_sum = 0.0;
    std::int64_t correct = 0;
    std::int64_t seen = 0;
    for (std::int64_t start = 0; start < count; start += config_.batch_size) {
      const std::int64_t end = std::min(count, start + config_.batch_size);
      std::vector<std::int64_t> batch_idx(order.begin() + start, order.begin() + end);
      LabeledData batch = train.subset(batch_idx);
      Tensor images = config_.augment ? augment_batch(batch.images, config_.augment_pad, rng)
                                      : std::move(batch.images);

      model.zero_grad();
      Tensor logits = model.forward(std::move(images), /*training=*/true);
      LossResult loss = softmax_cross_entropy(logits, batch.labels);
      model.backward(loss.grad);
      optimizer.step(model.params());

      const std::int64_t batch_n = end - start;
      loss_sum += loss.loss * static_cast<double>(batch_n);
      correct += loss.correct;
      seen += batch_n;
    }
    stats.push_back(seen == 0 ? EpochStats{}
                              : EpochStats{loss_sum / static_cast<double>(seen),
                                           static_cast<double>(correct) /
                                               static_cast<double>(seen)});
  }
  return stats;
}

double Trainer::evaluate(Model& model, const LabeledData& data, std::int64_t batch_size) {
  require_positive_batch(batch_size, "evaluate batch_size");
  const std::int64_t count = data.count();
  if (count == 0) {
    return 0.0;
  }
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < count; start += batch_size) {
    const std::int64_t end = std::min(count, start + batch_size);
    std::vector<std::int64_t> idx(static_cast<std::size_t>(end - start));
    std::iota(idx.begin(), idx.end(), start);
    LabeledData batch = data.subset(idx);
    Tensor logits = model.forward(std::move(batch.images), /*training=*/false);
    const std::vector<int> pred = argmax_rows(logits);
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == batch.labels[i]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(count);
}

}  // namespace adaflow::nn
