#include "adaflow/nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "testing/fixtures.hpp"

namespace adaflow::nn {
namespace {

// FNV-1a over the raw bytes of every float, so -0.0f and +0.0f differ.
void fnv1a_floats(std::uint64_t& h, const float* data, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
}

// Hash of every parameter and BatchNorm running statistic, in graph order.
std::uint64_t model_state_hash(Model& model) {
  std::uint64_t h = 14695981039346656037ull;
  for (Param* p : model.params()) {
    fnv1a_floats(h, p->value.data(), static_cast<std::size_t>(p->value.size()));
  }
  for (std::size_t i : model.indices_of(LayerKind::kBatchNorm)) {
    const auto& bn = model.layer_as<BatchNorm>(i);
    fnv1a_floats(h, bn.running_mean().data(), bn.running_mean().size());
    fnv1a_floats(h, bn.running_var().data(), bn.running_var().size());
  }
  return h;
}

TEST(Trainer, AugmentPreservesShape) {
  Rng rng(1);
  Tensor images = Tensor::uniform(Shape{4, 3, 8, 8}, -1, 1, rng);
  Tensor out = augment_batch(images, 2, rng);
  EXPECT_EQ(out.shape(), images.shape());
}

TEST(Trainer, AugmentWithZeroPadOnlyFlips) {
  Rng rng(2);
  Tensor images = Tensor::uniform(Shape{1, 1, 4, 4}, -1, 1, rng);
  Tensor out = augment_batch(images, 0, rng);
  // Either identical or horizontally flipped.
  bool identical = true;
  bool flipped = true;
  for (std::int64_t y = 0; y < 4; ++y) {
    for (std::int64_t x = 0; x < 4; ++x) {
      identical &= out.at4(0, 0, y, x) == images.at4(0, 0, y, x);
      flipped &= out.at4(0, 0, y, x) == images.at4(0, 0, y, 3 - x);
    }
  }
  EXPECT_TRUE(identical || flipped);
}

TEST(Trainer, LabeledDataSubset) {
  LabeledData data;
  data.images = Tensor(Shape{3, 1, 2, 2});
  data.images[0] = 1.0f;   // sample 0 starts with 1
  data.images[4] = 2.0f;   // sample 1 starts with 2
  data.images[8] = 3.0f;   // sample 2 starts with 3
  data.labels = {7, 8, 9};
  LabeledData sub = data.subset({2, 0});
  EXPECT_EQ(sub.count(), 2);
  EXPECT_EQ(sub.labels[0], 9);
  EXPECT_EQ(sub.labels[1], 7);
  EXPECT_FLOAT_EQ(sub.images[0], 3.0f);
  EXPECT_FLOAT_EQ(sub.images[4], 1.0f);
}

TEST(Trainer, SampleExtractsOneImage) {
  LabeledData data;
  data.images = Tensor(Shape{2, 1, 2, 2});
  data.images[5] = 4.0f;
  data.labels = {0, 1};
  Tensor s = data.sample(1);
  EXPECT_EQ(s.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(s[1], 4.0f);
}

TEST(Trainer, LossDecreasesOverTraining) {
  const auto& dataset = testing::tiny_cifar();
  Model model = testing::tiny_model(21);
  TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 0.02f;
  tc.seed = 21;
  const std::vector<EpochStats> stats = Trainer(tc).fit(model, dataset.train);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss);
  EXPECT_GT(stats.back().train_accuracy, stats.front().train_accuracy);
}

TEST(Trainer, TrainedModelBeatsChance) {
  const auto& dataset = testing::tiny_cifar();
  // The shared fixture model was trained on this dataset.
  Model& model = const_cast<Model&>(testing::trained_cnv_w2a2());
  const double acc = Trainer::evaluate(model, dataset.test);
  EXPECT_GT(acc, 0.35);  // chance is 0.1
}

TEST(Trainer, EvaluateEmptyDataIsZero) {
  Model model = testing::tiny_model(22);
  LabeledData empty;
  EXPECT_EQ(Trainer::evaluate(model, empty), 0.0);
}

TEST(Trainer, DeterministicForSameSeed) {
  const auto& dataset = testing::tiny_cifar();
  TrainConfig tc;
  tc.epochs = 1;
  tc.seed = 5;
  Model a = testing::tiny_model(33);
  Model b = testing::tiny_model(33);
  const auto sa = Trainer(tc).fit(a, dataset.train);
  const auto sb = Trainer(tc).fit(b, dataset.train);
  EXPECT_DOUBLE_EQ(sa[0].train_loss, sb[0].train_loss);
}

// Runs fn, expecting a ConfigError whose message contains every fragment.
void expect_config_error(const std::function<void()>& fn,
                         std::initializer_list<const char*> parts) {
  try {
    fn();
    ADD_FAILURE() << "no ConfigError";
  } catch (const ConfigError& e) {
    for (const char* part : parts) {
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos) << e.what();
    }
  }
}

TEST(Trainer, RejectsNonPositiveBatchSize) {
  for (const std::int64_t bad : {0, -3}) {
    TrainConfig tc;
    tc.batch_size = bad;
    const std::string got = "got " + std::to_string(bad);
    expect_config_error([&] { Trainer trainer(tc); }, {"batch_size", got.c_str()});
  }
}

TEST(Trainer, EvaluateRejectsNonPositiveBatchSize) {
  Model model = testing::tiny_model(22);
  const auto& dataset = testing::tiny_cifar();
  expect_config_error([&] { Trainer::evaluate(model, dataset.test, 0); },
                      {"batch_size", "got 0"});
  expect_config_error([&] { Trainer::evaluate(model, dataset.test, -1); },
                      {"batch_size", "got -1"});
}

TEST(Trainer, RejectsNegativeAugmentPad) {
  TrainConfig tc;
  tc.augment_pad = -2;
  expect_config_error([&] { Trainer trainer(tc); }, {"augment_pad", "got -2"});
  Rng rng(1);
  const Tensor images(Shape{1, 1, 4, 4});
  expect_config_error([&] { augment_batch(images, -1, rng); }, {"pad", "got -1"});
}

TEST(Trainer, FitOnEmptyDataReturnsZeroStats) {
  TrainConfig tc;
  tc.epochs = 2;
  Model model = testing::tiny_model(22);
  const std::vector<EpochStats> stats = Trainer(tc).fit(model, LabeledData{});
  ASSERT_EQ(stats.size(), 2u);
  for (const EpochStats& s : stats) {
    EXPECT_EQ(s.train_loss, 0.0);
    EXPECT_EQ(s.train_accuracy, 0.0);
  }
}

// Golden pin of the training numerics: one epoch of the tiny CNV on the tiny
// dataset must reproduce these exact bits. The library cache is keyed on the
// topology, not on the code, so any drift in the nn kernels (loop order, FMA
// contraction, rounding) has to show up here first.
TEST(Trainer, OneEpochStateIsBitIdenticalToGolden) {
  const auto& dataset = testing::tiny_cifar();
  TrainConfig tc;
  tc.epochs = 1;
  tc.lr = 0.02f;
  tc.seed = 11;
  Model model = testing::tiny_model(11);
  Trainer(tc).fit(model, dataset.train);
  EXPECT_EQ(model_state_hash(model), 0x79c7d790282bf575ull);
}

}  // namespace
}  // namespace adaflow::nn
