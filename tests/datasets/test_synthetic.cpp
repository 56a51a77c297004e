#include "adaflow/datasets/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "testing/fixtures.hpp"

namespace adaflow::datasets {
namespace {

TEST(Synthetic, ShapesAndBalancedLabels) {
  DatasetSpec spec = synth_cifar10_spec(100, 40);
  SyntheticDataset ds = generate(spec);
  EXPECT_EQ(ds.train.images.shape(), (nn::Shape{100, 3, 32, 32}));
  EXPECT_EQ(ds.test.images.shape(), (nn::Shape{40, 3, 32, 32}));
  std::vector<int> counts(10, 0);
  for (int label : ds.train.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 10);
    counts[static_cast<std::size_t>(label)]++;
  }
  for (int c : counts) {
    EXPECT_EQ(c, 10);  // balanced
  }
}

TEST(Synthetic, DeterministicForSameSpec) {
  DatasetSpec spec = synth_cifar10_spec(20, 10);
  SyntheticDataset a = generate(spec);
  SyntheticDataset b = generate(spec);
  for (std::int64_t i = 0; i < a.train.images.size(); ++i) {
    ASSERT_EQ(a.train.images[i], b.train.images[i]);
  }
}

TEST(Synthetic, DifferentSeedsProduceDifferentImages) {
  DatasetSpec spec = synth_cifar10_spec(20, 10);
  SyntheticDataset a = generate(spec);
  spec.seed = 43;
  SyntheticDataset b = generate(spec);
  double diff = 0.0;
  for (std::int64_t i = 0; i < a.train.images.size(); ++i) {
    diff += std::fabs(a.train.images[i] - b.train.images[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Synthetic, TrainAndTestAreDisjointDraws) {
  DatasetSpec spec = synth_cifar10_spec(20, 20);
  SyntheticDataset ds = generate(spec);
  double diff = 0.0;
  for (std::int64_t i = 0; i < ds.train.images.size(); ++i) {
    diff += std::fabs(ds.train.images[i] - ds.test.images[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Synthetic, GtsrbSpecHas43Classes) {
  DatasetSpec spec = synth_gtsrb_spec(86, 43);
  EXPECT_EQ(spec.classes, 43);
  SyntheticDataset ds = generate(spec);
  int max_label = 0;
  for (int label : ds.train.labels) {
    max_label = std::max(max_label, label);
  }
  EXPECT_EQ(max_label, 42);
}

TEST(Synthetic, SamplesOfSameClassShareStructure) {
  // Two renders of the same class must correlate more with each other than
  // with a different class (averaged over pixels, noise notwithstanding).
  DatasetSpec spec = synth_cifar10_spec(10, 10);
  spec.noise_stddev = 0.05f;
  Rng rng(1);
  nn::Tensor a1 = render_sample(spec, 0, rng);
  nn::Tensor a2 = render_sample(spec, 0, rng);
  nn::Tensor b = render_sample(spec, 5, rng);
  auto dist = [](const nn::Tensor& x, const nn::Tensor& y) {
    double d = 0.0;
    for (std::int64_t i = 0; i < x.size(); ++i) {
      d += std::fabs(x[i] - y[i]);
    }
    return d;
  };
  EXPECT_LT(dist(a1, a2), dist(a1, b));
}

TEST(Synthetic, ValuesAreBounded) {
  const auto& ds = testing::tiny_cifar();
  for (std::int64_t i = 0; i < ds.train.images.size(); ++i) {
    EXPECT_LT(std::fabs(ds.train.images[i]), 16.0f);
  }
}

TEST(Synthetic, RejectsBadSpecs) {
  DatasetSpec spec = synth_cifar10_spec(10, 10);
  spec.classes = 1;
  EXPECT_THROW(generate(spec), ConfigError);
  spec = synth_cifar10_spec(0, 10);
  EXPECT_THROW(generate(spec), ConfigError);
}

/// FNV-1a over the raw bytes of every pixel and label of both splits, so
/// any change in a single bit of the synthesis moves it.
std::uint64_t dataset_digest(const SyntheticDataset& ds) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const nn::LabeledData* split : {&ds.train, &ds.test}) {
    mix(split->images.data(), static_cast<std::size_t>(split->images.size()) * sizeof(float));
    mix(split->labels.data(), split->labels.size() * sizeof(int));
  }
  return h;
}

TEST(Synthetic, GeneratedBytesMatchGoldenDigests) {
  // Pinned on the synthesis before ClassStyle cached its cos/sin values: a
  // faster synthesis must leave every byte where it was.
  EXPECT_EQ(dataset_digest(generate(synth_cifar10_spec(24, 12))), 0xf0f545e087220162ull);
  EXPECT_EQ(dataset_digest(generate(synth_gtsrb_spec(50, 10))), 0x093499a6df9c3e2dull);
  EXPECT_EQ(dataset_digest(generate(synth_mnist_spec(24, 12))), 0x1c2e812e15cd3aedull);
}

TEST(Synthetic, RenderLabelRangeChecked) {
  DatasetSpec spec = synth_cifar10_spec(10, 10);
  Rng rng(1);
  EXPECT_THROW(render_sample(spec, 10, rng), ConfigError);
  EXPECT_THROW(render_sample(spec, -1, rng), ConfigError);
}

}  // namespace
}  // namespace adaflow::datasets
