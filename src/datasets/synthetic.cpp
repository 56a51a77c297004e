#include "adaflow/datasets/synthetic.hpp"

#include <cmath>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/common/rng.hpp"

namespace adaflow::datasets {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Deterministic per-class style derived from the dataset seed. Classes in
/// the same "family" (label / family_size) share shape parameters and differ
/// only in glyph details, which raises inter-class similarity for GTSRB.
struct ClassStyle {
  double orientation;     // grating angle
  double frequency;       // grating spatial frequency
  double phase_base;      // base phase
  double color[3];        // dominant RGB tint
  double blob_x[3];       // blob centers (normalized 0..1)
  double blob_y[3];
  double blob_r[3];       // blob radii
  int shape;              // 0 = disc mask, 1 = triangle mask, 2 = diamond
  double glyph_angle;     // inner glyph rotation
  // cos / sin of orientation and glyph_angle, computed once per style
  // rather than once per pixel.
  double orientation_cos;
  double orientation_sin;
  double glyph_cos;
  double glyph_sin;
};

ClassStyle class_style(const DatasetSpec& spec, int label) {
  // One fork per class off a seed-keyed parent keeps styles stable across
  // sample renders.
  Rng rng(spec.seed * 1000003ULL + static_cast<std::uint64_t>(label) * 7919ULL + 17ULL);
  ClassStyle s{};
  const int family_size = spec.classes > 20 ? 6 : 1;
  const int family = label / family_size;
  Rng family_rng(spec.seed * 60013ULL + static_cast<std::uint64_t>(family) * 104729ULL);

  // Family-level parameters (shared when family_size > 1).
  s.shape = static_cast<int>(family_rng.uniform_int(0, 2));
  s.orientation = family_rng.uniform(0.0, kPi);
  s.frequency = family_rng.uniform(2.0, 6.0);

  // Class-level parameters.
  s.phase_base = rng.uniform(0.0, 2.0 * kPi);
  for (int c = 0; c < 3; ++c) {
    s.color[c] = rng.uniform(-1.0, 1.0);
  }
  for (int b = 0; b < 3; ++b) {
    s.blob_x[b] = rng.uniform(0.2, 0.8);
    s.blob_y[b] = rng.uniform(0.2, 0.8);
    s.blob_r[b] = rng.uniform(0.08, 0.22);
  }
  s.glyph_angle = rng.uniform(0.0, 2.0 * kPi);
  s.orientation_cos = std::cos(s.orientation);
  s.orientation_sin = std::sin(s.orientation);
  s.glyph_cos = std::cos(s.glyph_angle);
  s.glyph_sin = std::sin(s.glyph_angle);
  return s;
}

/// Soft inside/outside weight of the class shape mask at normalized (x, y).
double shape_mask(const ClassStyle& s, double x, double y) {
  const double cx = x - 0.5;
  const double cy = y - 0.5;
  double d;
  switch (s.shape) {
    case 0:  // disc
      d = std::sqrt(cx * cx + cy * cy) - 0.38;
      break;
    case 1:  // triangle-ish (max of three half-planes)
      d = std::max({cy - 0.36, -cy - 0.36 + 0.4 * std::fabs(cx) * 2.0,
                    std::fabs(cx) - 0.42}) -
          0.0;
      break;
    default:  // diamond
      d = std::fabs(cx) + std::fabs(cy) - 0.45;
      break;
  }
  // Smooth step: 1 inside, 0 outside, ~4px transition at 32px resolution.
  return 1.0 / (1.0 + std::exp(d * 24.0));
}

/// Renders the deterministic feature field of a class (before per-sample
/// jitter is applied through the arguments).
double class_field(const ClassStyle& s, double x, double y, double phase, double jx, double jy) {
  // Oriented grating inside the shape mask.
  const double u = s.orientation_cos * (x - jx) + s.orientation_sin * (y - jy);
  double v = std::sin(2.0 * kPi * s.frequency * u + phase);

  // Blobs add localized features (glyph-like dots).
  double blobs = 0.0;
  for (int b = 0; b < 3; ++b) {
    const double dx = x - (s.blob_x[b] + jx * 0.5);
    const double dy = y - (s.blob_y[b] + jy * 0.5);
    const double r2 = dx * dx + dy * dy;
    blobs += std::exp(-r2 / (2.0 * s.blob_r[b] * s.blob_r[b]));
  }

  // Glyph: a rotated bar through the center.
  const double gx = s.glyph_cos * (x - 0.5) + s.glyph_sin * (y - 0.5);
  const double glyph = std::exp(-gx * gx / 0.004);

  return shape_mask(s, x, y) * (0.6 * v + 0.9 * blobs + 0.8 * glyph);
}

}  // namespace

nn::Tensor render_sample(const DatasetSpec& spec, int label, Rng& rng) {
  require(label >= 0 && label < spec.classes, "label out of range");
  require(spec.channels >= 1, "dataset needs at least one channel");
  const std::int64_t n = spec.image_size;
  nn::Tensor image(nn::Shape{1, spec.channels, n, n});

  const ClassStyle style = class_style(spec, label);
  const double phase = style.phase_base + rng.uniform(-0.8, 0.8);
  const double jx = rng.uniform(-0.08, 0.08);
  const double jy = rng.uniform(-0.08, 0.08);
  const double color_jitter[3] = {rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25),
                                  rng.uniform(-0.25, 0.25)};

  // A distractor class bleeds in at low amplitude, creating confusable
  // samples that only higher-capacity models separate reliably.
  const int distractor =
      static_cast<int>(rng.uniform_int(0, spec.classes - 1));
  const ClassStyle d_style = class_style(spec, distractor);
  const double d_amp = spec.distractor_strength * rng.uniform(0.3, 1.0);

  for (std::int64_t yi = 0; yi < n; ++yi) {
    for (std::int64_t xi = 0; xi < n; ++xi) {
      const double x = (static_cast<double>(xi) + 0.5) / static_cast<double>(n);
      const double y = (static_cast<double>(yi) + 0.5) / static_cast<double>(n);
      const double f = class_field(style, x, y, phase, jx, jy);
      const double g = class_field(d_style, x, y, phase, -jx, -jy);
      for (std::int64_t c = 0; c < spec.channels; ++c) {
        const double tint = style.color[c % 3] + color_jitter[c % 3];
        double value = f * (0.7 + 0.5 * tint) + d_amp * g * 0.5;
        value += rng.normal(0.0, spec.noise_stddev);
        image.at4(0, c, yi, xi) = static_cast<float>(value);
      }
    }
  }
  return image;
}

SyntheticDataset generate(const DatasetSpec& spec) {
  require(spec.classes >= 2, "need at least 2 classes");
  require(spec.train_count > 0 && spec.test_count > 0, "counts must be positive");

  SyntheticDataset out;
  out.spec = spec;

  auto fill = [&spec](nn::LabeledData& data, std::int64_t count, std::uint64_t seed) {
    Rng rng(seed);
    const std::int64_t n = spec.image_size;
    data.images = nn::Tensor(nn::Shape{count, spec.channels, n, n});
    data.labels.resize(static_cast<std::size_t>(count));
    const std::int64_t stride = spec.channels * n * n;
    for (std::int64_t i = 0; i < count; ++i) {
      const int label = static_cast<int>(i % spec.classes);  // balanced classes
      nn::Tensor img = render_sample(spec, label, rng);
      std::copy(img.data(), img.data() + stride, data.images.data() + i * stride);
      data.labels[static_cast<std::size_t>(i)] = label;
    }
  };

  fill(out.train, spec.train_count, spec.seed * 2654435761ULL + 1);
  fill(out.test, spec.test_count, spec.seed * 2654435761ULL + 2);
  return out;
}

DatasetSpec synth_cifar10_spec(std::int64_t train_count, std::int64_t test_count) {
  DatasetSpec spec;
  spec.name = "SynthCIFAR10";
  spec.classes = 10;
  spec.train_count = train_count;
  spec.test_count = test_count;
  spec.noise_stddev = 0.65f;
  spec.distractor_strength = 0.65f;
  spec.seed = 42;
  return spec;
}

DatasetSpec synth_gtsrb_spec(std::int64_t train_count, std::int64_t test_count) {
  DatasetSpec spec;
  spec.name = "SynthGTSRB";
  spec.classes = 43;
  spec.train_count = train_count;
  spec.test_count = test_count;
  // Sign-like classes share shape families; separation relies on glyph
  // details, so keep the noise slightly lower to stay learnable.
  spec.noise_stddev = 0.42f;
  spec.distractor_strength = 0.42f;
  spec.seed = 1337;
  return spec;
}

DatasetSpec synth_mnist_spec(std::int64_t train_count, std::int64_t test_count) {
  DatasetSpec spec;
  spec.name = "SynthMNIST";
  spec.classes = 10;
  spec.train_count = train_count;
  spec.test_count = test_count;
  spec.image_size = 28;
  spec.channels = 1;
  // Digit-like glyphs on a quiet background: lower noise, no distractors
  // bleeding at full strength keeps the task MLP-learnable.
  spec.noise_stddev = 0.45f;
  spec.distractor_strength = 0.40f;
  spec.seed = 2024;
  return spec;
}

}  // namespace adaflow::datasets
