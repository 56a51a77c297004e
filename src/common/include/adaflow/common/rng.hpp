#pragma once

/// \file rng.hpp
/// Deterministic random-number generation.
///
/// Every stochastic component in AdaFlow (dataset synthesis, weight
/// initialization, workload deviation, augmentation) draws from an explicit
/// Rng instance so that experiments are reproducible run-to-run and the
/// 100-repetition averages of the paper can be regenerated from seeds 0..99.

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace adaflow {

/// Deterministic pseudo-random source (thin wrapper over std::mt19937_64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  /// Standard normal sample scaled to \p stddev around \p mean.
  double normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
  }

  /// Bernoulli trial with success probability \p p.
  bool bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(engine_);
  }

  /// Exponentially distributed sample with the given rate (events/unit time).
  double exponential(double rate) {
    std::exponential_distribution<double> d(rate);
    return d(engine_);
  }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    std::shuffle(values.begin(), values.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace adaflow
