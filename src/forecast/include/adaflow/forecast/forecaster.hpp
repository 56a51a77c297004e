#pragma once

/// \file forecaster.hpp
/// Online workload forecasters for the proactive serving layer.
///
/// A forecaster consumes one observation per monitor window (the per-window
/// arrival rate in FPS) and answers with a point forecast plus a prediction
/// interval an arbitrary number of windows ahead. All models are O(1) per
/// observation, carry no hidden global state, and are deterministic: the same
/// observation sequence always produces the same forecasts, which is what
/// lets proactive serving runs replay bit-identically under a fixed seed.
///
/// Three models, in increasing order of structure:
///   naive         last observation, carried flat (the scoring baseline)
///   ewma          exponentially weighted level, carried flat
///   holt-winters  double-exponential smoothing (level + trend), extrapolated
///
/// Prediction intervals come from an EWMA of the one-step absolute error,
/// widened with sqrt(horizon) — the standard random-walk widening.

#include <memory>
#include <string>

#include "adaflow/common/error.hpp"

namespace adaflow::forecast {

/// A rate estimate \p horizon windows ahead of the last observation.
struct Forecast {
  double rate = 0.0;   ///< point forecast (FPS), clamped at >= 0
  double lower = 0.0;  ///< prediction-interval floor, clamped at >= 0
  double upper = 0.0;  ///< prediction-interval ceiling
};

enum class ForecasterKind {
  kNaive,        ///< last value carried forward
  kEwma,         ///< exponentially weighted moving average (level only)
  kHoltWinters,  ///< double exponential smoothing (level + trend)
};

const char* forecaster_kind_name(ForecasterKind kind);

/// Parses "naive" | "ewma" | "holt-winters" (alias "holt"); throws
/// NotFoundError naming the valid spellings otherwise.
ForecasterKind forecaster_kind_from_name(const std::string& name);

/// Online forecaster fed one per-window arrival rate at a time.
class Forecaster {
 public:
  virtual ~Forecaster() = default;
  virtual const char* name() const = 0;
  /// Absorbs the rate observed over the window that just closed.
  virtual void observe(double rate) = 0;
  /// Forecast \p horizon_windows windows past the last observation
  /// (horizon >= 1). Before the first observation: all-zero forecast.
  virtual Forecast forecast(int horizon_windows) const = 0;
  /// Number of observations absorbed so far.
  virtual std::int64_t observations() const = 0;
  virtual void reset() = 0;
};

/// Builds a forecaster of \p kind.
std::unique_ptr<Forecaster> make_forecaster(ForecasterKind kind);

}  // namespace adaflow::forecast
