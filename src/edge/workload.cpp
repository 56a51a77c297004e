#include "adaflow/edge/workload.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numbers>
#include <sstream>
#include <string>
#include <utility>

#include "adaflow/common/error.hpp"

namespace adaflow::edge {

void WorkloadConfig::validate() const {
  require(devices > 0, "workload devices must be > 0, got " + std::to_string(devices));
  require(std::isfinite(fps_per_device) && fps_per_device > 0.0,
          "workload fps_per_device must be a finite positive rate, got " +
              std::to_string(fps_per_device));
  require(!phases.empty(), "workload needs at least one phase");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const WorkloadPhase& p = phases[i];
    const std::string where = "workload phase " + std::to_string(i) + ": ";
    require(std::isfinite(p.deviation) && p.deviation >= 0.0 && p.deviation <= 1.0,
            where + "deviation must be in [0, 1], got " + std::to_string(p.deviation));
    require(std::isfinite(p.interval_s) && p.interval_s > 0.0,
            where + "interval_s must be finite and > 0, got " + std::to_string(p.interval_s));
    require(std::isfinite(p.duration_s) && p.duration_s > 0.0,
            where + "duration_s must be finite and > 0, got " + std::to_string(p.duration_s));
    require(p.interval_s <= p.duration_s,
            where + "interval_s (" + std::to_string(p.interval_s) +
                ") must not exceed duration_s (" + std::to_string(p.duration_s) +
                "); a single constant segment is almost certainly a misconfiguration — "
                "use interval_s == duration_s for a deliberately flat phase");
  }
}

WorkloadConfig scenario1(double duration_s) {
  WorkloadConfig c;
  c.phases = {WorkloadPhase{0.30, 5.0, duration_s}};
  return c;
}

WorkloadConfig scenario2(double duration_s) {
  WorkloadConfig c;
  c.phases = {WorkloadPhase{0.70, 0.5, duration_s}};
  return c;
}

WorkloadConfig scenario1_plus_2(double stable_s, double total_s) {
  require(total_s > stable_s, "scenario 1+2 needs a second phase");
  WorkloadConfig c;
  c.phases = {WorkloadPhase{0.30, 5.0, stable_s}, WorkloadPhase{0.70, 0.5, total_s - stable_s}};
  return c;
}

WorkloadTrace::WorkloadTrace(const WorkloadConfig& config, std::uint64_t seed) {
  config.validate();
  Rng rng(seed);
  const double base = config.base_rate();

  double t = 0.0;
  for (const WorkloadPhase& phase : config.phases) {
    const double phase_end = t + phase.duration_s;
    while (t < phase_end - 1e-12) {
      const double factor = 1.0 + rng.uniform(-phase.deviation, phase.deviation);
      times_.push_back(t);
      rates_.push_back(std::max(0.0, base * factor));
      t = std::min(phase_end, t + phase.interval_s);
    }
    t = phase_end;
  }
  duration_ = t;
}

WorkloadTrace::WorkloadTrace(std::vector<double> times, std::vector<double> rates,
                             double duration_s) {
  require(!times.empty(), "trace needs at least one segment");
  require(times.size() == rates.size(),
          "trace has " + std::to_string(times.size()) + " boundaries but " +
              std::to_string(rates.size()) + " rates");
  require(std::isfinite(times.front()) && times.front() == 0.0,
          "trace must start at t=0, got " + std::to_string(times.front()));
  for (std::size_t i = 0; i < times.size(); ++i) {
    const std::string where = "trace segment " + std::to_string(i) + ": ";
    require(std::isfinite(times[i]), where + "non-finite start time");
    // The message argument is evaluated eagerly, so times[i - 1] must stay
    // behind the index check rather than inside a short-circuited require.
    if (i > 0 && !(times[i] > times[i - 1])) {
      throw ConfigError(where + "start times must be strictly ascending, got " +
                        std::to_string(times[i]) + " after " + std::to_string(times[i - 1]));
    }
    require(std::isfinite(rates[i]) && rates[i] >= 0.0,
            where + "rate must be finite and >= 0, got " + std::to_string(rates[i]));
  }
  require(std::isfinite(duration_s) && duration_s > times.back(),
          "trace duration_s (" + std::to_string(duration_s) +
              ") must extend past the last boundary (" + std::to_string(times.back()) + ")");
  times_ = std::move(times);
  rates_ = std::move(rates);
  duration_ = duration_s;
}

WorkloadTrace WorkloadTrace::from_csv(const std::string& path, double duration_s) {
  std::ifstream in(path);
  require(in.good(), "cannot open trace CSV '" + path + "'");

  std::vector<double> times;
  std::vector<double> rates;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = path + ":" + std::to_string(lineno) + ": ";
    // Strip comments and whitespace-only lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    const std::size_t comma = line.find(',');
    require(comma != std::string::npos, where + "expected 't,rate', got '" + line + "'");
    double t = 0.0;
    double rate = 0.0;
    try {
      t = std::stod(line.substr(0, comma));
      rate = std::stod(line.substr(comma + 1));
    } catch (const std::exception&) {
      // A header row ("t,rate" / "time,fps") is fine as the first content row.
      if (times.empty()) {
        continue;
      }
      throw ConfigError(where + "expected numeric 't,rate', got '" + line + "'");
    }
    require(std::isfinite(t) && t >= 0.0, where + "time must be finite and >= 0");
    require(std::isfinite(rate) && rate >= 0.0, where + "rate must be finite and >= 0");
    // The message must not touch times.back() while the vector is empty —
    // require() builds its argument eagerly.
    if (!times.empty()) {
      require(t > times.back(),
              where + "times must be strictly ascending, got " + std::to_string(t) +
                  " after " + std::to_string(times.back()));
    }
    times.push_back(t);
    rates.push_back(rate);
  }
  require(!times.empty(), path + ": trace CSV has no data rows");

  // A trace that starts late is extended backwards at its opening rate.
  if (times.front() > 0.0) {
    times.insert(times.begin(), 0.0);
    rates.insert(rates.begin(), rates.front());
  }
  if (duration_s <= 0.0) {
    // End one median segment-length past the last boundary.
    double step = 1.0;
    if (times.size() >= 2) {
      std::vector<double> steps;
      steps.reserve(times.size() - 1);
      for (std::size_t i = 1; i < times.size(); ++i) {
        steps.push_back(times[i] - times[i - 1]);
      }
      std::sort(steps.begin(), steps.end());
      step = steps[steps.size() / 2];
    }
    duration_s = times.back() + step;
  }
  return WorkloadTrace(std::move(times), std::move(rates), duration_s);
}

double WorkloadTrace::rate_at(double t) const {
  // Segments start at times_[i]; find the last boundary <= t.
  auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t idx = it == times_.begin() ? 0 : static_cast<std::size_t>(it - times_.begin() - 1);
  return rates_[idx];
}

PoissonArrivals::PoissonArrivals(const WorkloadTrace& trace, std::uint64_t seed,
                                 double horizon_s, RateFactor rate_factor)
    : trace_(&trace), rng_(seed), horizon_s_(horizon_s), rate_factor_(std::move(rate_factor)) {}

std::optional<double> PoissonArrivals::next() {
  while (t_ <= horizon_s_) {
    double rate = trace_->rate_at(t_);
    if (rate_factor_) {
      rate *= rate_factor_(t_);
    }
    if (rate <= 0.0) {
      t_ += kZeroRateStepS;
      continue;
    }
    t_ += rng_.exponential(rate);
    if (t_ <= horizon_s_) {
      return t_;
    }
  }
  return std::nullopt;
}

namespace {

WorkloadTrace sampled_trace(double duration_s, double step_s, double jitter,
                            std::uint64_t seed, const auto& rate_fn) {
  require(std::isfinite(duration_s) && duration_s > 0.0,
          "trace duration_s must be > 0, got " + std::to_string(duration_s));
  require(std::isfinite(step_s) && step_s > 0.0 && step_s <= duration_s,
          "trace step_s must be in (0, duration_s], got " + std::to_string(step_s));
  require(std::isfinite(jitter) && jitter >= 0.0 && jitter < 1.0,
          "trace jitter must be in [0, 1), got " + std::to_string(jitter));
  Rng rng(seed);
  std::vector<double> times;
  std::vector<double> rates;
  for (double t = 0.0; t < duration_s - 1e-12; t += step_s) {
    const double noise = jitter > 0.0 ? rng.uniform(1.0 - jitter, 1.0 + jitter) : 1.0;
    times.push_back(t);
    rates.push_back(std::max(0.0, rate_fn(t) * noise));
  }
  return WorkloadTrace(std::move(times), std::move(rates), duration_s);
}

}  // namespace

WorkloadTrace diurnal_trace(double low_fps, double high_fps, double period_s,
                            double duration_s, double step_s, double jitter,
                            std::uint64_t seed) {
  require(std::isfinite(low_fps) && low_fps >= 0.0,
          "diurnal low_fps must be >= 0, got " + std::to_string(low_fps));
  require(std::isfinite(high_fps) && high_fps >= low_fps,
          "diurnal high_fps must be >= low_fps, got " + std::to_string(high_fps));
  require(std::isfinite(period_s) && period_s > 0.0,
          "diurnal period_s must be > 0, got " + std::to_string(period_s));
  const double mid = 0.5 * (low_fps + high_fps);
  const double amp = 0.5 * (high_fps - low_fps);
  return sampled_trace(duration_s, step_s, jitter, seed, [&](double t) {
    // Start at the trough so the trace opens on a rising trend.
    return mid - amp * std::cos(2.0 * std::numbers::pi * t / period_s);
  });
}

WorkloadTrace flash_crowd_trace(double base_fps, double peak_fps, double onset_s,
                                double ramp_s, double hold_s, double duration_s,
                                double step_s, double jitter, std::uint64_t seed) {
  require(std::isfinite(base_fps) && base_fps >= 0.0,
          "flash-crowd base_fps must be >= 0, got " + std::to_string(base_fps));
  require(std::isfinite(peak_fps) && peak_fps >= base_fps,
          "flash-crowd peak_fps must be >= base_fps, got " + std::to_string(peak_fps));
  require(std::isfinite(onset_s) && onset_s >= 0.0,
          "flash-crowd onset_s must be >= 0, got " + std::to_string(onset_s));
  require(std::isfinite(ramp_s) && ramp_s > 0.0,
          "flash-crowd ramp_s must be > 0, got " + std::to_string(ramp_s));
  require(std::isfinite(hold_s) && hold_s >= 0.0,
          "flash-crowd hold_s must be >= 0, got " + std::to_string(hold_s));
  return sampled_trace(duration_s, step_s, jitter, seed, [&](double t) {
    if (t < onset_s) {
      return base_fps;
    }
    if (t < onset_s + ramp_s) {
      return base_fps + (peak_fps - base_fps) * (t - onset_s) / ramp_s;
    }
    if (t < onset_s + ramp_s + hold_s) {
      return peak_fps;
    }
    const double fall = t - (onset_s + ramp_s + hold_s);
    if (fall < ramp_s) {
      return peak_fps - (peak_fps - base_fps) * fall / ramp_s;
    }
    return base_fps;
  });
}

}  // namespace adaflow::edge
