#include "adaflow/fleet/routing.hpp"

#include <bit>
#include <cmath>
#include <cstdint>

#include "adaflow/common/error.hpp"
#include "adaflow/common/strings.hpp"

namespace adaflow::fleet {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// An unsigned integer whose order is `<` on the non-NaN doubles, with -0
/// and +0 equal: `x + 0.0` turns -0 into +0, then negatives flip every bit
/// and non-negatives only the sign bit (the IEEE total-order trick).
std::uint64_t order_key(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x + 0.0);
  return bits ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63) | kSignBit);
}

}  // namespace

std::size_t RoundRobinRouter::route(double, const std::vector<DeviceStatus>& devices) {
  require(!devices.empty(), "route called with no devices");
  const std::size_t n = devices.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = (cursor_ + step) % n;
    if (devices[idx].eligible) {
      cursor_ = idx + 1;  // next frame starts after the chosen device
      return idx;
    }
  }
  throw ConfigError("route called with no eligible device");
}

std::size_t LeastLoadedRouter::route(double, const std::vector<DeviceStatus>& devices) {
  require(!devices.empty(), "route called with no devices");
  // The eligible device with the least (load, queued, index), as one
  // branch-free select: each device maps to a 128-bit key, the load's order
  // key over the queued count, all ones when the device is ineligible or its
  // load is NaN (a NaN compares neither less nor equal, so it never displaces
  // a best). Scanning down with <= leaves the lowest index among equal keys.
  using Key = unsigned __int128;
  const double penalty_s[2] = {0.0, switching_penalty_s_};
  const auto load_of = [&penalty_s](const DeviceStatus& d) {
    return d.backlog_s + penalty_s[d.switching ? 1 : 0];  // effective drain time
  };
  const std::size_t n = devices.size();
  Key best_key = ~Key{0};
  std::size_t best = n;
  std::size_t first = n;  // the first eligible device
  for (std::size_t i = n; i-- > 0;) {
    const DeviceStatus& d = devices[i];
    const double load = load_of(d);
    const std::uint64_t barred = (std::uint64_t{0} - static_cast<std::uint64_t>(load != load)) |
                                 (static_cast<std::uint64_t>(d.eligible) - 1);
    const Key key = Key{order_key(load) | barred} << 64 |
                    (static_cast<std::uint64_t>(d.queued) ^ kSignBit);
    const bool take = key <= best_key;
    best_key = take ? key : best_key;
    best = take ? i : best;
    first = d.eligible ? i : first;
  }
  require(first != n, "route called with no eligible device");
  // Nothing compares below a NaN load, so a first eligible device with one
  // keeps the choice.
  return std::isnan(load_of(devices[first])) ? first : best;
}

std::size_t AccuracyAwareRouter::route(double now_s, const std::vector<DeviceStatus>& devices) {
  require(!devices.empty(), "route called with no devices");
  std::size_t best = devices.size();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const DeviceStatus& d = devices[i];
    if (!d.eligible || d.switching || d.backlog_s > headroom_s_) {
      continue;
    }
    if (best == devices.size() || d.accuracy > devices[best].accuracy) {
      best = i;
    }
  }
  if (best != devices.size()) {
    return best;
  }
  // Everyone is loaded (or switching): losing frames costs more QoE than
  // serving them on a less accurate model.
  return least_loaded_.route(now_s, devices);
}

const std::vector<std::string>& router_names() {
  static const std::vector<std::string> names = {"round-robin", "least-loaded",
                                                 "accuracy-aware"};
  return names;
}

std::unique_ptr<RoutingPolicy> make_router(const std::string& name) {
  if (name == "round-robin") {
    return std::make_unique<RoundRobinRouter>();
  }
  if (name == "least-loaded") {
    return std::make_unique<LeastLoadedRouter>();
  }
  if (name == "accuracy-aware") {
    return std::make_unique<AccuracyAwareRouter>();
  }
  throw NotFoundError("unknown router '" + name + "' (valid: " + join(router_names(), ", ") +
                      ")");
}

}  // namespace adaflow::fleet
