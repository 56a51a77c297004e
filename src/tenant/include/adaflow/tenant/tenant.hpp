#pragma once

/// \file tenant.hpp
/// Multi-tenant serving core types. A Tenant bundles everything one
/// customer/model brings to the cluster: a traffic trace (offered load), an
/// accuracy threshold bounding which library versions may serve it, a
/// latency SLO, a WFQ weight, and a token-bucket admission budget. The
/// serving layer (serving.hpp) runs N tenants against one fleet::FleetEngine
/// by tagging every admitted frame with its tenant id.
///
/// Frame tags: tenant frames pack (tenant index, sequence) into the int64
/// tag the fleet engine carries end to end — tenant in the high bits,
/// sequence in the low kTenantSeqBits. Tags stay non-negative, so they never
/// collide with edge::DeviceSim::kNoTag (-1) or the engine's internal
/// duplicate-hedge tags (< -1).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/core/library.hpp"
#include "adaflow/edge/workload.hpp"

namespace adaflow::tenant {

/// Bits of the frame tag holding the per-tenant sequence number. 2^40
/// frames per tenant and 2^23 tenants — neither bound is reachable in a
/// simulated run.
constexpr int kTenantSeqBits = 40;

inline std::int64_t make_tag(std::size_t tenant_index, std::int64_t seq) {
  return (static_cast<std::int64_t>(tenant_index) << kTenantSeqBits) | seq;
}
inline std::size_t tag_tenant(std::int64_t tag) {
  return static_cast<std::size_t>(tag >> kTenantSeqBits);
}
inline std::int64_t tag_seq(std::int64_t tag) {
  return tag & ((std::int64_t{1} << kTenantSeqBits) - 1);
}

/// Per-tenant latency/throughput service-level objective, judged per sample
/// window (see serving.hpp): a window with admitted traffic violates when
/// nothing was delivered, the window's p95 capture->result latency exceeds
/// max_latency_s, or fewer than min_deliver_fraction of the admitted frames
/// came back.
struct TenantSlo {
  double max_latency_s = 0.1;
  double min_deliver_fraction = 0.5;

  void validate(const std::string& tenant) const;
};

/// Token-bucket admission budget: sustained rate_fps with burst_frames of
/// depth. Frames over budget are throttled at the door — they never reach
/// the fleet ingress, so one tenant's flash crowd cannot convert into
/// cluster-wide queueing.
struct AdmissionConfig {
  double rate_fps = 1000.0;
  double burst_frames = 32.0;

  void validate(const std::string& tenant) const;
};

/// Deterministic token bucket (continuous refill, no randomness).
class TokenBucket {
 public:
  explicit TokenBucket(const AdmissionConfig& config)
      : rate_(config.rate_fps), burst_(config.burst_frames), tokens_(config.burst_frames) {}

  /// Take one token at time \p now (seconds, nondecreasing); false = over
  /// budget right now.
  bool try_take(double now) {
    tokens_ = std::min(burst_, tokens_ + (now - last_s_) * rate_);
    last_s_ = now;
    if (tokens_ < 1.0) {
      return false;
    }
    tokens_ -= 1.0;
    return true;
  }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_s_ = 0.0;
};

/// One tenant of the multi-tenant serving layer.
struct TenantSpec {
  std::string name;
  /// Weighted-fair-queuing weight: the tenant's guaranteed share of ingress
  /// dispatch slots under contention is weight / sum(weights).
  double weight = 1.0;
  /// Max accuracy drop from the library's base accuracy this tenant
  /// tolerates; bounds which versions the coordinator may serve it from.
  double accuracy_threshold = 0.10;
  TenantSlo slo;
  AdmissionConfig admission;
  /// Offered traffic (piecewise-constant aggregate FPS); arrivals are
  /// Poisson at the trace rate.
  edge::WorkloadTrace trace{std::vector<double>{0.0}, std::vector<double>{0.0}, 1.0};
  /// Depth of this tenant's WFQ ingress class.
  std::int64_t ingress_capacity = 64;
  /// Library this tenant is served from; null = the run's shared library.
  /// Must outlive the run.
  const core::AcceleratorLibrary* library = nullptr;

  void validate() const;
};

}  // namespace adaflow::tenant
