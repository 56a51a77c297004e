#pragma once

/// \file scheduler.hpp
/// The two scheduling components the multi-tenant layer plugs into the
/// fleet engine:
///
///  - WfqIngress: a weighted-fair ingress queue (start-time fair queuing /
///    SCFQ virtual-time discipline) replacing the engine's FIFO. Each tenant
///    is one bounded class; a bursting tenant can fill only its own class
///    while the virtual-time order keeps handing dispatch slots to the
///    others in weight proportion — FIFO's head-of-line blocking is gone.
///
///  - TenantRouter: a tag-aware RoutingPolicy that prefers the frame's
///    tenant's own device partition (least backlog within it) and either
///    borrows the least-loaded foreign device (work-conserving soft
///    partition) or declines so the frame waits at ingress (hard partition —
///    the static baseline).

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "adaflow/fleet/engine.hpp"
#include "adaflow/fleet/routing.hpp"
#include "adaflow/tenant/tenant.hpp"

namespace adaflow::tenant {

/// Weighted-fair (SCFQ) ingress queue over per-tenant bounded classes.
///
/// Each pushed frame gets a virtual finish time F = max(V, F_last[class]) +
/// 1/weight; pop always serves the smallest finish time and advances the
/// virtual clock V to it. Backlogged classes therefore share dispatch slots
/// in weight proportion regardless of arrival bursts, and an idle class
/// re-enters at the current virtual time instead of claiming credit for its
/// idle past.
class WfqIngress final : public fleet::IngressQueue {
 public:
  struct ClassConfig {
    double weight = 1.0;
    std::int64_t capacity = 64;
  };

  /// Class index = tenant index of the frame tag (tag_tenant). All pushed
  /// tags must be >= 0 and decode to a configured class.
  explicit WfqIngress(std::vector<ClassConfig> classes);

  bool empty() const override { return size_ == 0; }
  std::size_t size() const override { return size_; }
  bool push(std::int64_t tag) override;
  std::int64_t pop() override;
  void unpop(std::int64_t tag) override;
  std::size_t backlog(std::size_t cls) const { return queues_[cls].size(); }
  /// Frames rejected because class \p cls was full (per-tenant shed base).
  std::int64_t rejected(std::size_t cls) const { return rejected_[cls]; }

 private:
  struct Entry {
    std::int64_t tag = 0;
    double finish = 0.0;
  };

  std::size_t class_of(std::int64_t tag) const;

  std::vector<ClassConfig> classes_;
  std::vector<std::deque<Entry>> queues_;
  std::vector<double> last_finish_;
  std::vector<std::int64_t> rejected_;
  double vtime_ = 0.0;
  std::size_t size_ = 0;
};

/// Tag-aware partition router. Every device has an owner tenant; a frame
/// routes to the least-backlogged eligible device of its owner partition
/// (switching devices and foreign devices carry additive penalties, so owned
/// idle capacity always wins). With borrowing enabled an overloaded
/// partition spills onto foreign devices (work-conserving); without it the
/// router declines and the frame waits at ingress until its own partition
/// has headroom — the hard static partition of the baseline.
class TenantRouter final : public fleet::RoutingPolicy {
 public:
  TenantRouter(std::size_t tenant_count, std::size_t device_count, bool allow_borrow,
               double switching_penalty_s = 0.1, double foreign_penalty_s = 0.05);

  std::string name() const override { return "tenant-partition"; }
  /// Untagged traffic: plain least-backlog over all eligible devices.
  std::size_t route(double now_s, const std::vector<fleet::DeviceStatus>& devices) override;
  std::size_t route_tagged(double now_s, std::int64_t tag,
                           const std::vector<fleet::DeviceStatus>& devices) override;

  void assign(std::size_t device, std::size_t tenant);
  std::size_t owner(std::size_t device) const { return owner_[device]; }
  const std::vector<std::size_t>& assignment() const { return owner_; }

 private:
  double score(const fleet::DeviceStatus& s, bool foreign) const;

  std::size_t tenant_count_;
  std::vector<std::size_t> owner_;  ///< device -> tenant (round-robin start)
  bool allow_borrow_;
  double switching_penalty_s_;
  double foreign_penalty_s_;
};

}  // namespace adaflow::tenant
