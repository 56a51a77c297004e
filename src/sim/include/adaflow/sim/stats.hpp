#pragma once

/// \file stats.hpp
/// Aggregation helpers for simulation outputs: running mean/stddev and
/// fixed-interval time series (the paper's per-interval frame-loss / QoE
/// curves), plus the counter blocks every run reports. Their field tables,
/// and the merge / per-run mean / fingerprint / equality folds derived from
/// them, are in fields.hpp.

#include <array>
#include <cstdint>
#include <vector>

namespace adaflow::sim {

/// Welford running mean and (sample) standard deviation.
class RunningStat {
 public:
  void add(double x);
  std::int64_t count() const { return count_; }
  double mean() const { return mean_; }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A sampled time series with a fixed sampling interval.
struct TimeSeries {
  double interval_s = 0.5;
  std::vector<double> values;

  double time_of(std::size_t i) const { return static_cast<double>(i + 1) * interval_s; }
};

/// Element-wise mean over runs. Series of unequal length (fleet runs of
/// differing durations) are truncated to the SHORTEST run before averaging,
/// so every output sample averages the same number of runs; if any series is
/// empty the result is empty. Throws on an empty input vector. The sampling
/// interval is taken from the first series.
TimeSeries average_series(const std::vector<TimeSeries>& runs);

/// Element-wise combination of per-window series from DISJOINT substreams of
/// the same run window (the sharded engine's metric reduction). All three
/// helpers share the merge contract of this file: an EMPTY series is the
/// identity (the other operand is returned unchanged, preserving its
/// interval), two non-empty series are truncated to the shorter one, and the
/// operations are associative — exactly for the integer-weighted cases the
/// determinism tests exercise, to rounding otherwise.
///
/// merge_sum_series: additive quantities (aggregate FPS, watts).
TimeSeries merge_sum_series(const TimeSeries& a, const TimeSeries& b);
/// merge_max_series: worst-of quantities (worst-device backlog).
TimeSeries merge_max_series(const TimeSeries& a, const TimeSeries& b);
/// merge_weighted_series: per-window fractions (loss, QoE) combined as the
/// weight-proportional mean (weight = that side's per-window arrivals, taken
/// from its workload series). Windows whose combined weight is zero keep 0.
/// \p wa / \p wb must be at least as long as the respective series.
TimeSeries merge_weighted_series(const TimeSeries& a, const std::vector<double>& wa,
                                 const TimeSeries& b, const std::vector<double>& wb);

/// Classical nearest-rank percentile of \p values (q in [0, 1]; q=0.95 ->
/// p95): the smallest element with at least ceil(q*N) elements <= it, i.e.
/// sorted[clamp(ceil(q*N) - 1, 0, N-1)]. No interpolation is performed — the
/// result is always one of the inputs. Exact small-N semantics follow from
/// the rule: N=1 returns the single element for every q; q=0 returns the
/// minimum; q=1 returns the maximum; and whenever N < 1/(1-q) (e.g. N < 1000
/// at q=0.999) the rank saturates at N, so the result is the maximum — the
/// only honest tail estimate a short run supports. Returns 0 for an empty
/// vector. The input is copied, not reordered.
double percentile(const std::vector<double>& values, double q);

/// Fixed-layout geometric latency histogram for end-to-end capture->result
/// percentiles. Bucket 0 covers [0, 100us); bucket i covers
/// [100us * g^(i-1), 100us * g^i) with g = 2^(1/8) (~9% relative width); the
/// last bucket is the overflow. The layout is compile-time constant, so two
/// runs that record the same latencies produce bit-identical bucket counts —
/// the replay-determinism contract extends to tail metrics. Unlike keeping
/// every sample, memory is O(1) regardless of run length.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 256;
  static constexpr double kMinSeconds = 1e-4;

  /// Records one latency sample (negative values clamp to 0).
  void record(double seconds);

  std::int64_t count() const { return count_; }
  double sum_s() const { return sum_s_; }
  double mean_s() const { return count_ > 0 ? sum_s_ / static_cast<double>(count_) : 0.0; }
  double min_s() const { return count_ > 0 ? min_s_ : 0.0; }
  double max_s() const { return max_s_; }

  /// Percentile estimate (q in [0, 1]). The target rank is the nearest-rank
  /// ceil(q*count); the estimate interpolates linearly inside the containing
  /// bucket (so the error is bounded by the ~9% bucket width), clamped into
  /// [min_s, max_s]. The overflow bucket reports the exact recorded maximum.
  /// Returns 0 when empty. Throws ConfigError on q outside [0, 1].
  double percentile(double q) const;

  /// Folds \p other into this histogram: bucket counts, count, and sum add;
  /// min/max combine. Because the bucket layout is compile-time constant the
  /// operation is exact on the integer state, so merge is associative and
  /// commutative there, and a default-constructed histogram is the identity
  /// — the contract the sharded engine's metric reduction relies on (sum_s
  /// is a double sum: associative to rounding, exact for the representable
  /// values the determinism tests use).
  void merge(const LatencyHistogram& other);

  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  double sum_s_ = 0.0;
  double min_s_ = 0.0;
  double max_s_ = 0.0;
};

/// Robustness counters of one simulated run: faults that manifested, how the
/// server reacted, and how long it spent off its policy-chosen operating
/// point. Injected counts come from the FaultInjector; reaction counts from
/// the Edge server's fault-tolerance machinery.
struct FaultStats {
  // Faults that manifested.
  std::int64_t reconfig_failures_injected = 0;
  std::int64_t reconfig_slowdowns_injected = 0;
  std::int64_t monitor_dropouts = 0;
  std::int64_t monitor_noise_events = 0;
  std::int64_t stalls_injected = 0;
  std::int64_t burst_windows = 0;
  // Whole-device fault windows that manifested (fleet resilience layer).
  std::int64_t device_crashes = 0;
  std::int64_t device_hangs = 0;
  std::int64_t degrade_windows = 0;
  // Ingest-path faults (network outage windows ahead of the dispatcher,
  // scheduled decode faults on top of the decoder's baseline failure rate).
  std::int64_t network_outage_drops = 0;
  std::int64_t decode_faults_injected = 0;

  // How the server reacted.
  std::int64_t switch_failures = 0;    ///< failed switch attempts observed
  std::int64_t switch_timeouts = 0;    ///< switches aborted by the timeout
  std::int64_t switch_retries = 0;     ///< backoff retries issued
  std::int64_t fallbacks = 0;          ///< policy-supplied fallback actions tried
  std::int64_t switches_abandoned = 0; ///< episodes given up (old mode kept)
  std::int64_t stalls_recovered = 0;   ///< frames dropped by the stall watchdog
  std::int64_t overload_sheds = 0;     ///< load-shedding switches applied

  // Degraded operation: time between a fault manifesting and full recovery.
  double time_degraded_s = 0.0;
  double recovery_time_sum_s = 0.0;
  std::int64_t recoveries = 0;

  std::int64_t total_injected() const {
    return reconfig_failures_injected + reconfig_slowdowns_injected + monitor_dropouts +
           monitor_noise_events + stalls_injected + burst_windows + device_crashes +
           device_hangs + degrade_windows + network_outage_drops + decode_faults_injected;
  }
  double degraded_fraction(double duration_s) const {
    return duration_s > 0.0 ? time_degraded_s / duration_s : 0.0;
  }
  double mean_time_to_recovery_s() const {
    return recoveries > 0 ? recovery_time_sum_s / static_cast<double>(recoveries) : 0.0;
  }
};

/// Silent-data-corruption observability of one simulated run (src/integrity):
/// configuration upsets that landed, frames delivered while the fabric was
/// corrupted (delivered != correct), the canary-probing tax, drift-detector
/// verdicts scored against ground truth, and the repair traffic. All-zero
/// when no kConfigUpset schedule and no integrity layer are armed.
struct IntegrityStats {
  // The fault side.
  std::int64_t upsets_injected = 0;  ///< config upsets that landed on the fabric
  std::int64_t wrong_frames = 0;     ///< frames delivered while corrupted
  double corrupt_time_s = 0.0;       ///< time served with a corrupted configuration
  // The detection side.
  std::int64_t canaries_sent = 0;    ///< golden frames injected through the queue
  std::int64_t canaries_failed = 0;  ///< canary outputs that mismatched golden
  std::int64_t detections = 0;       ///< detector trips with corruption present
  std::int64_t false_alarms = 0;     ///< detector trips on a clean fabric
  double detection_latency_sum_s = 0.0;  ///< upset landing -> detector trip
  // The repair side.
  std::int64_t scrubs = 0;   ///< blind periodic scrub reloads issued
  std::int64_t repairs = 0;  ///< reloads that actually cleared a corruption

  /// Fraction of delivered frames that were silently wrong.
  double wrong_fraction(std::int64_t processed) const {
    return processed > 0 ? static_cast<double>(wrong_frames) / static_cast<double>(processed)
                         : 0.0;
  }
  /// Throughput tax of the probing: canaries per served (real) frame.
  double canary_overhead(std::int64_t processed) const {
    return processed > 0 ? static_cast<double>(canaries_sent) / static_cast<double>(processed)
                         : 0.0;
  }
  /// Mean upset-landing -> detector-trip latency (0 when nothing detected).
  double mean_detection_latency_s() const {
    return detections > 0 ? detection_latency_sum_s / static_cast<double>(detections) : 0.0;
  }
};

/// Forecast quality of one simulated run: how well the workload forecaster
/// predicted the per-window arrival rate `horizon` windows ahead. Filled by
/// the forecast tracker inside proactive serving policies; all-zero for
/// reactive runs.
struct ForecastStats {
  std::int64_t forecasts = 0;        ///< scored horizon-ahead forecasts
  double abs_pct_error_sum = 0.0;    ///< sum of |actual-pred| / max(actual, 1)
  std::int64_t interval_hits = 0;    ///< actual fell inside [lower, upper]
  std::int64_t changepoints = 0;     ///< changepoint-detector triggers
  std::int64_t burst_windows = 0;    ///< windows spent in burst regime

  /// Mean absolute percentage error of the point forecasts (0 when none).
  double mape() const {
    return forecasts > 0 ? abs_pct_error_sum / static_cast<double>(forecasts) : 0.0;
  }
  /// Fraction of actuals inside the prediction interval (0 when none).
  double coverage() const {
    return forecasts > 0 ? static_cast<double>(interval_hits) / static_cast<double>(forecasts)
                         : 0.0;
  }
};

/// Observability for detection workloads (src/detect): per-frame outcomes of
/// the YOLO-style head + seeded NMS postprocess, scored when a frame enters
/// service. All-zero for classification runs. The per-frame mAP proxy also
/// feeds RunMetrics::qoe_accuracy_sum, so qoe() is the detection QoE
/// (mAP proxy x processed-frame fraction) on these runs.
struct DetectionStats {
  std::int64_t frames_scored = 0;    ///< processed frames that ran the head
  std::int64_t objects_total = 0;    ///< ground-truth objects in scored frames
  std::int64_t candidates_total = 0; ///< raw proposals entering NMS
  std::int64_t suppressed_total = 0; ///< proposals NMS removed
  std::int64_t nms_pairs_total = 0;  ///< IoU pairs compared (the O(n^2) cost)
  std::int64_t true_positives = 0;
  std::int64_t false_positives = 0;
  std::int64_t missed_objects = 0;
  double postprocess_s = 0.0;   ///< summed NMS/decode service seconds
  double map_proxy_sum = 0.0;   ///< summed per-frame mAP proxy

  double mean_map_proxy() const {
    return frames_scored > 0 ? map_proxy_sum / static_cast<double>(frames_scored) : 0.0;
  }
  double precision() const {
    const std::int64_t detections = true_positives + false_positives;
    return detections > 0 ? static_cast<double>(true_positives) /
                                static_cast<double>(detections)
                          : 0.0;
  }
  double recall() const {
    return objects_total > 0 ? static_cast<double>(true_positives) /
                                   static_cast<double>(objects_total)
                             : 0.0;
  }
};

}  // namespace adaflow::sim
