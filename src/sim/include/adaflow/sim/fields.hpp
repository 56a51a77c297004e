#pragma once

/// \file fields.hpp
/// One field table per metrics struct, and every fold derived from it.
///
/// A metrics struct S opts in with one function in its own namespace, found
/// by argument-dependent lookup:
///
///   constexpr auto field_table(std::type_identity<S>) {
///     return std::tuple{sim::sum("arrived", &S::arrived), ...};
///   }
///
/// The table lists every data member once: its name, its member pointer and
/// its Fold, named by the entry's maker (sim::sum makes a kSum entry). Four
/// operations derive from it, so a member added to the struct and its table
/// merges, averages, hashes and compares with no further code:
/// - merge(a, b): the reduction of DISJOINT subsets of one run (the sharded
///   engine's per-shard fold); a default-constructed operand is the identity;
/// - total(runs) / mean(runs): repeated runs folded in run order;
/// - fingerprint(m): FNV-1a over every member, doubles by bit pattern;
/// - identical(a, b): bitwise equality of every member — the replay check.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "adaflow/common/error.hpp"
#include "adaflow/sim/stats.hpp"

namespace adaflow::sim {

/// How one member combines under merge(); total() and mean() below say how
/// each kind folds over repeated runs.
enum class Fold {
  kSum,             ///< counters, energy, time; a nested table merges member-wise
  kMax,             ///< worst-of scalars (run length, tail latency)
  kSumSeries,       ///< additive per-window series (FPS, watts)
  kMaxSeries,       ///< worst-of per-window series (worst-device backlog)
  kWeightedSeries,  ///< per-window fractions, weighted by the struct's workload_series
  kConcat,          ///< per-device / per-tenant rows, concatenated in call order
  kHistogram,       ///< LatencyHistogram, bucket-wise merge
  kFirst,           ///< labels, end states and derived values: the first
                    ///< operand holding a non-default value wins
};

/// One table entry: member \p member of S, named \p name, folded as K.
template <Fold K, class S, class M>
struct Field {
  static constexpr Fold kind = K;
  std::string_view name;
  M S::*member;
};

/// Makes table entries of kind K: sim::sum("arrived", &S::arrived).
template <Fold K>
struct FieldMaker {
  template <class S, class M>
  constexpr Field<K, S, M> operator()(std::string_view name, M S::*member) const {
    return {name, member};
  }
};
inline constexpr FieldMaker<Fold::kSum> sum{};
inline constexpr FieldMaker<Fold::kMax> max{};
inline constexpr FieldMaker<Fold::kSumSeries> sum_series{};
inline constexpr FieldMaker<Fold::kMaxSeries> max_series{};
inline constexpr FieldMaker<Fold::kWeightedSeries> weighted_series{};
inline constexpr FieldMaker<Fold::kConcat> concat{};
inline constexpr FieldMaker<Fold::kHistogram> histogram{};
inline constexpr FieldMaker<Fold::kFirst> first{};

/// A struct with a field table.
template <class S>
concept Tabled = requires { field_table(std::type_identity<S>{}); };

/// Calls \p fn on every entry of S's table, in table order.
template <Tabled S, class Fn>
constexpr void for_each_field(Fn&& fn) {
  std::apply([&fn](const auto&... entry) { (fn(entry), ...); },
             field_table(std::type_identity<S>{}));
}

namespace detail {

template <class V>
struct IsVector : std::false_type {};
template <class E>
struct IsVector<std::vector<E>> : std::true_type {};

/// Appends every leaf of \p v to \p out as one 64-bit word — integers and
/// enums by value, doubles by bit pattern, containers prefixed by their size
/// — so two values of one type are identical exactly when their words are.
template <class V>
void words(std::vector<std::uint64_t>& out, const V& v) {
  if constexpr (Tabled<V>) {
    for_each_field<V>([&](const auto& e) { words(out, v.*e.member); });
  } else if constexpr (IsVector<V>::value || std::is_same_v<V, std::string>) {
    out.push_back(v.size());
    for (const auto& element : v) {
      words(out, element);
    }
  } else if constexpr (std::is_same_v<V, TimeSeries>) {
    words(out, v.interval_s);
    words(out, v.values);
  } else if constexpr (std::is_same_v<V, LatencyHistogram>) {
    for (const double x : {v.sum_s(), v.min_s(), v.max_s()}) {
      words(out, x);
    }
    words(out, v.count());
    out.insert(out.end(), v.buckets().begin(), v.buckets().end());
  } else if constexpr (std::is_floating_point_v<V>) {
    out.push_back(std::bit_cast<std::uint64_t>(static_cast<double>(v)));
  } else {
    static_assert(std::is_integral_v<V> || std::is_enum_v<V>, "no words for this member type");
    out.push_back(static_cast<std::uint64_t>(v));
  }
}

template <class V>
std::vector<std::uint64_t> words(const V& v) {
  std::vector<std::uint64_t> out;
  words(out, v);
  return out;
}

template <class E>
constexpr Fold kind_of = std::remove_cvref_t<E>::kind;

}  // namespace detail

/// True when every member of \p a and \p b matches bit for bit (also for a
/// single member value: a series, a histogram, a row vector).
template <class V>
bool identical(const V& a, const V& b) {
  return detail::words(a) == detail::words(b);
}

/// FNV-1a 64-bit over the little-endian bytes of every member's words, in
/// table order, as 16 hex digits. Equal fingerprints mean identical()
/// metrics (up to hash collisions).
template <Tabled S>
std::string fingerprint(const S& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : detail::words(m)) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((w >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Folds \p b — a DISJOINT subset of the same run — into \p a, member by
/// member according to the table's Fold kinds.
template <Tabled S>
void merge(S& a, const S& b) {
  // Weighted series first: they read both sides' workload series pre-merge.
  for_each_field<S>([&](const auto& e) {
    if constexpr (detail::kind_of<decltype(e)> == Fold::kWeightedSeries) {
      a.*e.member = merge_weighted_series(a.*e.member, a.workload_series.values, b.*e.member,
                                          b.workload_series.values);
    }
  });
  for_each_field<S>([&](const auto& e) {
    constexpr Fold kind = detail::kind_of<decltype(e)>;
    auto& x = a.*e.member;
    const auto& y = b.*e.member;
    using M = std::remove_cvref_t<decltype(x)>;
    if constexpr (kind == Fold::kSum) {
      if constexpr (Tabled<M>) {
        merge(x, y);
      } else {
        x += y;
      }
    } else if constexpr (kind == Fold::kMax) {
      x = std::max(x, y);
    } else if constexpr (kind == Fold::kSumSeries) {
      x = merge_sum_series(x, y);
    } else if constexpr (kind == Fold::kMaxSeries) {
      x = merge_max_series(x, y);
    } else if constexpr (kind == Fold::kConcat) {
      x.insert(x.end(), y.begin(), y.end());
    } else if constexpr (kind == Fold::kHistogram) {
      x.merge(y);
    } else if constexpr (kind == Fold::kFirst) {
      static const S fresh{};
      if (identical(x, fresh.*e.member)) {
        x = y;
      }
    }
  });
}

namespace detail {

/// The fold behind total() and mean(), over one column of values per run.
template <Tabled S>
S fold_runs(const std::vector<const S*>& runs, bool divide) {
  S out;
  for_each_field<S>([&](const auto& e) {
    constexpr Fold kind = kind_of<decltype(e)>;
    auto& x = out.*e.member;
    using M = std::remove_cvref_t<decltype(x)>;
    std::vector<const M*> column;
    column.reserve(runs.size());
    for (const S* r : runs) {
      column.push_back(&(r->*e.member));
    }
    if constexpr ((kind == Fold::kSum || kind == Fold::kMax) && Tabled<M>) {
      x = fold_runs(column, divide);
    } else if constexpr (kind == Fold::kSum || kind == Fold::kMax) {
      for (const M* v : column) {
        x += *v;
      }
      const auto n = static_cast<double>(runs.size());
      if (divide && std::is_integral_v<M>) {
        x = static_cast<M>(std::llround(static_cast<double>(x) / n));
      } else if (divide) {
        x /= n;
      }
    } else if constexpr (kind == Fold::kHistogram) {
      for (const M* v : column) {
        x.merge(*v);
      }
    } else if constexpr (std::is_same_v<M, TimeSeries>) {
      std::vector<TimeSeries> series;
      for (const M* v : column) {
        series.push_back(*v);
      }
      x = average_series(series);
    } else {
      x = *column.front();
    }
  });
  return out;
}

template <Tabled S>
std::vector<const S*> run_pointers(const std::vector<S>& runs) {
  require(!runs.empty(), "folding repeated runs needs at least one run");
  std::vector<const S*> out;
  for (const S& r : runs) {
    out.push_back(&r);
  }
  return out;
}

}  // namespace detail

/// \p runs folded in run order: kSum and kMax members summed (so ratios of
/// the totals are the pooled ratios), histograms pooled, series through
/// average_series (truncated to the shortest run, empty if any run's is
/// empty), kConcat and kFirst members run 0's. Throws ConfigError on no runs.
template <Tabled S>
S total(const std::vector<S>& runs) {
  return detail::fold_runs(detail::run_pointers(runs), false);
}

/// Per-run mean of \p runs: total() with every kSum and kMax member divided
/// by the run count (integers rounded to nearest with llround).
template <Tabled S>
S mean(const std::vector<S>& runs) {
  return detail::fold_runs(detail::run_pointers(runs), true);
}

// ---- Tables of the counters in stats.hpp ----

constexpr auto field_table(std::type_identity<FaultStats>) {
  using S = FaultStats;
  return std::tuple{
      sum("reconfig_failures_injected", &S::reconfig_failures_injected),
      sum("reconfig_slowdowns_injected", &S::reconfig_slowdowns_injected),
      sum("monitor_dropouts", &S::monitor_dropouts),
      sum("monitor_noise_events", &S::monitor_noise_events),
      sum("stalls_injected", &S::stalls_injected), sum("burst_windows", &S::burst_windows),
      sum("device_crashes", &S::device_crashes), sum("device_hangs", &S::device_hangs),
      sum("degrade_windows", &S::degrade_windows),
      sum("network_outage_drops", &S::network_outage_drops),
      sum("decode_faults_injected", &S::decode_faults_injected),
      sum("switch_failures", &S::switch_failures), sum("switch_timeouts", &S::switch_timeouts),
      sum("switch_retries", &S::switch_retries), sum("fallbacks", &S::fallbacks),
      sum("switches_abandoned", &S::switches_abandoned),
      sum("stalls_recovered", &S::stalls_recovered), sum("overload_sheds", &S::overload_sheds),
      sum("time_degraded_s", &S::time_degraded_s),
      sum("recovery_time_sum_s", &S::recovery_time_sum_s), sum("recoveries", &S::recoveries),
  };
}

constexpr auto field_table(std::type_identity<IntegrityStats>) {
  using S = IntegrityStats;
  return std::tuple{
      sum("upsets_injected", &S::upsets_injected), sum("wrong_frames", &S::wrong_frames),
      sum("corrupt_time_s", &S::corrupt_time_s), sum("canaries_sent", &S::canaries_sent),
      sum("canaries_failed", &S::canaries_failed), sum("detections", &S::detections),
      sum("false_alarms", &S::false_alarms),
      sum("detection_latency_sum_s", &S::detection_latency_sum_s), sum("scrubs", &S::scrubs),
      sum("repairs", &S::repairs),
  };
}

constexpr auto field_table(std::type_identity<ForecastStats>) {
  using S = ForecastStats;
  return std::tuple{
      sum("forecasts", &S::forecasts), sum("abs_pct_error_sum", &S::abs_pct_error_sum),
      sum("interval_hits", &S::interval_hits), sum("changepoints", &S::changepoints),
      sum("burst_windows", &S::burst_windows),
  };
}

constexpr auto field_table(std::type_identity<DetectionStats>) {
  using S = DetectionStats;
  return std::tuple{
      sum("frames_scored", &S::frames_scored), sum("objects_total", &S::objects_total),
      sum("candidates_total", &S::candidates_total), sum("suppressed_total", &S::suppressed_total),
      sum("nms_pairs_total", &S::nms_pairs_total), sum("true_positives", &S::true_positives),
      sum("false_positives", &S::false_positives), sum("missed_objects", &S::missed_objects),
      sum("postprocess_s", &S::postprocess_s), sum("map_proxy_sum", &S::map_proxy_sum),
  };
}

}  // namespace adaflow::sim
