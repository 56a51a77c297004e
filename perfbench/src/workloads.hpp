#pragma once

/// \file workloads.hpp
/// The benchmark workloads and the harness pieces they share.
///
/// Every workload runs in its own process (run.py starts one per invocation)
/// and returns the metrics of one run. The untraced run reports
/// the end-to-end metrics; the traced run replays the same work with spans
/// around each call into a layer and reports the per-layer metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adaflow/hls/compiled_model.hpp"
#include "adaflow/hls/folding.hpp"
#include "adaflow/nn/data.hpp"
#include "result_json.hpp"
#include "trace.hpp"

namespace perfbench {

/// The worker pool is pinned to this size for every timed phase: at one
/// worker the host timings spread least, and the 1-vs-2-worker replay check
/// runs outside the timed phase.
inline constexpr int kTimedWorkers = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< traces and replay digests go here
};

/// Counts operations and the ones that failed a correctness check.
class Checker {
 public:
  /// Records one operation; \p ok false counts it as failed and logs \p what.
  void op(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct Outcome {
  Checker checks;
  Metrics metrics;  ///< end-to-end (untraced) or per-layer (traced), by name
  Tracer tracer;                ///< spans of the traced run
};

/// Seconds elapsed since \p start on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point start);

/// "median of N" plus, from two samples on, the spread (q3 - q1) / median of
/// \p samples, for printing beside a median timing.
std::string sample_note(const std::vector<double>& samples);

/// splitmix64 of (seed, salt): independent input streams from one seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a accumulator for replay digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Cross-run replay check: the first run of (workload, seed) in a checkout
/// stores \p digest under out_dir; every later run must reproduce it.
bool matches_stored_digest(const RunOptions& options, const std::string& kind,
                           const std::string& digest);

/// Prints the per-layer table of a traced run (self and inclusive time per
/// span name) and the tracing overhead, and writes the Chrome trace.
void report_trace(const RunOptions& options, const Tracer& tracer, double overhead_frac);

void run_libgen_cold(const RunOptions& options, Outcome& out);
void run_fleet_adapt(const RunOptions& options, Outcome& out);

/// Streams \p frames, in blocks, through a Fixed accelerator running
/// versions[0] and a Flexible one that loads a seeded schedule of
/// \p versions, each block once untraced and once module by module with
/// spans. Checks the composition against infer_logits and each stage's
/// idle lanes against capacity - channels (one operation per inference),
/// adds the per-stage hls.* / perf.* metrics to \p values, and
/// returns the tracing overhead of the traced blocks.
double trace_accelerator_stream(const std::vector<adaflow::hls::CompiledModel>& versions,
                                const adaflow::hls::FoldingConfig& folding,
                                const adaflow::nn::LabeledData& frames, std::uint64_t seed,
                                Tracer& tr, Checker& checks,
                                Metrics& values);

}  // namespace perfbench
