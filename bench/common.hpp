#pragma once

/// Shared experiment infrastructure for the benches.
///
/// bench_adaflow regenerates the paper's tables and figures and runs the
/// simulation families. The figures all need the same design-time artifact
/// — the AdaFlow library of each (CNN, dataset) pair — which takes
/// CPU-minutes to train, so it is built once and cached on disk (see
/// cache_dir()). Every entry states its claims as named predicates through
/// one Checks reporter; the program exits 1 if any failed.
///
/// Environment knobs:
///   ADAFLOW_RUNS       repetitions per scenario (default 30; paper: 100)
///   ADAFLOW_CACHE_DIR  library cache directory (default ./.adaflow_cache)
///   ADAFLOW_REPORT_DIR artefact directory (CSV, gnuplot, BENCH_*.json);
///                      unset writes none

#include <string>
#include <utility>

#include "adaflow/core/library_generator.hpp"
#include "adaflow/core/runtime_manager.hpp"
#include "adaflow/edge/server.hpp"

namespace adaflow::bench {

/// The four (dataset, model) combinations of the paper's Table I.
enum class Combo {
  kCifarW2A2,
  kGtsrbW2A2,
  kCifarW1A2,
  kGtsrbW1A2,
};

const char* combo_name(Combo combo);

/// Dataset spec / topology of a combo (standard bench scale).
datasets::DatasetSpec combo_dataset(Combo combo);
nn::CnvTopology combo_topology(Combo combo);

/// Standard library-generation config used by every bench.
core::LibraryConfig standard_library_config();

/// Loads (or generates + caches) the library of a combo under \p config,
/// for the ZCU104 or, if \p device is named, for that board. A named board
/// caches to its own file, <model>_<dataset>_<device>.library.tsv.
core::AcceleratorLibrary combo_library(
    Combo combo, const std::string& device = "",
    const core::LibraryConfig& config = standard_library_config());

/// One camera stream of \p rate FPS for \p duration_s seconds, its rate
/// redrawn within +-\p deviation every \p interval_s seconds.
edge::WorkloadConfig stream(double rate, double deviation, double interval_s, double duration_s);

/// Number of simulation repetitions (ADAFLOW_RUNS, default 30). Throws
/// ConfigError naming ADAFLOW_RUNS unless it is a positive integer.
int bench_runs();

/// Named pass/fail predicates of one bench. Every check prints
/// `check <scope>/<name>: PASS|FAIL`, followed by ` (<measured> vs <bound>)`
/// when a measured value is given; a failure never stops the run.
class Checks {
 public:
  explicit Checks(std::string scope) : scope_(std::move(scope)) {}

  /// Records and prints one predicate; returns \p ok.
  bool operator()(bool ok, const std::string& name, const std::string& measured = "",
                  const std::string& bound = "");

  bool passed() const { return failed_ == 0; }

 private:
  std::string scope_;
  int failed_ = 0;
};

std::string cache_dir();

/// Renders a time series as "t  v" rows with fixed precision.
std::string render_series(const sim::TimeSeries& series, const std::string& name,
                          double value_scale = 1.0);

/// Directory for CSV + gnuplot artifacts (ADAFLOW_REPORT_DIR); empty means
/// export disabled.
std::string report_dir();

/// If reporting is enabled, writes the named series to CSV plus a matching
/// gnuplot script under report_dir()/<stem>.csv/.gp.
void export_figure(const std::string& stem, const std::string& title, const std::string& ylabel,
                   const std::vector<std::pair<std::string, sim::TimeSeries>>& series);

/// Prints a header banner for a bench artefact.
void print_banner(const std::string& artefact, const std::string& description);

/// Which way a BenchJson metric should move. tools/bench_diff.py flags a
/// kLower or kHigher metric that moved the wrong way beyond its tolerance;
/// a kInfo metric (a bookkeeping count, a wall-clock time) is only shown.
enum class Better { kLower, kHigher, kInfo };

/// Shared BENCH_*.json emitter: every simulation family publishes its
/// headline numbers through this one schema so tools/bench_diff.py can
/// compare any two artefacts. Each metric carries its own direction:
///
///   {"bench": "<name>", "schema": 2,
///    "scenarios": {"<scenario>": {
///      "<metric>": {"value": <number>, "better": "lower|higher|info"}, ...}, ...}}
///
/// Scenarios and metrics render in insertion order (deterministic output);
/// values must be finite.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name);

  /// Sets scenarios[scenario][metric] = value; each metric is set once.
  void set(const std::string& scenario, const std::string& metric, double value, Better better);

  std::string render() const;

  /// Writes BENCH_<name>.json under report_dir() and logs the path; writes
  /// nothing when reporting is disabled or no metric was set.
  void write() const;

 private:
  struct Metric {
    std::string name;
    double value;
    Better better;
  };
  std::string name_;
  std::vector<std::pair<std::string, std::vector<Metric>>> scenarios_;
};

/// What one entry of bench_adaflow reports: its named predicates and its
/// BenchJson, both named after the entry.
struct Report {
  explicit Report(const std::string& name) : check(name), json(name) {}
  Checks check;
  BenchJson json;
};

/// The simulation families of bench_adaflow, one file each. Every family
/// runs its full scenario, prints its tables and records its claims and
/// headline metrics in \p report.
void fleet_bench(Report& report);
void chaos_bench(Report& report);
void forecast_bench(Report& report);
void ingest_bench(Report& report);
void tenant_bench(Report& report);
void shard_bench(Report& report);
void integrity_bench(Report& report);
void detect_bench(Report& report);
void dse_bench(Report& report);

}  // namespace adaflow::bench
