#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "adaflow/common/error.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/report/csv.hpp"
#include "adaflow/report/gnuplot.hpp"

namespace adaflow::bench {

namespace {

/// One row per Combo, in enum order.
struct ComboRow {
  const char* name;
  bool gtsrb;  ///< SynthGTSRB, else SynthCIFAR-10
  bool w1a2;   ///< CNVW1A2, else CNVW2A2
};
constexpr ComboRow kCombos[] = {{"CIFAR-10/CNVW2A2", false, false},
                                {"GTSRB/CNVW2A2", true, false},
                                {"CIFAR-10/CNVW1A2", false, true},
                                {"GTSRB/CNVW1A2", true, true}};

const ComboRow& row(Combo combo) { return kCombos[static_cast<int>(combo)]; }

}  // namespace

const char* combo_name(Combo combo) { return row(combo).name; }

datasets::DatasetSpec combo_dataset(Combo combo) {
  return row(combo).gtsrb ? datasets::synth_gtsrb_spec() : datasets::synth_cifar10_spec();
}

nn::CnvTopology combo_topology(Combo combo) {
  const std::int64_t classes = combo_dataset(combo).classes;
  return row(combo).w1a2 ? nn::cnv_w1a2(classes) : nn::cnv_w2a2(classes);
}

core::LibraryConfig standard_library_config() {
  core::LibraryConfig c;  // 18 rates (0..85% step 5), the paper's sweep
  c.base_epochs = 8;
  c.retrain_epochs = 3;
  c.seed = 7;
  return c;
}

std::string cache_dir() {
  if (const char* env = std::getenv("ADAFLOW_CACHE_DIR")) {
    return env;
  }
  return ".adaflow_cache";
}

edge::WorkloadConfig stream(double rate, double deviation, double interval_s,
                            double duration_s) {
  edge::WorkloadConfig c;
  c.devices = 1;
  c.fps_per_device = rate;
  c.phases = {edge::WorkloadPhase{deviation, interval_s, duration_s}};
  return c;
}

int bench_runs() {
  const char* env = std::getenv("ADAFLOW_RUNS");
  if (env == nullptr) {
    return 30;
  }
  char* end = nullptr;
  errno = 0;
  const long runs = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || errno == ERANGE || runs < 1 || runs > INT_MAX) {
    throw ConfigError("ADAFLOW_RUNS must be a positive integer, got '" + std::string(env) + "'");
  }
  return static_cast<int>(runs);
}

bool Checks::operator()(bool ok, const std::string& name, const std::string& measured,
                        const std::string& bound) {
  const std::string detail = measured.empty() ? "" : " (" + measured + " vs " + bound + ")";
  std::printf("check %s/%s: %s%s\n", scope_.c_str(), name.c_str(), ok ? "PASS" : "FAIL",
              detail.c_str());
  failed_ += ok ? 0 : 1;
  return ok;
}

core::AcceleratorLibrary combo_library(Combo combo, const std::string& device,
                                       const core::LibraryConfig& config) {
  const datasets::DatasetSpec spec = combo_dataset(combo);
  const nn::CnvTopology topology = combo_topology(combo);
  const std::string suffix = device.empty() ? "" : "_" + device;
  const std::string path =
      cache_dir() + "/" + topology.name + "_" + spec.name + suffix + ".library.tsv";
  return core::load_or_generate_library(
      path, device.empty() ? fpga::zcu104() : fpga::device_by_name(device), config, topology,
      spec);
}

std::string render_series(const sim::TimeSeries& series, const std::string& name,
                          double value_scale) {
  std::string out = "# " + name + " (t[s] value)\n";
  for (std::size_t i = 0; i < series.values.size(); ++i) {
    out += format_double(series.time_of(i), 2) + "\t" +
           format_double(series.values[i] * value_scale, 3) + "\n";
  }
  return out;
}

std::string report_dir() {
  if (const char* env = std::getenv("ADAFLOW_REPORT_DIR")) {
    return env;
  }
  return "";
}

void export_figure(const std::string& stem, const std::string& title, const std::string& ylabel,
                   const std::vector<std::pair<std::string, sim::TimeSeries>>& series) {
  const std::string dir = report_dir();
  if (dir.empty() || series.empty()) {
    return;
  }
  const std::string csv_path = dir + "/" + stem + ".csv";
  report::write_series_csv(csv_path, series);

  report::FigureSpec spec;
  spec.output_png = stem + ".png";
  spec.csv_path = stem + ".csv";
  spec.title = title;
  spec.ylabel = ylabel;
  for (std::size_t i = 0; i < series.size(); ++i) {
    spec.curves.push_back(report::Curve{static_cast<int>(i + 2), series[i].first});
  }
  report::write_gnuplot(spec, dir + "/" + stem + ".gp");
  std::printf("[report] wrote %s and %s.gp\n", csv_path.c_str(), (dir + "/" + stem).c_str());
}

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name)) {
  require(!name_.empty(), "BenchJson needs a bench name");
}

void BenchJson::set(const std::string& scenario, const std::string& metric, double value,
                    Better better) {
  require(std::isfinite(value),
          "BenchJson value for " + scenario + "." + metric + " must be finite");
  auto it = std::find_if(scenarios_.begin(), scenarios_.end(),
                         [&](const auto& s) { return s.first == scenario; });
  if (it == scenarios_.end()) {
    it = scenarios_.insert(it, {scenario, {}});
  }
  require(std::none_of(it->second.begin(), it->second.end(),
                       [&](const Metric& m) { return m.name == metric; }),
          "BenchJson metric " + scenario + "." + metric + " set twice");
  it->second.push_back(Metric{metric, value, better});
}

std::string BenchJson::render() const {
  static constexpr const char* kBetter[] = {"lower", "higher", "info"};
  std::string json = "{\n  \"bench\": \"" + name_ + "\",\n  \"schema\": 2,\n  \"scenarios\": {";
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    json += std::string(s == 0 ? "" : ",") + "\n    \"" + scenarios_[s].first + "\": {";
    const std::vector<Metric>& metrics = scenarios_[s].second;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", metrics[m].value);
      json += std::string(m == 0 ? "" : ",") + "\n      \"" + metrics[m].name +
              "\": {\"value\": " + buf + ", \"better\": \"" +
              kBetter[static_cast<int>(metrics[m].better)] + "\"}";
    }
    json += "\n    }";
  }
  json += "\n  }\n}\n";
  return json;
}

void BenchJson::write() const {
  const std::string dir = report_dir();
  if (dir.empty() || scenarios_.empty()) {
    return;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  require(out.good(), "cannot write " + path);
  out << render();
  out.close();
  require(out.good(), "failed writing " + path);
  std::printf("wrote %s\n", path.c_str());
}

void print_banner(const std::string& artefact, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("AdaFlow reproduction — %s\n", artefact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================\n");
}

}  // namespace adaflow::bench
