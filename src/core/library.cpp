#include "adaflow/core/library.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "adaflow/common/error.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"

namespace adaflow::core {

const ModelVersion& AcceleratorLibrary::unpruned() const {
  require(!versions.empty(), "empty library");
  return versions.front();
}

const ModelVersion& AcceleratorLibrary::at_rate(double requested_rate) const {
  require(!versions.empty(), "empty library");
  const ModelVersion* best = &versions.front();
  double best_d = std::fabs(best->requested_rate - requested_rate);
  for (const ModelVersion& v : versions) {
    const double d = std::fabs(v.requested_rate - requested_rate);
    if (d < best_d) {
      best_d = d;
      best = &v;
    }
  }
  return *best;
}

std::size_t AcceleratorLibrary::find(const std::string& version) const {
  for (std::size_t i = 0; i < versions.size(); ++i) {
    if (versions[i].version == version) {
      return i;
    }
  }
  return versions.size();
}

std::size_t AcceleratorLibrary::index_of(const std::string& version) const {
  const std::size_t i = find(version);
  if (i == versions.size()) {
    throw NotFoundError("library version " + version);
  }
  return i;
}

edge::ServingMode serving_mode(const AcceleratorLibrary& library, std::size_t version,
                               hls::AcceleratorVariant variant) {
  const ModelVersion& v = library.versions.at(version);
  const bool fixed = variant == hls::AcceleratorVariant::kFixed;
  edge::ServingMode mode;
  mode.model_version = v.version;
  mode.accelerator = fixed ? "Fixed@" + v.version : hls::variant_name(variant);
  mode.fps = fixed ? v.fps_fixed : v.fps_flexible;
  mode.accuracy = v.accuracy;
  mode.power_busy_w = fixed ? v.power_busy_fixed_w : v.power_busy_flexible_w;
  mode.power_idle_w = fixed ? v.power_idle_fixed_w : v.power_idle_flexible_w;
  return mode;
}

hls::AcceleratorVariant variant_of(const edge::ServingMode& mode) {
  return edge::is_flexible(mode.accelerator) ? hls::AcceleratorVariant::kFlexible
                                             : hls::AcceleratorVariant::kFixed;
}

edge::SwitchAction switch_to(const AcceleratorLibrary& library, std::size_t version,
                             hls::AcceleratorVariant target, hls::AcceleratorVariant live) {
  edge::SwitchAction action;
  action.target = serving_mode(library, version, target);
  action.is_reconfiguration = target == hls::AcceleratorVariant::kFixed ||
                              live == hls::AcceleratorVariant::kFixed;
  action.switch_time_s = action.is_reconfiguration
                             ? library.reconfig_time_s
                             : library.versions[version].flexible_switch_time_s;
  return action;
}

AcceleratorLibrary synthetic_library(int versions, double base_fps, double base_accuracy,
                                     double reconfig_time_s, double fps_growth) {
  require(versions > 0, "synthetic_library needs versions > 0");
  require(std::isfinite(base_fps) && base_fps > 0.0, "synthetic_library needs base_fps > 0");
  require(std::isfinite(fps_growth) && fps_growth >= 1.0,
          "synthetic_library needs fps_growth >= 1.0");
  AcceleratorLibrary lib;
  lib.model_name = "SYNTH";
  lib.dataset_name = "synthetic";
  lib.base_accuracy = base_accuracy;
  lib.reconfig_time_s = reconfig_time_s;
  lib.finn_power_busy_w = 4.5;
  lib.finn_power_idle_w = 3.2;
  for (int i = 0; i < versions; ++i) {
    ModelVersion v;
    const double rate =
        versions > 1 ? 0.85 * static_cast<double>(i) / static_cast<double>(versions - 1) : 0.0;
    v.version = "SYNTH@p" + std::to_string(static_cast<int>(std::lround(rate * 100.0)));
    v.requested_rate = rate;
    v.achieved_rate = rate;
    // Accuracy decays gently at first, faster at aggressive pruning rates —
    // the concave shape of the paper's retrained-accuracy curves.
    v.accuracy = base_accuracy - 0.02 * i - 0.005 * i * i;
    v.fps_fixed = base_fps * std::pow(fps_growth, i);
    v.fps_flexible = v.fps_fixed * 0.995;  // worst-case accelerator overhead
    v.latency_fixed_s = 1.0 / v.fps_fixed;
    v.latency_flexible_s = 1.0 / v.fps_flexible;
    v.power_busy_fixed_w = 4.2 + 0.25 * i;
    v.power_idle_fixed_w = 3.0;
    v.power_busy_flexible_w = 5.0 + 0.25 * i;
    v.power_idle_flexible_w = 3.5;
    v.flexible_switch_time_s = 0.001;
    lib.versions.push_back(v);
  }
  return lib;
}

AcceleratorLibrary scale_library_fps(const AcceleratorLibrary& library, double scale) {
  require(std::isfinite(scale) && scale > 0.0, "scale_library_fps needs scale > 0");
  AcceleratorLibrary scaled = library;
  for (ModelVersion& v : scaled.versions) {
    v.fps_fixed *= scale;
    v.fps_flexible *= scale;
    v.latency_fixed_s = v.fps_fixed > 0.0 ? 1.0 / v.fps_fixed : 0.0;
    v.latency_flexible_s = v.fps_flexible > 0.0 ? 1.0 / v.fps_flexible : 0.0;
  }
  return scaled;
}

namespace {
// v3 added the persisted foldings (per-version Fixed + shared Flexible);
// v4 keys the cache on the graph topology hash (CNV and detection libraries
// can never collide).
constexpr int kCacheVersion = 4;

void write_usage(std::ostream& out, const fpga::ResourceUsage& u) {
  out << u.luts << '\t' << u.flip_flops << '\t' << u.bram18 << '\t' << u.dsp;
}

fpga::ResourceUsage read_usage(std::istream& in) {
  fpga::ResourceUsage u;
  in >> u.luts >> u.flip_flops >> u.bram18 >> u.dsp;
  return u;
}

void write_folding(std::ostream& out, const hls::FoldingConfig& f) {
  out << f.layers.size();
  for (const hls::LayerFolding& layer : f.layers) {
    out << '\t' << layer.pe << '\t' << layer.simd;
  }
}

hls::FoldingConfig read_folding(std::istream& in, const std::string& path) {
  std::size_t count = 0;
  in >> count;
  require(static_cast<bool>(in) && count <= 1024, "library cache corrupt: " + path);
  hls::FoldingConfig f;
  f.layers.resize(count);
  for (hls::LayerFolding& layer : f.layers) {
    in >> layer.pe >> layer.simd;
  }
  return f;
}
}  // namespace

void save_library(const AcceleratorLibrary& library, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  // Crash-safe write: stream into a sibling temp file, then atomically
  // rename over the destination. A process killed mid-save leaves either
  // the old cache or the new one — never a truncated file that a later
  // load_library would choke on.
  const std::filesystem::path tmp(path + ".tmp");
  std::ofstream out(tmp);
  require(out.good(), "cannot write library cache " + tmp.string());
  out.precision(17);  // max_digits10: doubles survive the text round-trip
  out << "adaflow-library\t" << kCacheVersion << '\n';
  out << library.model_name << '\t' << library.dataset_name << '\t' << library.topology_hash
      << '\n';
  out << library.base_accuracy << '\t' << library.clock_hz << '\t' << library.reconfig_time_s
      << '\t' << library.finn_power_busy_w << '\t' << library.finn_power_idle_w << '\n';
  write_usage(out, library.resources_finn);
  out << '\n';
  write_usage(out, library.resources_flexible);
  out << '\n';
  write_folding(out, library.folding_flexible);
  out << '\n';
  out << library.versions.size() << '\n';
  for (const ModelVersion& v : library.versions) {
    out << v.version << '\t' << v.requested_rate << '\t' << v.achieved_rate << '\t' << v.accuracy
        << '\t' << v.fps_fixed << '\t' << v.fps_flexible << '\t' << v.latency_fixed_s << '\t'
        << v.latency_flexible_s << '\t' << v.power_busy_fixed_w << '\t' << v.power_idle_fixed_w
        << '\t' << v.power_busy_flexible_w << '\t' << v.power_idle_flexible_w << '\t'
        << v.flexible_switch_time_s << '\t';
    write_usage(out, v.resources_fixed);
    out << '\t';
    write_folding(out, v.folding_fixed);
    out << '\n';
  }
  out.flush();
  require(out.good(), "error writing library cache " + tmp.string());
  out.close();
  std::error_code ec;
  std::filesystem::rename(tmp, p, ec);  // atomic within a filesystem (POSIX)
  if (ec) {
    std::filesystem::remove(tmp);
    throw Error("cannot move library cache " + tmp.string() + " to " + path + ": " +
                ec.message());
  }
}

AcceleratorLibrary load_library(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot read library cache " + path);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  require(magic == "adaflow-library", path + " is not a library cache");
  require(version == kCacheVersion,
          "library cache " + path + " has schema version " + std::to_string(version) +
              " but this build reads version " + std::to_string(kCacheVersion) +
              "; delete the cache (or let load_or_generate_library regenerate it)");
  AcceleratorLibrary lib;
  in >> lib.model_name >> lib.dataset_name >> lib.topology_hash;
  in >> lib.base_accuracy >> lib.clock_hz >> lib.reconfig_time_s >> lib.finn_power_busy_w >>
      lib.finn_power_idle_w;
  lib.resources_finn = read_usage(in);
  lib.resources_flexible = read_usage(in);
  lib.folding_flexible = read_folding(in, path);
  std::size_t count = 0;
  in >> count;
  require(static_cast<bool>(in) && count <= 4096, "library cache corrupt: " + path);
  lib.versions.resize(count);
  for (ModelVersion& v : lib.versions) {
    in >> v.version >> v.requested_rate >> v.achieved_rate >> v.accuracy >> v.fps_fixed >>
        v.fps_flexible >> v.latency_fixed_s >> v.latency_flexible_s >> v.power_busy_fixed_w >>
        v.power_idle_fixed_w >> v.power_busy_flexible_w >> v.power_idle_flexible_w >>
        v.flexible_switch_time_s;
    v.resources_fixed = read_usage(in);
    v.folding_fixed = read_folding(in, path);
  }
  require(static_cast<bool>(in), "library cache truncated: " + path);
  return lib;
}

bool library_cache_exists(const std::string& path) {
  return std::filesystem::exists(path);
}

std::string render_library_table(const AcceleratorLibrary& library) {
  TextTable table({"version", "rate", "achieved", "accuracy", "FPS(fixed)", "FPS(flex)",
                   "LUT(fixed)", "P_busy(fix)", "P_busy(flex)"});
  for (const ModelVersion& v : library.versions) {
    table.add_row({v.version, format_percent(v.requested_rate, 0),
                   format_percent(v.achieved_rate, 1), format_percent(v.accuracy, 2),
                   format_double(v.fps_fixed, 1), format_double(v.fps_flexible, 1),
                   format_double(v.resources_fixed.luts, 0),
                   format_double(v.power_busy_fixed_w, 3) + "W",
                   format_double(v.power_busy_flexible_w, 3) + "W"});
  }
  std::ostringstream os;
  os << "Library " << library.model_name << " / " << library.dataset_name
     << " (base accuracy " << format_percent(library.base_accuracy, 2) << ", reconfig "
     << format_double(library.reconfig_time_s * 1e3, 0) << " ms)\n"
     << table.render();
  return os.str();
}

}  // namespace adaflow::core
