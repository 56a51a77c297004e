#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

void Checker::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 5) {
      std::fprintf(stderr, "correctness check failed: %s\n", what.c_str());
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string sample_note(const std::vector<double>& samples) {
  std::string note = "median of " + std::to_string(samples.size());
  if (samples.size() >= 2) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ", IQR/median %.1f%%", 100.0 * relative_iqr(samples));
    note += buf;
  }
  return note;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
}

void Digest::str(const std::string& s) {
  i64(static_cast<std::int64_t>(s.size()));
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

/// Digest of this executable, so stored replay digests of one build are
/// never compared against another build's.
const std::string& executable_digest() {
  static const std::string hex = [] {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    Digest d;
    d.bytes(bytes.data(), bytes.size());
    return d.hex();
  }();
  return hex;
}

}  // namespace

bool matches_stored_digest(const RunOptions& options, const std::string& kind,
                           const std::string& digest) {
  const std::filesystem::path dir =
      std::filesystem::path(options.out_dir) / "digests" / executable_digest();
  std::filesystem::create_directories(dir);
  const std::filesystem::path file =
      dir / (options.workload + "-" + std::to_string(options.seed) + "-" + kind + ".txt");
  std::string stored;
  if (std::ifstream in(file); in >> stored) {
    return stored == digest;
  }
  std::ofstream(file) << digest << "\n";
  return true;
}

void report_trace(const RunOptions& options, const Tracer& tracer, double overhead_frac) {
  std::printf("%-34s %8s %12s %12s\n", "span", "calls", "total_s", "self_s");
  double self_sum = 0.0;
  for (const Tracer::Row& row : tracer.by_name()) {
    std::printf("%-34s %8lld %12.6f %12.6f\n", row.name.c_str(),
                static_cast<long long>(row.calls), row.total_s, row.self_s);
    self_sum += row.self_s;
  }
  std::printf("%-34s %12s\n", "layer", "self_s");
  double layer_self = 0.0;
  for (const auto& [layer, self] : tracer.self_by_layer()) {
    std::printf("%-34s %12.6f\n", layer.c_str(), self);
    layer_self += layer == "bench" ? 0.0 : self;
  }
  double root_s = 0.0;
  for (std::size_t i = 0; i < tracer.records().size(); ++i) {
    root_s += tracer.records()[i].parent < 0 ? tracer.seconds(i) : 0.0;
  }
  std::printf(
      "root span %.6f s = self-time sum %.6f s; library layers %.6f s, benchmark harness "
      "%.6f s; tracing overhead %+.2f%% of the untraced run\n",
      root_s, self_sum, layer_self, root_s - layer_self, 100.0 * overhead_frac);

  const std::filesystem::path dir = std::filesystem::path(options.out_dir) / "traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file =
      dir / (options.workload + "-seed" + std::to_string(options.seed) + ".json");
  std::ofstream(file) << tracer.chrome_json();
  std::printf("chrome trace: %s (%zu spans)\n", file.string().c_str(), tracer.records().size());
}

}  // namespace perfbench
