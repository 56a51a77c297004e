/// perfbench: one workload, one process.
///
///   perfbench --workload <libgen_cold|fleet_adapt> --seed N --seconds S
///             --trace 0|1 --out-dir DIR
///
/// Prints the workload's metrics by name, then as its last stdout line the
/// result object (see result_json.hpp). Exits non-zero without a result on
/// bad arguments or an error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "adaflow/common/logging.hpp"
#include "adaflow/common/parallel.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload libgen_cold|fleet_adapt "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage("malformed value for " + flag + ": " + value);
    }
  }
  if (options.out_dir.empty() || !(options.seconds > 0.0)) {
    usage("--out-dir and a positive --seconds are required");
  }

  adaflow::set_log_level(adaflow::LogLevel::kWarn);
  adaflow::set_worker_count(perfbench::kTimedWorkers);
  perfbench::Outcome out;
  try {
    if (options.workload == "libgen_cold") {
      perfbench::run_libgen_cold(options, out);
    } else if (options.workload == "fleet_adapt") {
      perfbench::run_fleet_adapt(options, out);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  const std::int64_t attempted = out.checks.attempted();
  const std::int64_t failed = out.checks.failed();
  std::printf("  %-22s %.6f fraction (%lld of %lld operations)\n", "failed_ops_frac",
              attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
              static_cast<long long>(failed), static_cast<long long>(attempted));
  std::printf("%s\n", perfbench::render_result(failed == 0 && attempted > 0, attempted, failed,
                                               out.metrics)
                          .c_str());
  return 0;
}
