#include "adaflow/core/library.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

namespace adaflow::core {
namespace {

AcceleratorLibrary sample_library() {
  AcceleratorLibrary lib;
  lib.model_name = "CNVW2A2";
  lib.dataset_name = "SynthCIFAR10";
  lib.base_accuracy = 0.95;
  lib.clock_hz = 100e6;
  lib.reconfig_time_s = 0.145;
  lib.resources_finn = {15000, 16000, 14, 0};
  lib.resources_flexible = {28800, 24800, 14, 0};
  lib.folding_flexible.layers = {{8, 3}, {16, 8}, {4, 4}};
  lib.finn_power_busy_w = 1.07;
  lib.finn_power_idle_w = 0.8;
  for (int p : {0, 25, 50}) {
    ModelVersion v;
    v.version = "CNVW2A2@p" + std::to_string(p);
    v.requested_rate = p / 100.0;
    v.achieved_rate = p / 100.0 * 0.9;
    v.accuracy = 0.95 - p * 0.002;
    v.fps_fixed = 500.0 * (1.0 + p / 25.0);
    v.fps_flexible = v.fps_fixed * 0.99;
    v.latency_fixed_s = 0.002;
    v.latency_flexible_s = 0.00201;
    v.resources_fixed = {15000.0 - p * 50, 16000.0, 14, 0};
    // Per-version tuned folding, distinct per rate so a misaligned reader
    // cannot pass by accident.
    v.folding_fixed.layers = {{8, 3}, {16 - p / 25, 8}, {4, 2 + p / 25}};
    v.power_busy_fixed_w = 1.05 - p * 0.001;
    v.power_idle_fixed_w = 0.8;
    v.power_busy_flexible_w = 1.3;
    v.power_idle_flexible_w = 0.9;
    v.flexible_switch_time_s = 0.0005;
    lib.versions.push_back(v);
  }
  return lib;
}

TEST(Library, UnprunedIsFirst) {
  AcceleratorLibrary lib = sample_library();
  EXPECT_EQ(lib.unpruned().requested_rate, 0.0);
}

TEST(Library, AtRateFindsClosest) {
  AcceleratorLibrary lib = sample_library();
  EXPECT_DOUBLE_EQ(lib.at_rate(0.24).requested_rate, 0.25);
  EXPECT_DOUBLE_EQ(lib.at_rate(0.9).requested_rate, 0.50);
  EXPECT_DOUBLE_EQ(lib.at_rate(0.0).requested_rate, 0.0);
}

TEST(Library, IndexOfByName) {
  AcceleratorLibrary lib = sample_library();
  EXPECT_EQ(lib.find("CNVW2A2@p25"), 1u);
  EXPECT_EQ(lib.find("nope"), lib.versions.size());
  EXPECT_EQ(lib.index_of("CNVW2A2@p25"), 1u);
  EXPECT_THROW(lib.index_of("nope"), NotFoundError);
}

TEST(Library, ServingModeReadsTheVariantsColumns) {
  const AcceleratorLibrary lib = sample_library();
  const ModelVersion& v = lib.versions[1];
  const edge::ServingMode fixed = serving_mode(lib, 1, hls::AcceleratorVariant::kFixed);
  EXPECT_EQ(fixed.model_version, v.version);
  EXPECT_EQ(fixed.accelerator, "Fixed@CNVW2A2@p25");
  EXPECT_EQ(fixed.fps, v.fps_fixed);
  EXPECT_EQ(fixed.accuracy, v.accuracy);
  EXPECT_EQ(fixed.power_busy_w, v.power_busy_fixed_w);
  EXPECT_EQ(fixed.power_idle_w, v.power_idle_fixed_w);
  EXPECT_EQ(variant_of(fixed), hls::AcceleratorVariant::kFixed);

  const edge::ServingMode flexible = serving_mode(lib, 1, hls::AcceleratorVariant::kFlexible);
  EXPECT_EQ(flexible.model_version, v.version);
  EXPECT_EQ(flexible.accelerator, hls::variant_name(hls::AcceleratorVariant::kFlexible));
  EXPECT_TRUE(edge::is_flexible(flexible.accelerator));
  EXPECT_EQ(flexible.fps, v.fps_flexible);
  EXPECT_EQ(flexible.accuracy, v.accuracy);
  EXPECT_EQ(flexible.power_busy_w, v.power_busy_flexible_w);
  EXPECT_EQ(flexible.power_idle_w, v.power_idle_flexible_w);
  EXPECT_EQ(variant_of(flexible), hls::AcceleratorVariant::kFlexible);

  EXPECT_THROW(serving_mode(lib, 3, hls::AcceleratorVariant::kFixed), std::out_of_range);
}

/// The paper's switch-cost rule over all four (live, target) pairs.
TEST(Library, SwitchToPricesEveryLiveTargetPair) {
  AcceleratorLibrary lib = sample_library();
  lib.versions[2].flexible_switch_time_s = 0.0007;  // the target row's own cost
  constexpr auto kFixed = hls::AcceleratorVariant::kFixed;
  constexpr auto kFlexible = hls::AcceleratorVariant::kFlexible;
  struct Case {
    hls::AcceleratorVariant live;
    hls::AcceleratorVariant target;
    bool reconfiguration;
    double seconds;
  };
  for (const Case& c : {Case{kFixed, kFixed, true, 0.145}, Case{kFlexible, kFixed, true, 0.145},
                        Case{kFixed, kFlexible, true, 0.145},  // "Change of Dataflow"
                        Case{kFlexible, kFlexible, false, 0.0007}}) {
    const edge::SwitchAction a = switch_to(lib, 2, c.target, c.live);
    SCOPED_TRACE(std::string(hls::variant_name(c.live)) + " -> " + hls::variant_name(c.target));
    EXPECT_EQ(a.is_reconfiguration, c.reconfiguration);
    EXPECT_EQ(a.switch_time_s, c.seconds);
    EXPECT_EQ(a.target.accelerator, serving_mode(lib, 2, c.target).accelerator);
    EXPECT_EQ(a.target.fps, serving_mode(lib, 2, c.target).fps);
  }
}

TEST(Library, SaveLoadRoundTrip) {
  AcceleratorLibrary lib = sample_library();
  const std::string path = ::testing::TempDir() + "/adaflow_lib_cache.tsv";
  save_library(lib, path);
  EXPECT_TRUE(library_cache_exists(path));
  AcceleratorLibrary loaded = load_library(path);

  EXPECT_EQ(loaded.model_name, lib.model_name);
  EXPECT_EQ(loaded.dataset_name, lib.dataset_name);
  EXPECT_DOUBLE_EQ(loaded.base_accuracy, lib.base_accuracy);
  EXPECT_DOUBLE_EQ(loaded.reconfig_time_s, lib.reconfig_time_s);
  EXPECT_DOUBLE_EQ(loaded.resources_flexible.luts, lib.resources_flexible.luts);
  ASSERT_EQ(loaded.versions.size(), lib.versions.size());
  for (std::size_t i = 0; i < lib.versions.size(); ++i) {
    EXPECT_EQ(loaded.versions[i].version, lib.versions[i].version);
    EXPECT_DOUBLE_EQ(loaded.versions[i].accuracy, lib.versions[i].accuracy);
    EXPECT_DOUBLE_EQ(loaded.versions[i].fps_fixed, lib.versions[i].fps_fixed);
    EXPECT_DOUBLE_EQ(loaded.versions[i].flexible_switch_time_s,
                     lib.versions[i].flexible_switch_time_s);
    EXPECT_DOUBLE_EQ(loaded.versions[i].resources_fixed.luts,
                     lib.versions[i].resources_fixed.luts);
  }
}

TEST(Library, FoldingRoundTripsThroughCache) {
  AcceleratorLibrary lib = sample_library();
  const std::string path = ::testing::TempDir() + "/adaflow_lib_folding.tsv";
  save_library(lib, path);
  const AcceleratorLibrary loaded = load_library(path);

  ASSERT_EQ(loaded.folding_flexible.layers.size(), lib.folding_flexible.layers.size());
  for (std::size_t l = 0; l < lib.folding_flexible.layers.size(); ++l) {
    EXPECT_EQ(loaded.folding_flexible.layers[l].pe, lib.folding_flexible.layers[l].pe);
    EXPECT_EQ(loaded.folding_flexible.layers[l].simd, lib.folding_flexible.layers[l].simd);
  }
  ASSERT_EQ(loaded.versions.size(), lib.versions.size());
  for (std::size_t i = 0; i < lib.versions.size(); ++i) {
    const auto& got = loaded.versions[i].folding_fixed.layers;
    const auto& want = lib.versions[i].folding_fixed.layers;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t l = 0; l < want.size(); ++l) {
      EXPECT_EQ(got[l].pe, want[l].pe);
      EXPECT_EQ(got[l].simd, want[l].simd);
    }
  }
}

TEST(Library, LoadRejectsOldSchemaVersion) {
  // A v2 cache (pre-folding) must be rejected with a message naming both the
  // found and the expected schema version, so callers know to regenerate.
  const std::string path = ::testing::TempDir() + "/adaflow_lib_v2.tsv";
  {
    std::ofstream out(path);
    out << "adaflow-library\t2\nCNVW2A2\tSynthCIFAR10\n";
  }
  try {
    load_library(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("schema version 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("version 4"), std::string::npos) << e.what();
  }
}

TEST(Library, LoadRejectsUnknownFutureSchemaVersion) {
  const std::string path = ::testing::TempDir() + "/adaflow_lib_v99.tsv";
  {
    std::ofstream out(path);
    out << "adaflow-library\t99\n";
  }
  EXPECT_THROW(load_library(path), ConfigError);
}

TEST(Library, LoadRejectsTruncatedBody) {
  // Correct header, body cut off mid-version: the reader must notice.
  AcceleratorLibrary lib = sample_library();
  const std::string path = ::testing::TempDir() + "/adaflow_lib_trunc.tsv";
  save_library(lib, path);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path);
    out << text.substr(0, text.size() * 2 / 3);
  }
  EXPECT_THROW(load_library(path), ConfigError);
}

TEST(Library, LoadRejectsCorruptFoldingCount) {
  // An absurd folding layer count must not be trusted as an allocation size.
  AcceleratorLibrary lib = sample_library();
  const std::string path = ::testing::TempDir() + "/adaflow_lib_badfold.tsv";
  save_library(lib, path);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::string needle = "\n3\t8\t3";  // the flexible folding block
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\n99999\t8\t3");
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_THROW(load_library(path), ConfigError);
}

TEST(Library, LoadRejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/adaflow_lib_garbage.tsv";
  {
    std::ofstream out(path);
    out << "not a library\n";
  }
  EXPECT_THROW(load_library(path), ConfigError);
}

TEST(Library, LoadMissingFileThrows) {
  EXPECT_THROW(load_library("/nonexistent/lib.tsv"), ConfigError);
}

TEST(Library, RenderTableContainsAllVersions) {
  AcceleratorLibrary lib = sample_library();
  const std::string table = render_library_table(lib);
  for (const ModelVersion& v : lib.versions) {
    EXPECT_NE(table.find(v.version), std::string::npos);
  }
  EXPECT_NE(table.find("SynthCIFAR10"), std::string::npos);
}

TEST(Library, EmptyLibraryAccessorsThrow) {
  AcceleratorLibrary lib;
  EXPECT_THROW(lib.unpruned(), ConfigError);
  EXPECT_THROW(lib.at_rate(0.0), ConfigError);
}

TEST(Library, SaveReplacesAPartialFileAtomically) {
  // Crash-safe cache write: a half-written TSV left by an interrupted run
  // must be replaced wholesale (temp file + rename), never appended to or
  // left mixed with new content — and no temp file may survive the save.
  AcceleratorLibrary lib = sample_library();
  const std::string path = ::testing::TempDir() + "/adaflow_lib_partial.tsv";
  {
    std::ofstream out(path);
    out << "adaflow-library\t3\ntruncated mid-rec";  // torn previous write
  }
  save_library(lib, path);
  const AcceleratorLibrary loaded = load_library(path);
  EXPECT_EQ(loaded.versions.size(), lib.versions.size());
  EXPECT_EQ(loaded.model_name, lib.model_name);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

}  // namespace
}  // namespace adaflow::core
