/// Lowering: lower_geometry describes the same stages as compile_model of the
/// lowered model, and branchy graphs are rejected by lower_model with the
/// offending node named.

#include "adaflow/graph/lower.hpp"

#include <gtest/gtest.h>

#include "adaflow/common/error.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/mlp.hpp"

namespace adaflow::graph {
namespace {

void expect_same_geometry(const hls::CompiledModel& a, const hls::CompiledModel& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  EXPECT_EQ(a.classes, b.classes);
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const hls::StageDesc& x = a.stages[i].desc;
    const hls::StageDesc& y = b.stages[i].desc;
    EXPECT_EQ(x.kind, y.kind) << "stage " << i;
    EXPECT_EQ(x.name, y.name) << "stage " << i;
    EXPECT_EQ(x.kernel, y.kernel) << "stage " << i;
    EXPECT_EQ(x.stride, y.stride) << "stage " << i;
    EXPECT_EQ(x.pad, y.pad) << "stage " << i;
    EXPECT_EQ(x.in_dim, y.in_dim) << "stage " << i;
    EXPECT_EQ(x.out_dim, y.out_dim) << "stage " << i;
    EXPECT_EQ(x.ch_in, y.ch_in) << "stage " << i;
    EXPECT_EQ(x.ch_out, y.ch_out) << "stage " << i;
  }
}

// The library generator sizes the shared folding and the equal-area cap on
// lower_geometry(graph), and every version on compile_model of the trained
// model: both must describe the same stages.
TEST(Lowering, GeometryMatchesTheCompiledLoweredModel) {
  const Graph cnv = from_cnv(nn::cnv_w2a2(10, 8));
  expect_same_geometry(lower_geometry(cnv), hls::compile_model(lower_model(cnv, 7)));
  const Graph mlp = from_mlp(nn::tfc_w1a2(10, 2));
  expect_same_geometry(lower_geometry(mlp), hls::compile_model(lower_model(mlp, 11)));
}

TEST(Lowering, BranchyGraphIsRejectedByLowerModelNamingTheNode) {
  Graph g("branchy", 3, 8);
  const std::int64_t c0 = g.add_conv("c0", g.input(), 8, 3, 1, 1);
  const std::int64_t up = g.add_upsample("up", c0, 2);
  g.add_concat("cat", {c0, up});
  try {
    lower_model(g, 7);
    FAIL() << "branchy graph accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("up") != std::string::npos ||
                what.find("cat") != std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace adaflow::graph
