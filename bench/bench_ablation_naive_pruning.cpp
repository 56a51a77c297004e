/// Ablation: Dataflow-Aware Pruning vs naive (constraint-oblivious) filter
/// pruning. Naively keeping ceil((1-rate)*ch_out) filters violates the MVTU
/// feeding constraints for most rates — such a model cannot be loaded into
/// the synthesized dataflow at all. This bench counts, per rate, how many
/// conv layers a naive pruner would break, and shows the rate adjustment the
/// dataflow-aware pruner applies instead.

#include <cmath>
#include <cstdio>

#include "adaflow/common/math.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/common/table.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/nn/trainer.hpp"
#include "adaflow/pruning/prune.hpp"
#include "common.hpp"

int main() {
  using namespace adaflow;
  bench::print_banner("Ablation: naive vs dataflow-aware pruning",
                      "Folding-constraint violations of a constraint-oblivious pruner");

  // Build the standard CNVW2A2 and its bench folding (no training needed —
  // the constraints are structural).
  const nn::CnvTopology topology = bench::combo_topology(bench::Combo::kCifarW2A2);
  nn::Model model = graph::lower_model(graph::from_cnv(topology), 7);
  const hls::FoldingConfig folding =
      hls::folding_for_target_fps(model, bench::standard_library_config().target_base_fps, 100e6);
  const std::vector<hls::MvtuLayerDesc> layers = hls::enumerate_mvtu_layers(model);

  TextTable table({"rate", "naive_violations", "naive_keep(conv2)", "aware_keep(conv2)",
                   "requested_rate", "aware_achieved"});
  int total_violating_rates = 0;
  for (int p = 5; p <= 85; p += 5) {
    const double rate = p / 100.0;
    int violations = 0;
    std::int64_t naive_keep_c2 = 0;
    std::int64_t aware_keep_c2 = 0;

    for (std::size_t m = 0; m < layers.size(); ++m) {
      if (!layers[m].is_conv) {
        continue;
      }
      const std::int64_t ch = layers[m].ch_out;
      const std::int64_t pe = folding.layers[m].pe;
      const std::int64_t simd_next = m + 1 < layers.size() ? folding.layers[m + 1].simd : 1;
      const auto naive_keep =
          static_cast<std::int64_t>(std::ceil((1.0 - rate) * static_cast<double>(ch)));
      const bool violates = !divisible(naive_keep, pe) || !divisible(naive_keep, simd_next);
      violations += violates ? 1 : 0;
      const std::int64_t aware = pruning::adjust_keep_count(ch, naive_keep, pe, simd_next);
      if (m == 1) {  // conv2, the paper's bottleneck layer
        naive_keep_c2 = naive_keep;
        aware_keep_c2 = aware;
      }
    }
    pruning::PruneResult pr = pruning::dataflow_aware_prune(model, folding, rate);
    table.add_row({format_percent(rate, 0), std::to_string(violations),
                   std::to_string(naive_keep_c2), std::to_string(aware_keep_c2),
                   format_percent(rate, 0), format_percent(pr.achieved_rate, 1)});
    total_violating_rates += violations > 0 ? 1 : 0;
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: %d of 17 naive rates violate at least one MVTU constraint — "
              "those models cannot feed all PE/SIMD lanes and are rejected by the dataflow "
              "(paper Section IV-A1 motivates the constraint-aware adjustment)\n",
              total_violating_rates);
  return 0;
}
