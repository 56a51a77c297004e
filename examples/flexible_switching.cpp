/// Flexible fast model switching, demonstrated functionally.
///
/// Builds one Flexible-Pruning accelerator (synthesized at the worst case),
/// then hot-swaps pruned CNN versions through it while classifying a frame
/// stream — no FPGA reconfiguration, just new weight levels and the runtime
/// `channels` ports. Shows the per-version pipeline cycles and the idle
/// (unfed) pool units of Figure 3(b), and verifies the Fixed accelerator
/// refuses what the Flexible one accepts.

#include <cstdio>

#include "adaflow/common/logging.hpp"
#include "adaflow/common/strings.hpp"
#include "adaflow/datasets/synthetic.hpp"
#include "adaflow/fpga/reconfig.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/trainer.hpp"
#include "adaflow/pruning/prune.hpp"

int main() {
  using namespace adaflow;
  set_log_level(LogLevel::kWarn);

  // Train a compact CNV-W2A2 on the CIFAR-like set.
  datasets::DatasetSpec spec = datasets::synth_cifar10_spec(800, 200);
  const datasets::SyntheticDataset dataset = datasets::generate(spec);
  nn::Model base = graph::lower_model(graph::from_cnv(nn::cnv_w2a2(spec.classes)), 7);
  nn::TrainConfig tc;
  tc.epochs = 5;
  tc.lr = 0.02f;
  std::printf("training the initial CNN (%lld parameters)...\n",
              static_cast<long long>(base.param_count()));
  nn::Trainer(tc).fit(base, dataset.train);

  const hls::FoldingConfig folding = hls::folding_for_target_fps(base, 450.0, 100e6);
  const hls::InputQuantConfig iq;
  const hls::CompiledModel worstcase = hls::compile_model(base, 0.0, iq);
  const nn::LabeledData test{hls::snap_to_input_grid(dataset.test.images, iq),
                             dataset.test.labels};

  hls::DataflowAccelerator flexible(hls::AcceleratorVariant::kFlexible, worstcase, folding);
  hls::DataflowAccelerator fixed(hls::AcceleratorVariant::kFixed, worstcase, folding);
  const fpga::ReconfigModel reconfig(fpga::zcu104());

  std::printf("\n%-10s %-10s %-12s %-14s %-12s %s\n", "version", "accuracy", "cycles/frame",
              "idle pool ops", "switch time", "fixed accelerator");
  for (double rate : {0.0, 0.25, 0.50, 0.75}) {
    pruning::PruneResult pr = pruning::dataflow_aware_prune(base, folding, rate);
    if (rate > 0.0) {
      nn::TrainConfig ft;
      ft.epochs = 2;
      ft.lr = 0.005f;
      nn::Trainer(ft).fit(pr.model, dataset.train);
    }
    pr.model.set_name("p" + std::to_string(static_cast<int>(rate * 100)));
    const hls::CompiledModel compiled = hls::compile_model(pr.model, rate, iq);

    flexible.load_model(compiled);  // the fast switch
    const double accuracy = hls::accelerator_accuracy(flexible, test);
    // Stats reflect the last inference of the accuracy sweep.
    const auto& stats = flexible.last_stats();

    std::string fixed_verdict = "accepts";
    try {
      fixed.load_model(compiled);
    } catch (const FoldingError&) {
      fixed_verdict = "REFUSES (needs reconfiguration, " +
                      format_double(reconfig.full_reconfig_seconds() * 1e3, 0) + " ms)";
    }
    std::printf("%-10s %-10s %-12lld %-14lld %-12s %s\n", pr.model.name().c_str(),
                format_percent(accuracy, 1).c_str(),
                static_cast<long long>(stats.total_pipeline_iterations()),
                static_cast<long long>(stats.total_idle_unit_ops()),
                (format_double(reconfig.flexible_switch_seconds(compiled) * 1e6, 0) + " us").c_str(),
                fixed_verdict.c_str());
  }

  std::printf("\nThe flexible dataflow runs every dataflow-aware-pruned version of its\n"
              "initial CNN; pruned versions take fewer pipeline cycles (higher FPS) and\n"
              "leave some unrolled pool units unfed, exactly as in Figure 3 of the paper.\n");
  return 0;
}
