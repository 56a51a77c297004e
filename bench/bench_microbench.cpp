/// Google-benchmark microbenchmarks of the library's primitives: software
/// conv forward, one QAT training step, each conv layer's (also conv4/conv5
/// of a 50%-pruned model), the first BatchNorm's and the first MaxPool's
/// share of it, the three GEMM kernels behind it (the context line
/// `gemm_kernels` names the ISA variant the process selected),
/// functional dataflow inference (fixed vs flexible), the
/// dataflow-aware pruner, threshold folding, and the hot paths the sharded
/// parallel engine leans on — EventQueue scheduling at standing depth, the
/// fleet dispatcher under a saturated ingress, latency-histogram
/// record/merge, and the mailbox exchange.

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "adaflow/core/library.hpp"
#include "adaflow/edge/server.hpp"
#include "adaflow/fleet/engine.hpp"
#include "adaflow/fleet/routing.hpp"
#include "adaflow/graph/builders.hpp"
#include "adaflow/graph/lower.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/nn/cnv.hpp"
#include "adaflow/nn/gemm.hpp"
#include "adaflow/nn/loss.hpp"
#include "adaflow/nn/maxpool2d.hpp"
#include "adaflow/pruning/prune.hpp"
#include "adaflow/shard/mailbox.hpp"
#include "adaflow/sim/event_queue.hpp"
#include "adaflow/sim/stats.hpp"

namespace {

using namespace adaflow;

const nn::Model& model() {
  static nn::Model m = graph::lower_model(graph::from_cnv(nn::cnv_w2a2(10, 8)), 7);
  return m;
}

const hls::FoldingConfig& folding() {
  static const hls::FoldingConfig f = hls::folding_for_target_fps(model(), 450.0, 100e6);
  return f;
}

const hls::CompiledModel& compiled() {
  static const hls::CompiledModel c = hls::compile_model(model());
  return c;
}

const nn::Tensor& image() {
  static const nn::Tensor img = [] {
    Rng rng(3);
    return hls::snap_to_input_grid(nn::Tensor::uniform(nn::Shape{1, 3, 32, 32}, -2, 2, rng),
                                   hls::InputQuantConfig{});
  }();
  return img;
}

void BM_SoftwareForward(benchmark::State& state) {
  auto& m = const_cast<nn::Model&>(model());
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.forward(image(), false));
  }
}
BENCHMARK(BM_SoftwareForward);

// One QAT step of the library generator's model: forward + backward of a
// CNVW1A2 (scale 8) batch of 32. Library generation is this step repeated.
void BM_TrainStep(benchmark::State& state) {
  nn::Model m = graph::lower_model(graph::from_cnv(nn::cnv_w1a2(10, 8)), 7);
  Rng rng(5);
  const nn::Tensor images = nn::Tensor::uniform(nn::Shape{32, 3, 32, 32}, -1, 1, rng);
  std::vector<int> labels(32);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }
  for (auto _ : state) {
    m.zero_grad();
    const nn::Tensor logits = m.forward(images, true);
    m.backward(nn::softmax_cross_entropy(logits, labels).grad);
    benchmark::DoNotOptimize(m.params().front()->grad.data());
  }
}
BENCHMARK(BM_TrainStep)->Unit(benchmark::kMicrosecond);

// The GEMM kernels at conv1's geometry in that step: 8 output channels,
// K = 8 * 3 * 3 = 72, N = 28 * 28 = 784 output pixels. NN is the forward
// conv, NT the weight gradient, TN the input gradient.
enum class GemmKind { kNN, kNT, kTN };

template <GemmKind kKind>
void BM_Gemm(benchmark::State& state) {
  constexpr std::int64_t kOut = 8;
  constexpr std::int64_t kK = 72;
  constexpr std::int64_t kPixels = 784;
  Rng rng(9);
  // Binary weights with a third of them pruned to exactly zero.
  std::vector<float> w(static_cast<std::size_t>(kOut * kK));
  for (float& v : w) {
    const double u = rng.uniform(0.0, 1.0);
    v = u < 0.33 ? 0.0f : (u < 0.66 ? -0.25f : 0.25f);
  }
  const nn::Tensor col = nn::Tensor::uniform(nn::Shape{kK, kPixels}, -1, 1, rng);
  const nn::Tensor dy = nn::Tensor::uniform(nn::Shape{kOut, kPixels}, -1, 1, rng);
  // The kernels accumulate into C, so it is not reset between iterations.
  nn::Tensor out(kKind == GemmKind::kNN   ? nn::Shape{kOut, kPixels}
                 : kKind == GemmKind::kNT ? nn::Shape{kOut, kK}
                                          : nn::Shape{kK, kPixels});
  for (auto _ : state) {
    if constexpr (kKind == GemmKind::kNN) {
      nn::gemm_nn(kOut, kPixels, kK, w.data(), col.data(), out.data());
    } else if constexpr (kKind == GemmKind::kNT) {
      nn::gemm_nt(kOut, kK, kPixels, dy.data(), col.data(), out.data());
    } else {
      nn::gemm_tn(kK, kPixels, kOut, w.data(), dy.data(), out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Gemm<GemmKind::kNN>)->Name("BM_GemmNN")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Gemm<GemmKind::kNT>)->Name("BM_GemmNT")->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Gemm<GemmKind::kTN>)->Name("BM_GemmTN")->Unit(benchmark::kMicrosecond);

// One conv layer of BM_TrainStep's model on its own: forward + backward at
// that layer's geometry, batch 32. conv0 skips its input gradient, as in
// Model::backward. conv4 and conv5 have 9 and 1 output pixels per sample.
// The /p50 rows run conv4 and conv5 of that model pruned at 50% (the
// library generator retrains such versions), with their odd channel counts.
void BM_ConvLayerStep(benchmark::State& state, const nn::Model& m, int conv) {
  const std::size_t index = m.indices_of(nn::LayerKind::kConv2d).at(static_cast<std::size_t>(conv));
  const auto& source = m.layer_as<nn::Conv2d>(index);
  nn::Conv2d layer("conv", source.config(), source.quant(), source.weight());
  Rng rng(5);
  const nn::Tensor input = nn::Tensor::uniform(m.shapes_for_batch(32)[index], -1, 1, rng);
  const nn::Tensor grad = nn::Tensor::uniform(layer.output_shape(input.shape()), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(input, true).data());
    if (conv == 0) {
      layer.backward_params(grad);
    } else {
      benchmark::DoNotOptimize(layer.backward(grad).data());
    }
    benchmark::DoNotOptimize(layer.params().front()->grad.data());
  }
}

const bool kConvLayerStepsRegistered = [] {
  benchmark::AddCustomContext("gemm_kernels", nn::gemm_kernels().isa);
  static const nn::Model full = graph::lower_model(graph::from_cnv(nn::cnv_w1a2(10, 8)), 7);
  static const nn::Model pruned =
      pruning::dataflow_aware_prune(full, hls::folding_for_target_fps(full, 450.0, 100e6), 0.5)
          .model;
  for (int conv = 0; conv < 6; ++conv) {
    benchmark::RegisterBenchmark(("BM_ConvLayerStep/conv" + std::to_string(conv)).c_str(),
                                 BM_ConvLayerStep, std::cref(full), conv)
        ->Unit(benchmark::kMicrosecond);
  }
  for (int conv : {4, 5}) {
    benchmark::RegisterBenchmark(("BM_ConvLayerStep/conv" + std::to_string(conv) + "/p50").c_str(),
                                 BM_ConvLayerStep, std::cref(pruned), conv)
        ->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

// BatchNorm bn0 of BM_TrainStep's model on its own: forward + backward on
// conv0's output, 32 x 8 x 30 x 30. The layer takes its input by value, so
// each forward here starts from a copy of the same batch.
void BM_BatchNormStep(benchmark::State& state) {
  nn::BatchNorm layer("bn0", 8);
  Rng rng(5);
  const nn::Tensor input = nn::Tensor::uniform(nn::Shape{32, 8, 30, 30}, -1, 1, rng);
  const nn::Tensor grad = nn::Tensor::uniform(input.shape(), -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(input, true).data());
    benchmark::DoNotOptimize(layer.backward(grad).data());
  }
}
BENCHMARK(BM_BatchNormStep)->Unit(benchmark::kMicrosecond);

// MaxPool2d pool1 of BM_TrainStep's model on its own: forward + backward on
// conv1's output, 32 x 8 x 28 x 28 in (the 2x2 path). Each forward copies
// the lvalue input once.
void BM_MaxPoolStep(benchmark::State& state) {
  nn::MaxPool2d layer("pool1", 2);
  Rng rng(5);
  const nn::Tensor input = nn::Tensor::uniform(nn::Shape{32, 8, 28, 28}, -1, 1, rng);
  const nn::Tensor grad = nn::Tensor::uniform(nn::Shape{32, 8, 14, 14}, -1, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(input, true).data());
    benchmark::DoNotOptimize(layer.backward(grad).data());
  }
}
BENCHMARK(BM_MaxPoolStep)->Unit(benchmark::kMicrosecond);

void BM_DataflowInferFixed(benchmark::State& state) {
  hls::DataflowAccelerator accel(hls::AcceleratorVariant::kFixed, compiled(), folding());
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.infer_class(image()));
  }
}
BENCHMARK(BM_DataflowInferFixed);

void BM_DataflowInferFlexible(benchmark::State& state) {
  hls::DataflowAccelerator accel(hls::AcceleratorVariant::kFlexible, compiled(), folding());
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.infer_class(image()));
  }
}
BENCHMARK(BM_DataflowInferFlexible);

void BM_DataflowAwarePrune(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pruning::dataflow_aware_prune(model(), folding(), rate));
  }
}
BENCHMARK(BM_DataflowAwarePrune)->Arg(25)->Arg(50)->Arg(85);

void BM_CompileModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(hls::compile_model(model()));
  }
}
BENCHMARK(BM_CompileModel);

void BM_FlexibleModelSwitch(benchmark::State& state) {
  hls::DataflowAccelerator accel(hls::AcceleratorVariant::kFlexible, compiled(), folding());
  pruning::PruneResult pr = pruning::dataflow_aware_prune(model(), folding(), 0.5);
  const hls::CompiledModel pruned = hls::compile_model(pr.model);
  bool to_pruned = true;
  for (auto _ : state) {
    accel.load_model(to_pruned ? pruned : compiled());
    to_pruned = !to_pruned;
  }
}
BENCHMARK(BM_FlexibleModelSwitch);

// Guards the binary-search rate_at lookup: a long generated trace (thousands
// of segments) queried all over its span must stay O(log n) per call.
void BM_TraceRateAt(benchmark::State& state) {
  const edge::WorkloadTrace trace =
      edge::diurnal_trace(200.0, 900.0, 120.0, 3600.0, 0.25, 0.05, 11);
  double t = 0.0;
  for (auto _ : state) {
    t += 7.31;
    if (t > trace.duration()) t -= trace.duration();
    benchmark::DoNotOptimize(trace.rate_at(t));
  }
}
BENCHMARK(BM_TraceRateAt);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    q.run_until(100.0);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueThroughput);

// schedule_at + pop at a standing queue depth — the sharded engine keeps
// hundreds of cadence events per shard in flight, so cost per operation at
// depth (not on an empty heap) is the number that matters.
void BM_EventQueueScheduleAtDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  sim::EventQueue q;
  int fired = 0;
  double horizon = 1.0;
  for (int i = 0; i < depth; ++i) {
    q.schedule_at(horizon + static_cast<double>(i), [&fired] { ++fired; });
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    q.schedule_at(t, [&fired] { ++fired; });
    q.run_until(t);  // pops exactly the one event; the standing depth stays
    if (t > horizon - 0.5) {
      state.PauseTiming();
      q.run_until(horizon + static_cast<double>(depth));
      horizon = q.now() + 1.0;
      for (int i = 0; i < depth; ++i) {
        q.schedule_at(horizon + static_cast<double>(i), [&fired] { ++fired; });
      }
      t = q.now();
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(fired);
}
// 50 is the standing depth perfbench's traced fleet_adapt run records per
// shard queue.
BENCHMARK(BM_EventQueueScheduleAtDepth)->Arg(50)->Arg(64)->Arg(1024);

// One frame offered to a 16-device least-loaded fleet at twice its service
// rate, plus the simulated time until the next arrival. The ingress stays
// full, so each completion's drain_ingress dispatches one waiting frame and
// ends in a failed dispatch: the dispatcher's per-frame path under load.
void BM_FleetEngineOfferFrame(benchmark::State& state) {
  const core::AcceleratorLibrary lib = core::synthetic_library();
  fleet::FleetConfig config;
  config.devices = fleet::homogeneous_devices(lib, core::RuntimeManagerConfig{}, 16);
  fleet::LeastLoadedRouter router;
  sim::EventQueue q;
  fleet::FleetEngine engine(q, lib, config, router, 1, 1e9);
  engine.start();
  double capacity_fps = 0.0;
  for (std::size_t i = 0; i < engine.device_count(); ++i) {
    capacity_fps += engine.device(i).mode().fps;
  }
  const double gap_s = 1.0 / (2.0 * capacity_fps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.offer_frame());
    q.run_until(q.now() + gap_s);
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(engine.metrics().dispatched);
}
BENCHMARK(BM_FleetEngineOfferFrame);

void BM_LatencyHistogramRecord(benchmark::State& state) {
  sim::LatencyHistogram h;
  double s = 1e-4;
  for (auto _ : state) {
    s = s * 1.37 + 1e-5;
    if (s > 10.0) s = 1e-4;
    h.record(s);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_LatencyHistogramRecord);

void BM_LatencyHistogramMerge(benchmark::State& state) {
  sim::LatencyHistogram a;
  sim::LatencyHistogram b;
  for (int i = 0; i < 10000; ++i) {
    a.record(1e-4 * static_cast<double>(1 + i % 500));
    b.record(2e-4 * static_cast<double>(1 + i % 300));
  }
  for (auto _ : state) {
    sim::LatencyHistogram merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.count());
  }
}
BENCHMARK(BM_LatencyHistogramMerge);

// One window barrier's worth of cross-shard traffic: push N handoffs into an
// outbox, drain it into an inbox, drain the inbox.
void BM_MailboxExchange(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    shard::Mailbox outbox;
    shard::Mailbox inbox;
    for (std::int64_t i = 0; i < n; ++i) {
      outbox.push(shard::Handoff{i, 1});
    }
    for (const shard::Handoff& h : outbox.drain()) {
      inbox.push(h);
    }
    std::int64_t sum = 0;
    for (const shard::Handoff& h : inbox.drain()) {
      sum += h.tag;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_MailboxExchange)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
