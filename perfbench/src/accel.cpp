/// The functional dataflow accelerator, module by module, in libgen_cold's
/// traced run: the generated library's versions stream frames through a Fixed
/// accelerator running the unpruned model and a Flexible one that
/// load_model()s the next version of a seeded schedule every kBlockFrames
/// frames. Each module call gets a span, next to perf::analyze's cycles for
/// the same stage.

#include <cstdio>
#include <cstring>

#include "adaflow/common/rng.hpp"
#include "adaflow/fpga/device.hpp"
#include "adaflow/hls/accelerator.hpp"
#include "adaflow/perf/perf.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace adaflow;

constexpr std::int64_t kBlockFrames = 50;

/// Version served in each block: every run of versions.size() blocks is a
/// seeded permutation, so each version is served equally often.
std::vector<std::size_t> version_schedule(std::uint64_t seed, std::size_t versions,
                                          std::size_t blocks) {
  Rng rng(derive_seed(seed, 4));
  std::vector<std::size_t> out;
  std::vector<std::size_t> order(versions);
  while (out.size() < blocks) {
    for (std::size_t v = 0; v < versions; ++v) {
      order[v] = v;
    }
    rng.shuffle(order);
    out.insert(out.end(), order.begin(), order.end());
  }
  out.resize(blocks);
  return out;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The accelerator's module pipeline rebuilt from the public HLS module
/// classes, so the traced run can put a span around each module call. It
/// mirrors DataflowAccelerator's construction and load_model.
class ComposedPipeline {
 public:
  ComposedPipeline(hls::AcceleratorVariant variant, const hls::CompiledModel& synthesis,
                   const hls::FoldingConfig& folding, Tracer& tr) {
    std::size_t ordinal = 0;
    for (const hls::CompiledStage& st : synthesis.stages) {
      const std::string& name = st.desc.name;
      Stage stage{st.desc.kind, st.desc.ch_in, -1, -1, -1};
      if (st.desc.kind == hls::StageKind::kPool) {
        stage.unit = static_cast<int>(pools_.size());
        stage.span_pool = tr.intern("hls." + name + ".pool");
        pools_.emplace_back(variant, st.desc.ch_in, st.desc.kernel);
      } else {
        const hls::LayerFolding& f = folding.layers[ordinal++];
        stage.unit = static_cast<int>(mvtus_.size());
        stage.span_mvtu = tr.intern("hls." + name + ".mvtu");
        if (st.desc.kind == hls::StageKind::kConv) {
          stage.span_swu = tr.intern("hls." + name + ".swu");
        }
        mvtus_.emplace_back(variant, st.desc.ch_in, st.desc.ch_out, st.desc.kernel, f.pe,
                            f.simd);
      }
      stages_.push_back(stage);
    }
    span_quantize_ = tr.intern("hls.quantize");
    span_infer_ = tr.intern("hls.infer");
  }

  void load(const hls::CompiledModel& model) {
    model_ = &model;
    std::size_t m = 0;
    std::size_t p = 0;
    for (const hls::CompiledStage& st : model.stages) {
      if (st.desc.kind == hls::StageKind::kPool) {
        pools_[p++].set_channels(st.desc.ch_in);
      } else {
        mvtus_[m++].load(st.desc.ch_in, st.desc.ch_out, st.weight_levels, st.thresholds);
      }
    }
  }

  /// One frame with a span per module call; fills \p stats (one entry per
  /// stage, in pipeline order).
  std::vector<float> infer(const nn::Tensor& image, Tracer& tr,
                           std::vector<hls::ModuleStats>& stats) {
    const Tracer::Scope frame(tr, span_infer_);
    stats.assign(stages_.size(), hls::ModuleStats{});
    hls::IntImage fmap;
    {
      const Tracer::Scope s(tr, span_quantize_);
      fmap = hls::quantize_input(image, model_->input_quant);
    }
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      const Stage& stage = stages_[i];
      const hls::StageDesc& desc = model_->stages[i].desc;
      const auto unit = static_cast<std::size_t>(stage.unit);
      if (stage.kind == hls::StageKind::kPool) {
        const Tracer::Scope s(tr, stage.span_pool);
        fmap = pools_[unit].run(fmap, &stats[i]);
      } else if (stage.kind == hls::StageKind::kConv) {
        hls::WindowBuffer windows;
        {
          const Tracer::Scope s(tr, stage.span_swu);
          windows = hls::SlidingWindowUnit(desc.kernel, desc.stride, desc.pad).run(fmap, nullptr);
        }
        const Tracer::Scope s(tr, stage.span_mvtu);
        fmap = mvtus_[unit].run(windows, desc.out_dim, desc.out_dim, &stats[i]);
      } else {
        const Tracer::Scope s(tr, stage.span_mvtu);
        hls::WindowBuffer windows;
        windows.rows = fmap.size();
        windows.cols = 1;
        windows.data.assign(fmap.data.begin(), fmap.data.end());
        fmap = mvtus_[unit].run(windows, 1, 1, &stats[i]);
      }
    }
    const float scale = model_->stages.back().acc_scale;
    std::vector<float> logits(static_cast<std::size_t>(fmap.size()));
    for (std::size_t i = 0; i < logits.size(); ++i) {
      logits[i] = static_cast<float>(fmap.data[i]) * scale;
    }
    return logits;
  }

  /// Synthesized channel capacity of each stage (pool comparator count).
  std::int64_t capacity(std::size_t stage) const { return stages_[stage].capacity; }

 private:
  struct Stage {
    hls::StageKind kind;
    std::int64_t capacity;
    int unit;
    int span_swu;
    int span_mvtu;
    int span_pool = -1;
  };
  std::vector<Stage> stages_;
  std::vector<hls::MatrixVectorThresholdUnit> mvtus_;
  std::vector<hls::MaxPoolUnit> pools_;
  const hls::CompiledModel* model_ = nullptr;
  int span_quantize_ = 0;
  int span_infer_ = 0;
};

}  // namespace

double trace_accelerator_stream(const std::vector<hls::CompiledModel>& versions,
                                const hls::FoldingConfig& folding, const nn::LabeledData& frames,
                                std::uint64_t seed, Tracer& tr, Checker& checks,
                                Metrics& values) {
  const double clock_hz = fpga::zcu104().clock_hz;
  const std::size_t blocks = static_cast<std::size_t>(frames.count() / kBlockFrames);
  const std::vector<std::size_t> schedule = version_schedule(seed, versions.size(), blocks);
  const std::size_t stage_count = versions.front().stages.size();

  std::size_t t = tr.open(tr.intern("hls.build_accelerators"));
  hls::DataflowAccelerator fixed(hls::AcceleratorVariant::kFixed, versions[0], folding);
  hls::DataflowAccelerator flex(hls::AcceleratorVariant::kFlexible, versions[0], folding);
  tr.close(t);

  // Each block runs untraced through the accelerators (the reference), then
  // module by module with spans; interleaving by block makes the overhead
  // compare the two on the same frames under the same host conditions.
  ComposedPipeline fixed_pipe(hls::AcceleratorVariant::kFixed, versions[0], folding, tr);
  ComposedPipeline flex_pipe(hls::AcceleratorVariant::kFlexible, versions[0], folding, tr);
  fixed_pipe.load(versions[0]);
  std::vector<std::int64_t> iterations(stage_count, 0);
  std::vector<std::int64_t> flex_iterations(stage_count, 0);
  std::vector<std::int64_t> flex_idle(stage_count, 0);
  std::vector<double> cycles(stage_count, 0.0);
  std::vector<hls::ModuleStats> stats;
  const perf::PerfReport fixed_perf =
      perf::analyze(versions[0], folding, hls::AcceleratorVariant::kFixed, clock_hz);
  const int span_load = tr.intern("hls.load_model");
  const int span_untraced = tr.intern("bench.untraced_block");
  const int span_traced = tr.intern("bench.traced_block");
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const hls::CompiledModel& v = versions[schedule[b]];
    {
      const Tracer::Scope load(tr, span_load);
      flex.load_model(v);
    }
    flex_pipe.load(v);
    const perf::PerfReport flex_perf =
        perf::analyze(v, folding, hls::AcceleratorVariant::kFlexible, clock_hz);
    const auto first = static_cast<std::int64_t>(b) * kBlockFrames;

    std::vector<std::vector<float>> reference;
    std::vector<std::int64_t> reference_iterations;
    std::size_t block = tr.open(span_untraced);
    for (std::int64_t i = first; i < first + kBlockFrames; ++i) {
      const nn::Tensor image = frames.sample(i);
      for (hls::DataflowAccelerator* acc : {&fixed, &flex}) {
        reference.push_back(acc->infer_logits(image));
        reference_iterations.push_back(acc->last_stats().total_pipeline_iterations());
      }
    }
    tr.close(block);
    untraced_s += tr.seconds(block);

    block = tr.open(span_traced);
    std::size_t ref = 0;
    for (std::int64_t i = first; i < first + kBlockFrames; ++i) {
      const nn::Tensor image = frames.sample(i);
      for (ComposedPipeline* pipe : {&fixed_pipe, &flex_pipe}) {
        const std::vector<float> logits = pipe->infer(image, tr, stats);
        const perf::PerfReport& perf = pipe == &fixed_pipe ? fixed_perf : flex_perf;
        const bool flexible = pipe == &flex_pipe;
        std::int64_t total_iterations = 0;
        bool idle_lanes_exact = true;
        for (std::size_t st = 0; st < stage_count; ++st) {
          iterations[st] += stats[st].pipeline_iterations;
          total_iterations += stats[st].pipeline_iterations;
          cycles[st] += static_cast<double>(perf.stages[st].cycles);
          // Only a Flexible pool leaves lanes unfed: capacity - channels per
          // pipeline iteration, so none on the unpruned version.
          const bool pool = v.stages[st].desc.kind == hls::StageKind::kPool;
          const std::int64_t unfed =
              flexible && pool ? pipe->capacity(st) - v.stages[st].desc.ch_in : 0;
          idle_lanes_exact = idle_lanes_exact &&
                             stats[st].idle_unit_ops == stats[st].pipeline_iterations * unfed;
          if (flexible) {
            flex_iterations[st] += stats[st].pipeline_iterations;
            flex_idle[st] += stats[st].idle_unit_ops;
          }
        }
        checks.op(bit_identical(logits, reference[ref]) &&
                      total_iterations == reference_iterations[ref] && idle_lanes_exact &&
                      (!flexible || schedule[b] != 0 ||
                       bit_identical(logits, reference[ref - 1])),
                  "module-by-module composition reproduces infer_logits and its idle "
                  "lanes; Fixed == Flexible on the unpruned model");
        ++ref;
      }
    }
    tr.close(block);
    traced_s += tr.seconds(block);
  }

  // Per-stage host time, counters and modelled cycles per inference (Fixed
  // and Flexible together); idle lanes per Flexible inference.
  const double flex_inferences = static_cast<double>(blocks * kBlockFrames);
  const double inferences = 2.0 * flex_inferences;
  std::map<std::string, double> self;
  for (const Tracer::Row& row : tr.by_name()) {
    self[row.name] = row.self_s;
  }
  double swu = 0.0, mvtu = 0.0, pool = 0.0;
  double pool_idle = 0.0, pool_units = 0.0;
  std::size_t host_max = 0, perf_max = 0;
  std::vector<double> stage_host(stage_count, 0.0);
  for (std::size_t st = 0; st < stage_count; ++st) {
    const std::string name = versions[0].stages[st].desc.name;
    const double st_swu = self["hls." + name + ".swu"];
    const double st_mvtu = self["hls." + name + ".mvtu"];
    const double st_pool = self["hls." + name + ".pool"];
    swu += st_swu;
    mvtu += st_mvtu;
    pool += st_pool;
    stage_host[st] = st_swu + st_mvtu + st_pool;
    if (versions[0].stages[st].desc.kind == hls::StageKind::kPool) {
      pool_idle += static_cast<double>(flex_idle[st]);
      pool_units += static_cast<double>(flex_iterations[st] * flex_pipe.capacity(st));
    }
    values["hls." + name + ".us"] = 1e6 * stage_host[st] / inferences;
    values["hls." + name + ".iterations"] = static_cast<double>(iterations[st]) / inferences;
    values["hls." + name + ".idle_unit_ops"] =
        static_cast<double>(flex_idle[st]) / flex_inferences;
    values["perf." + name + ".cycles"] = cycles[st] / inferences;
    host_max = stage_host[st] > stage_host[host_max] ? st : host_max;
    perf_max = cycles[st] > cycles[perf_max] ? st : perf_max;
  }
  values["hls.quantize_us"] = 1e6 * self["hls.quantize"] / inferences;
  values["hls.swu_us"] = 1e6 * swu / inferences;
  values["hls.mvtu_us"] = 1e6 * mvtu / inferences;
  values["hls.pool_us"] = 1e6 * pool / inferences;
  values["hls.load_model_us"] = 1e6 * self["hls.load_model"] / static_cast<double>(blocks);
  values["hls.idle_lane_frac"] = pool_units > 0.0 ? pool_idle / pool_units : 0.0;
  values["perf.bottleneck_agrees"] = host_max == perf_max ? 1.0 : 0.0;
  std::printf("accelerator stream: %zu blocks of %lld frames, host-time bottleneck %s, "
              "perf::analyze bottleneck %s\n",
              blocks, static_cast<long long>(kBlockFrames),
              versions[0].stages[host_max].desc.name.c_str(),
              versions[0].stages[perf_max].desc.name.c_str());
  return (traced_s - untraced_s) / untraced_s;
}

}  // namespace perfbench
