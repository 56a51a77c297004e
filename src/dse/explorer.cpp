#include "adaflow/dse/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "adaflow/common/error.hpp"
#include "adaflow/common/math.hpp"
#include "adaflow/common/parallel.hpp"
#include "adaflow/common/rng.hpp"
#include "adaflow/graph/lower.hpp"

namespace adaflow::dse {

namespace {

/// Lattices of at most this many foldings are enumerated in full; larger
/// ones are searched by beam + annealing.
constexpr double kExhaustiveLimit = 100000.0;
/// Initiation-interval sweep density of the beam search.
constexpr std::size_t kMaxIiTargets = 96;

/// Candidate-index assignment, one per MVTU layer.
using Chosen = std::vector<std::int32_t>;

double scalar_cost(const fpga::ResourceUsage& r, const fpga::ResourceUsage& budget) {
  double cost = 0.0;
  cost += budget.luts > 0.0 ? r.luts / budget.luts : r.luts * 1e-6;
  cost += budget.flip_flops > 0.0 ? r.flip_flops / budget.flip_flops : r.flip_flops * 1e-6;
  cost += budget.bram18 > 0.0 ? r.bram18 / budget.bram18 : r.bram18 * 1e-3;
  cost += budget.dsp > 0.0 ? r.dsp / budget.dsp : r.dsp * 1e-3;
  return cost;
}

/// The pruning-granularity coupling of layer \p li's candidate against the
/// already-chosen producer folding. Only conv producers are prunable.
bool compatible_with_producer(const SearchSpace& space, std::size_t li, std::int64_t prev_pe,
                              std::int64_t simd, double max_granularity) {
  if (li == 0 || max_granularity <= 0.0) {
    return true;
  }
  const hls::StageDesc& producer = space.layers[li - 1].desc;
  if (producer.kind != hls::StageKind::kConv) {
    return true;
  }
  return prune_compatible(producer.ch_out, prev_pe, simd, max_granularity);
}

/// Checks every adjacent producer/consumer pair of a full assignment.
bool assignment_prune_compatible(const SearchSpace& space, const Chosen& chosen,
                                 double max_granularity) {
  if (max_granularity <= 0.0) {
    return true;
  }
  for (std::size_t li = 1; li < space.layers.size(); ++li) {
    const std::int64_t prev_pe =
        space.layers[li - 1].candidates[static_cast<std::size_t>(chosen[li - 1])].folding.pe;
    const std::int64_t simd =
        space.layers[li].candidates[static_cast<std::size_t>(chosen[li])].folding.simd;
    if (!compatible_with_producer(space, li, prev_pe, simd, max_granularity)) {
      return false;
    }
  }
  return true;
}

struct Evaluated {
  DesignPoint point;
  double cost = 0.0;
  bool feasible = false;
};

Evaluated evaluate(const SearchSpace& space, const Chosen& chosen, double clock_hz,
                   hls::AcceleratorVariant variant, const fpga::ResourceUsage& budget,
                   const fpga::ResourceModelConstants& k) {
  Evaluated e;
  e.point.folding.layers.reserve(space.layers.size());
  fpga::ResourceUsage total = space.fixed_overhead;
  std::int64_t worst = space.pool_ii_cycles;
  std::int64_t sum_cycles = space.pool_latency_cycles;
  for (std::size_t li = 0; li < space.layers.size(); ++li) {
    const FoldingCandidate& c = space.layers[li].candidates[static_cast<std::size_t>(chosen[li])];
    e.point.folding.layers.push_back(c.folding);
    total += c.resources;
    sum_cycles += c.cycles;
    if (c.cycles > worst) {
      worst = c.cycles;
      e.point.bottleneck_layer = static_cast<std::int64_t>(li);
    }
  }
  if (variant == hls::AcceleratorVariant::kFlexible) {
    total.luts *= k.flexible_lut_factor;
    total.flip_flops *= k.flexible_ff_factor;
  }
  e.point.resources = total;
  e.point.ii_cycles = worst;
  e.point.fps = clock_hz / static_cast<double>(worst);
  e.point.latency_s = static_cast<double>(sum_cycles) / clock_hz;
  e.cost = scalar_cost(total, budget);
  e.feasible = fpga::fits_budget(total, budget);
  return e;
}

bool dominates(const DesignPoint& a, const DesignPoint& b) {
  if (a.fps < b.fps || a.resources.luts > b.resources.luts ||
      a.resources.flip_flops > b.resources.flip_flops ||
      a.resources.bram18 > b.resources.bram18 || a.resources.dsp > b.resources.dsp) {
    return false;
  }
  return a.fps > b.fps || a.resources.luts < b.resources.luts ||
         a.resources.flip_flops < b.resources.flip_flops ||
         a.resources.bram18 < b.resources.bram18 || a.resources.dsp < b.resources.dsp;
}

bool folding_less(const hls::FoldingConfig& a, const hls::FoldingConfig& b) {
  for (std::size_t i = 0; i < std::min(a.layers.size(), b.layers.size()); ++i) {
    if (a.layers[i].pe != b.layers[i].pe) {
      return a.layers[i].pe < b.layers[i].pe;
    }
    if (a.layers[i].simd != b.layers[i].simd) {
      return a.layers[i].simd < b.layers[i].simd;
    }
  }
  return a.layers.size() < b.layers.size();
}

bool folding_equal(const hls::FoldingConfig& a, const hls::FoldingConfig& b) {
  if (a.layers.size() != b.layers.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    if (a.layers[i].pe != b.layers[i].pe || a.layers[i].simd != b.layers[i].simd) {
      return false;
    }
  }
  return true;
}

/// Deduplicates by folding and strips dominated points; sorted fastest-first.
std::vector<DesignPoint> pareto_filter(std::vector<DesignPoint> points) {
  std::sort(points.begin(), points.end(), [](const DesignPoint& a, const DesignPoint& b) {
    if (a.fps != b.fps) {
      return a.fps > b.fps;
    }
    if (a.resources.luts != b.resources.luts) {
      return a.resources.luts < b.resources.luts;
    }
    if (a.resources.bram18 != b.resources.bram18) {
      return a.resources.bram18 < b.resources.bram18;
    }
    return folding_less(a.folding, b.folding);
  });
  points.erase(std::unique(points.begin(), points.end(),
                           [](const DesignPoint& a, const DesignPoint& b) {
                             return folding_equal(a.folding, b.folding);
                           }),
               points.end());
  std::vector<DesignPoint> frontier;
  for (const DesignPoint& p : points) {
    bool dominated = false;
    for (const DesignPoint& q : frontier) {
      if (dominates(q, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      frontier.push_back(p);
    }
  }
  return frontier;
}

/// Full-lattice enumeration (small spaces), chunked over common/parallel.
/// Each chunk writes its local Pareto set to a pre-assigned slot; chunks are
/// merged in slot order, so the result is independent of thread timing.
std::vector<DesignPoint> enumerate_exhaustive(const SearchSpace& space, double clock_hz,
                                              hls::AcceleratorVariant variant,
                                              const fpga::ResourceUsage& budget,
                                              const ExplorerConfig& config,
                                              std::int64_t* evaluated) {
  std::int64_t total = 1;
  for (const LayerSpace& layer : space.layers) {
    total *= static_cast<std::int64_t>(layer.candidates.size());
  }
  const std::int64_t chunk = std::max<std::int64_t>(
      1024, ceil_div(total, static_cast<std::int64_t>(parallel_worker_count()) * 4));
  const std::int64_t chunks = ceil_div(total, chunk);

  std::vector<std::vector<DesignPoint>> slots(static_cast<std::size_t>(chunks));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(chunks), 0);
  parallel_for(chunks, [&](std::int64_t ci) {
    std::vector<DesignPoint> local;
    Chosen chosen(space.layers.size(), 0);
    const std::int64_t lo = ci * chunk;
    const std::int64_t hi = std::min(total, lo + chunk);
    for (std::int64_t combo = lo; combo < hi; ++combo) {
      std::int64_t rem = combo;
      for (std::size_t li = 0; li < space.layers.size(); ++li) {
        const auto n = static_cast<std::int64_t>(space.layers[li].candidates.size());
        chosen[li] = static_cast<std::int32_t>(rem % n);
        rem /= n;
      }
      if (!assignment_prune_compatible(space, chosen,
                                       config.constraints.max_prune_granularity)) {
        continue;
      }
      Evaluated e = evaluate(space, chosen, clock_hz, variant, budget,
                             config.resource_constants);
      ++counts[static_cast<std::size_t>(ci)];
      if (e.feasible) {
        local.push_back(std::move(e.point));
      }
      if (local.size() >= 8192) {
        local = pareto_filter(std::move(local));
      }
    }
    slots[static_cast<std::size_t>(ci)] = pareto_filter(std::move(local));
  });

  std::vector<DesignPoint> merged;
  for (std::size_t ci = 0; ci < slots.size(); ++ci) {
    merged.insert(merged.end(), slots[ci].begin(), slots[ci].end());
    *evaluated += counts[ci];
  }
  return merged;
}

struct BeamState {
  Chosen chosen;
  fpga::ResourceUsage resources;
  double cost = 0.0;
  std::int64_t prev_pe = 1;
};

/// Cheapest folding whose every MVTU stage meets \p target_ii cycles, found
/// with a per-layer beam over the cost-sorted candidate lists.
std::vector<DesignPoint> beam_for_target(const SearchSpace& space, std::int64_t target_ii,
                                         double clock_hz, hls::AcceleratorVariant variant,
                                         const fpga::ResourceUsage& budget,
                                         const ExplorerConfig& config, std::int64_t* evaluated) {
  std::vector<BeamState> beam(1);
  for (std::size_t li = 0; li < space.layers.size(); ++li) {
    const LayerSpace& layer = space.layers[li];
    std::vector<BeamState> next;
    for (const BeamState& state : beam) {
      for (std::size_t c = 0; c < layer.candidates.size(); ++c) {
        const FoldingCandidate& cand = layer.candidates[c];
        if (cand.cycles > target_ii ||
            !compatible_with_producer(space, li, state.prev_pe, cand.folding.simd,
                                      config.constraints.max_prune_granularity)) {
          continue;
        }
        BeamState s = state;
        s.chosen.push_back(static_cast<std::int32_t>(c));
        s.resources += cand.resources;
        s.cost += cand.cost;
        s.prev_pe = cand.folding.pe;
        next.push_back(std::move(s));
      }
    }
    if (next.empty()) {
      return {};  // target unreachable under the constraints
    }
    std::sort(next.begin(), next.end(), [](const BeamState& a, const BeamState& b) {
      if (a.cost != b.cost) {
        return a.cost < b.cost;
      }
      return a.chosen < b.chosen;
    });
    if (next.size() > static_cast<std::size_t>(config.beam_width)) {
      next.resize(static_cast<std::size_t>(config.beam_width));
    }
    beam = std::move(next);
  }

  std::vector<DesignPoint> points;
  for (const BeamState& state : beam) {
    Evaluated e =
        evaluate(space, state.chosen, clock_hz, variant, budget, config.resource_constants);
    ++*evaluated;
    if (e.feasible) {
      points.push_back(std::move(e.point));
    }
  }
  return points;
}

/// The sorted set of initiation intervals worth targeting: every distinct
/// achievable per-layer cycle count, floored at the best II any folding can
/// reach, subsampled to kMaxIiTargets.
std::vector<std::int64_t> ii_targets(const SearchSpace& space) {
  std::int64_t floor_ii = space.pool_ii_cycles;
  for (const LayerSpace& layer : space.layers) {
    floor_ii = std::max(floor_ii, layer.min_cycles);
  }
  std::set<std::int64_t> distinct;
  for (const LayerSpace& layer : space.layers) {
    for (const FoldingCandidate& c : layer.candidates) {
      if (c.cycles >= floor_ii) {
        distinct.insert(c.cycles);
      }
    }
  }
  distinct.insert(floor_ii);
  std::vector<std::int64_t> targets(distinct.begin(), distinct.end());
  if (targets.size() > kMaxIiTargets) {
    std::vector<std::int64_t> sampled;
    sampled.reserve(kMaxIiTargets);
    for (std::size_t i = 0; i < kMaxIiTargets; ++i) {
      const std::size_t j = i * (targets.size() - 1) / (kMaxIiTargets - 1);
      sampled.push_back(targets[j]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    targets = std::move(sampled);
  }
  return targets;
}

double objective_score(const Evaluated& e, const ExplorerConfig& config,
                       const fpga::FpgaDevice& device) {
  constexpr double kInfeasiblePenalty = 1e15;
  switch (config.objective) {
    case Objective::kMaxFps:
      return -e.point.fps + (e.feasible ? 0.0 : kInfeasiblePenalty * e.cost);
    case Objective::kMinResources:
      return e.cost + (e.feasible && e.point.fps + 1e-9 >= config.target_fps
                           ? 0.0
                           : kInfeasiblePenalty);
    case Objective::kBalanced: {
      const double pressure =
          fpga::max_utilization(fpga::utilization(e.point.resources, device));
      return -(e.point.fps / std::max(1e-12, pressure)) +
             (e.feasible ? 0.0 : kInfeasiblePenalty * e.cost);
    }
  }
  return 0.0;
}

/// Seeded simulated-annealing refinement around \p start. Explores single-
/// layer folding moves; every feasible point visited is returned so the
/// frontier benefits even from rejected downhill excursions.
std::vector<DesignPoint> anneal(const SearchSpace& space, const Chosen& start, double clock_hz,
                                hls::AcceleratorVariant variant,
                                const fpga::ResourceUsage& budget, const ExplorerConfig& config,
                                const fpga::FpgaDevice& device, std::int64_t* evaluated) {
  std::vector<DesignPoint> visited;
  if (config.anneal_iters <= 0 || space.layers.empty()) {
    return visited;
  }
  Rng rng(config.seed);
  Chosen current = start;
  Evaluated cur_eval =
      evaluate(space, current, clock_hz, variant, budget, config.resource_constants);
  double cur_score = objective_score(cur_eval, config, device);
  const double t0 = std::max(1.0, std::fabs(cur_score)) * 0.05;

  for (int iter = 0; iter < config.anneal_iters; ++iter) {
    const auto li = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(space.layers.size()) - 1));
    const auto n = static_cast<std::int64_t>(space.layers[li].candidates.size());
    const auto ci = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
    if (ci == current[li]) {
      continue;
    }
    Chosen moved = current;
    moved[li] = ci;
    if (!assignment_prune_compatible(space, moved, config.constraints.max_prune_granularity)) {
      continue;
    }
    Evaluated e = evaluate(space, moved, clock_hz, variant, budget, config.resource_constants);
    ++*evaluated;
    if (e.feasible) {
      visited.push_back(e.point);
    }
    const double score = objective_score(e, config, device);
    const double temp =
        t0 * (1.0 - static_cast<double>(iter) / static_cast<double>(config.anneal_iters));
    const bool accept =
        score <= cur_score ||
        (temp > 0.0 && rng.uniform() < std::exp(-(score - cur_score) / temp));
    if (accept) {
      current = std::move(moved);
      cur_eval = std::move(e);
      cur_score = score;
    }
  }
  return visited;
}

std::size_t pick_best_index(const std::vector<DesignPoint>& frontier,
                            const ExplorerConfig& config, const fpga::FpgaDevice& device,
                            const fpga::ResourceUsage& budget, bool* objective_met) {
  *objective_met = !frontier.empty();
  if (frontier.empty()) {
    return 0;
  }
  switch (config.objective) {
    case Objective::kMaxFps:
      return 0;  // frontier is sorted fastest-first
    case Objective::kMinResources: {
      std::size_t best = frontier.size();
      double best_cost = 0.0;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (frontier[i].fps + 1e-9 < config.target_fps) {
          continue;
        }
        const double cost = scalar_cost(frontier[i].resources, budget);
        if (best == frontier.size() || cost < best_cost) {
          best = i;
          best_cost = cost;
        }
      }
      if (best == frontier.size()) {
        *objective_met = false;  // target unreachable: fall back to fastest
        return 0;
      }
      return best;
    }
    case Objective::kBalanced: {
      std::size_t best = 0;
      double best_score = -1.0;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const double pressure =
            fpga::max_utilization(fpga::utilization(frontier[i].resources, device));
        const double score = frontier[i].fps / std::max(1e-12, pressure);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

/// Chosen indices of \p point (inverse of evaluate's folding assembly).
Chosen chosen_of(const SearchSpace& space, const DesignPoint& point) {
  Chosen chosen(space.layers.size(), 0);
  for (std::size_t li = 0; li < space.layers.size(); ++li) {
    const auto& cands = space.layers[li].candidates;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      if (cands[c].folding.pe == point.folding.layers[li].pe &&
          cands[c].folding.simd == point.folding.layers[li].simd) {
        chosen[li] = static_cast<std::int32_t>(c);
        break;
      }
    }
  }
  return chosen;
}

}  // namespace

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::kMaxFps:
      return "max-fps";
    case Objective::kMinResources:
      return "min-resources";
    case Objective::kBalanced:
      return "balanced";
  }
  return "?";
}

Objective objective_by_name(const std::string& name) {
  for (Objective o : {Objective::kMaxFps, Objective::kMinResources, Objective::kBalanced}) {
    if (name == objective_name(o)) {
      return o;
    }
  }
  throw ConfigError("unknown objective '" + name +
                    "' (max-fps | min-resources | balanced)");
}

std::vector<std::string> objective_names() {
  return {"max-fps", "min-resources", "balanced"};
}

const DesignPoint& ExplorationResult::best() const {
  require(!frontier.empty(),
          "design-space exploration found no feasible folding under the budget");
  return frontier[best_index];
}

ExplorationResult explore_geometry(const hls::CompiledModel& geometry, int weight_bits,
                                   int act_bits, const fpga::FpgaDevice& device,
                                   const ExplorerConfig& config) {
  require(config.beam_width >= 1, "beam width must be >= 1");
  require(config.anneal_iters >= 0, "anneal iterations must be >= 0");
  if (config.objective == Objective::kMinResources) {
    require(config.target_fps > 0.0, "min-resources exploration needs a target fps");
  }

  ExplorationResult result;
  result.budget = config.budget ? *config.budget
                                : fpga::device_budget(device, config.budget_fraction);
  const SearchSpace space =
      build_search_space(geometry, weight_bits, act_bits, config.variant, result.budget,
                         config.constraints, config.resource_constants,
                         perf::default_perf_constants());
  require(!space.layers.empty(), "model has no MVTU layers to fold");
  result.space_size = space_size(space);

  std::vector<DesignPoint> pool;
  if (result.space_size <= kExhaustiveLimit) {
    result.exhaustive = true;
    pool = enumerate_exhaustive(space, device.clock_hz, config.variant, result.budget, config,
                                &result.evaluated);
  } else {
    for (std::int64_t target : ii_targets(space)) {
      std::vector<DesignPoint> points =
          beam_for_target(space, target, device.clock_hz, config.variant, result.budget, config,
                          &result.evaluated);
      pool.insert(pool.end(), points.begin(), points.end());
    }
  }

  // Annealing refines the objective's incumbent (or digs for a first
  // feasible point when the sweep found none).
  std::vector<DesignPoint> frontier = pareto_filter(std::move(pool));
  bool met = false;
  Chosen start;
  if (!frontier.empty()) {
    const std::size_t incumbent =
        pick_best_index(frontier, config, device, result.budget, &met);
    start = chosen_of(space, frontier[incumbent]);
  } else {
    start.assign(space.layers.size(), 0);  // per-layer cheapest candidates
  }
  std::vector<DesignPoint> refined =
      anneal(space, start, device.clock_hz, config.variant, result.budget, config, device,
             &result.evaluated);
  frontier.insert(frontier.end(), refined.begin(), refined.end());

  result.frontier = pareto_filter(std::move(frontier));
  result.best_index =
      pick_best_index(result.frontier, config, device, result.budget, &result.objective_met);
  return result;
}

ExplorationResult explore(const graph::Graph& graph, const fpga::FpgaDevice& device,
                          const ExplorerConfig& config) {
  return explore_geometry(graph::lower_geometry(graph), graph.quant().weight_bits,
                          graph.quant().act_bits, device, config);
}

std::vector<LayerReport> layer_breakdown(const SearchSpace& space, const DesignPoint& point) {
  require(space.layers.size() == point.folding.layers.size(),
          "design point does not match the search space");
  std::vector<LayerReport> out;
  out.reserve(space.layers.size());
  for (std::size_t li = 0; li < space.layers.size(); ++li) {
    const hls::LayerFolding& f = point.folding.layers[li];
    LayerReport r;
    r.name = space.layers[li].desc.name;
    r.pe = f.pe;
    r.simd = f.simd;
    for (const FoldingCandidate& c : space.layers[li].candidates) {
      if (c.folding.pe == f.pe && c.folding.simd == f.simd) {
        r.cycles = c.cycles;
        r.luts = c.resources.luts;
        r.bram18 = c.resources.bram18;
        break;
      }
    }
    r.is_bottleneck = r.cycles == point.ii_cycles;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace adaflow::dse
