#include "tuning/plan.hpp"

#include <algorithm>
#include <limits>

#include "dvfs/frequency_range.hpp"

namespace lcp::tuning {
namespace {

/// Every clock at f_max: the rule behind MaxClock and compare()'s base.
constexpr TuningRule kMaxClockRule{1.0, 1.0};

void price(Stage& stage, const power::ChipSpec& spec, GigaHertz f) {
  stage.frequency = f;
  stage.runtime = power::workload_runtime(stage.workload, spec, f);
  stage.energy = power::workload_energy(stage.workload, spec, f);
}

Plan serial(std::vector<Stage> stages) {
  Plan p;
  p.stages = std::move(stages);
  p.runtime = p.serial_runtime();
  p.energy = p.serial_energy();
  return p;
}

/// Every stage at `f`, pipelined over `depth` slabs (see RuleClocks).
Plan pipeline(const power::ChipSpec& spec, std::vector<Stage> stages,
              GigaHertz f, std::size_t depth) {
  Plan p;
  p.stages = std::move(stages);
  p.pipeline_depth = depth;
  std::size_t bottleneck = 0;
  for (std::size_t i = 0; i < p.stages.size(); ++i) {
    price(p.stages[i], spec, f);
    if (p.stages[i].runtime > p.stages[bottleneck].runtime) {
      bottleneck = i;
    }
  }
  double exposed = 0.0;
  for (std::size_t i = 0; i < p.stages.size(); ++i) {
    if (i != bottleneck) {
      exposed += p.stages[i].runtime.seconds();
    }
  }
  const double t_max =
      p.stages.empty() ? 0.0 : p.stages[bottleneck].runtime.seconds();
  p.runtime = Seconds{t_max + exposed / static_cast<double>(depth)};
  const Seconds hidden = p.serial_runtime() - p.runtime;
  p.energy = Joules{p.serial_energy().joules() -
                    spec.static_power.watts() * hidden.seconds()};
  return p;
}

Plan rule_plan(const power::ChipSpec& spec, std::vector<Stage> stages,
               const RuleClocks& clocks) {
  const GigaHertz fc = clocks.rule.compression_frequency(spec.f_max);
  const GigaHertz ft = clocks.rule.transit_frequency(spec.f_max);
  if (clocks.pipeline_depth > 0) {
    Plan at_fc = pipeline(spec, stages, fc, clocks.pipeline_depth);
    Plan at_ft = pipeline(spec, std::move(stages), ft, clocks.pipeline_depth);
    return at_fc.energy <= at_ft.energy ? at_fc : at_ft;
  }
  for (Stage& s : stages) {
    price(s, spec, s.role == StageRole::kCompute ? fc : ft);
  }
  return serial(std::move(stages));
}

/// One stage priced at every DVFS grid point.
struct GridPoint {
  GigaHertz f;
  Seconds runtime;
  Joules energy;
  Watts power;
};

std::vector<std::vector<GridPoint>> walk_grid(const power::ChipSpec& spec,
                                              const std::vector<Stage>& stages) {
  const dvfs::FrequencyRange range{spec.f_min, spec.f_max, spec.f_step};
  std::vector<std::vector<GridPoint>> grid(stages.size());
  for (GigaHertz f : range.steps()) {
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const power::Workload& w = stages[s].workload;
      grid[s].push_back({f, power::workload_runtime(w, spec, f),
                         power::workload_energy(w, spec, f),
                         power::workload_power(w, spec, f)});
    }
  }
  return grid;
}

/// Starts every stage at its energy-optimal point (the fastest of tied
/// points: the same joules in less time) and, while the stage runtimes
/// summed in stage order exceed the deadline, moves up one grid step the
/// stage whose step buys a second back for the fewest joules.
Status min_energy(const std::vector<std::vector<GridPoint>>& grid,
                  const MinEnergy& objective,
                  std::vector<std::size_t>& chosen) {
  const auto total_runtime = [&] {
    double t = 0.0;
    for (std::size_t s = 0; s < grid.size(); ++s) {
      t += grid[s][chosen[s]].runtime.seconds();
    }
    return t;
  };
  for (std::size_t s = 0; s < grid.size(); ++s) {
    chosen[s] = 0;
    for (std::size_t i = 1; i < grid[s].size(); ++i) {
      if (grid[s][i].energy <= grid[s][chosen[s]].energy) {
        chosen[s] = i;
      }
    }
  }
  if (!objective.deadline) {
    return Status::ok();
  }
  const double deadline = objective.deadline->seconds();
  double fastest = 0.0;
  for (const auto& points : grid) {
    fastest += points.back().runtime.seconds();
  }
  if (fastest > deadline * (1.0 + 1e-12)) {
    return Status::invalid_argument("plan: deadline infeasible even at f_max");
  }
  while (total_runtime() > deadline) {
    double best_cost = std::numeric_limits<double>::infinity();
    std::size_t best = grid.size();
    for (std::size_t s = 0; s < grid.size(); ++s) {
      const std::size_t i = chosen[s];
      if (i + 1 >= grid[s].size()) {
        continue;
      }
      const double dt =
          grid[s][i].runtime.seconds() - grid[s][i + 1].runtime.seconds();
      if (dt <= 0.0) {
        continue;  // no runtime gained (floor-bound stage): skip this step
      }
      const double de =
          grid[s][i + 1].energy.joules() - grid[s][i].energy.joules();
      const double cost = de / dt;  // joules per saved second
      if (cost < best_cost) {
        best_cost = cost;
        best = s;
      }
    }
    if (best == grid.size()) {
      // Only floor-bound steps remain: advance any stage with headroom so
      // the loop terminates (its runtime is unchanged but its clock rises).
      // With none left every stage is at f_max, which met the deadline
      // check above.
      for (std::size_t s = 0; s < grid.size() && best == grid.size(); ++s) {
        if (chosen[s] + 1 < grid[s].size()) {
          best = s;
        }
      }
      if (best == grid.size()) {
        break;
      }
    }
    ++chosen[best];
  }
  return Status::ok();
}

Status power_cap(const std::vector<std::vector<GridPoint>>& grid,
                 const std::vector<Stage>& stages, const PowerCap& objective,
                 std::vector<std::size_t>& chosen) {
  for (std::size_t s = 0; s < grid.size(); ++s) {
    const auto fits = std::find_if(
        grid[s].rbegin(), grid[s].rend(),
        [&](const GridPoint& p) { return p.power <= objective.cap; });
    if (fits == grid[s].rend()) {
      return Status::invalid_argument("plan: power cap infeasible for '" +
                                      stages[s].name + "' even at f_min");
    }
    chosen[s] = static_cast<std::size_t>(fits.base() - grid[s].begin()) - 1;
  }
  return Status::ok();
}

}  // namespace

Seconds Plan::serial_runtime() const noexcept {
  Seconds total{0.0};
  for (const Stage& s : stages) {
    total = total + s.runtime;
  }
  return total;
}

Joules Plan::serial_energy() const noexcept {
  Joules total{0.0};
  for (const Stage& s : stages) {
    total = total + s.energy;
  }
  return total;
}

Seconds Plan::transition_time(const power::ChipSpec& spec) const {
  std::size_t switches = 0;
  for (std::size_t i = 1; i < stages.size(); ++i) {
    if (stages[i].frequency != stages[i - 1].frequency) {
      ++switches;
    }
  }
  return spec.dvfs_transition_latency * static_cast<double>(switches);
}

Joules Plan::transition_energy(const power::ChipSpec& spec) const {
  return spec.static_power * transition_time(spec);
}

Expected<Plan> plan(const power::ChipSpec& spec, std::vector<Stage> stages,
                    const Objective& objective) {
  if (std::holds_alternative<MaxClock>(objective)) {
    return rule_plan(spec, std::move(stages), RuleClocks{kMaxClockRule});
  }
  if (const auto* clocks = std::get_if<RuleClocks>(&objective)) {
    return rule_plan(spec, std::move(stages), *clocks);
  }
  if (stages.empty()) {
    return Status::invalid_argument("plan: no stages to search");
  }
  const auto grid = walk_grid(spec, stages);
  std::vector<std::size_t> chosen(stages.size());
  const Status st =
      std::holds_alternative<MinEnergy>(objective)
          ? min_energy(grid, std::get<MinEnergy>(objective), chosen)
          : power_cap(grid, stages, std::get<PowerCap>(objective), chosen);
  if (!st.is_ok()) {
    return st;
  }
  for (std::size_t s = 0; s < stages.size(); ++s) {
    price(stages[s], spec, grid[s][chosen[s]].f);
  }
  return serial(std::move(stages));
}

PlanComparison compare(const power::ChipSpec& spec, std::vector<Stage> stages,
                       const RuleClocks& tuned) {
  PlanComparison c;
  c.base = rule_plan(spec, stages, {kMaxClockRule, tuned.pipeline_depth});
  c.tuned = rule_plan(spec, std::move(stages), tuned);
  return c;
}

}  // namespace lcp::tuning
