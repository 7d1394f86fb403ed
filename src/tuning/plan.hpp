#pragma once
// One energy planner for every Eqn 3 question. A dump, a fetch or a window
// of I/O jobs is a list of stages; each stage is a workload with an Eqn 3
// role, compute (compress, decompress, hash) or transit (write, read,
// journal). plan() picks one clock per stage under an objective and prices
// the result on the chip model:
//
//   MaxClock    every stage at f_max, the paper's "Base Clock";
//   RuleClocks  every stage at its role's TuningRule clock (Eqn 3:
//               compute at 0.875 f_max, transit at 0.85 f_max), or the
//               one-clock overlapped schedule of the streaming dump engine
//               when a pipeline depth is given (see RuleClocks);
//   MinEnergy   every stage at its energy-optimal DVFS grid point, then,
//               under a deadline, runtime bought back at the cheapest
//               marginal joules per second;
//   PowerCap    every stage at the fastest grid point whose modeled
//               package power stays within the cap.
//
// The search objectives share one walk over the DVFS grid; the fixed
// clocks are priced at exactly f_max * fraction, on the grid or off it.
// Serial plan totals are the stage sums in stage order, so a plan's
// runtime and energy equal the sums of its stages bit for bit.

#include <cstddef>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "power/chip_model.hpp"
#include "power/workload.hpp"
#include "support/status.hpp"
#include "tuning/rule.hpp"

namespace lcp::tuning {

/// Which Eqn 3 clock a stage takes under a TuningRule.
enum class StageRole { kCompute, kTransit };

/// One stage of a plan. The caller fills name, workload and role; plan()
/// fills the clock it chose and the stage's modeled runtime and energy.
struct Stage {
  std::string name;  ///< "compress", "write", "read", ...
  power::Workload workload;
  StageRole role = StageRole::kCompute;
  GigaHertz frequency{0.0};
  Seconds runtime{0.0};
  Joules energy{0.0};
};

/// Every stage at f_max.
struct MaxClock {};

/// Every stage at its role's rule clock. A pipeline depth S >= 1 instead
/// runs the one-clock overlapped schedule of the streaming dump engine
/// (core/streaming_dump.hpp): all stages are live at once and a core has
/// one frequency, so the whole pipeline runs at whichever of the rule's two
/// clocks costs less energy. Over S slabs the bottleneck stage runs end to
/// end and every other stage is exposed only for one slab's worth of
/// pipeline fill/drain:
///
///   t = t_max + (sum of the other stages' t) / S
///   E = sum of stage E - P_static * (serial t - t)
///
/// Each stage's dynamic work is unchanged; the package is powered for the
/// hidden seconds fewer. S = 1 hides nothing and equals the serial
/// schedule at that clock exactly. The identity rule {1, 1} is the
/// max-clock pipeline.
struct RuleClocks {
  TuningRule rule;
  std::size_t pipeline_depth = 0;  ///< 0: stages run one after another
};

/// Minimum modeled energy, optionally with total runtime within a deadline.
struct MinEnergy {
  std::optional<Seconds> deadline;
};

/// Fastest grid point per stage whose modeled package power is <= cap.
struct PowerCap {
  Watts cap;
};

using Objective = std::variant<MaxClock, RuleClocks, MinEnergy, PowerCap>;

/// The stages with their chosen clocks, and the plan's totals.
struct Plan {
  std::vector<Stage> stages;
  std::size_t pipeline_depth = 0;  ///< 0: serial
  Seconds runtime{0.0};            ///< makespan
  Joules energy{0.0};

  /// Runtime and energy of the same stages at the same clocks run one
  /// after another; equal to runtime and energy for a serial plan.
  [[nodiscard]] Seconds serial_runtime() const noexcept;
  [[nodiscard]] Joules serial_energy() const noexcept;

  /// Overhead of the frequency switches between consecutive stages at
  /// different clocks (the cost Eqn 3's piecewise plan assumes away, and
  /// which is indeed negligible; see the tests). The core stalls at
  /// static power during each transition.
  [[nodiscard]] Seconds transition_time(const power::ChipSpec& spec) const;
  [[nodiscard]] Joules transition_energy(const power::ChipSpec& spec) const;
};

/// Chooses a clock per stage under `objective`. The fixed-clock objectives
/// always succeed, on any stage list. The searches fail with
/// kInvalidArgument on an empty stage list, when even every stage at f_max
/// misses the deadline, or when a stage exceeds the cap even at f_min.
/// Ties in energy go to the highest tied grid point: the same joules in
/// less time.
[[nodiscard]] Expected<Plan> plan(const power::ChipSpec& spec,
                                  std::vector<Stage> stages,
                                  const Objective& objective);

/// A tuned plan against the same stages at the max clock.
struct PlanComparison {
  Plan base;
  Plan tuned;

  [[nodiscard]] double energy_savings() const noexcept {
    return 1.0 - tuned.energy / base.energy;
  }
  [[nodiscard]] double runtime_increase() const noexcept {
    return tuned.runtime / base.runtime - 1.0;
  }
  [[nodiscard]] Joules energy_saved() const noexcept {
    return base.energy - tuned.energy;
  }
};

/// plan(`tuned`) against plan(RuleClocks{{1, 1}, same depth}): the stages
/// at f_max, serial or pipelined alike.
[[nodiscard]] PlanComparison compare(const power::ChipSpec& spec,
                                     std::vector<Stage> stages,
                                     const RuleClocks& tuned);

}  // namespace lcp::tuning
